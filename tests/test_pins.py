"""Pinned outputs: closed-loop outcomes and step counts, campaign bytes.

The expected values were recorded before the servo and its arrive-or-timeout
rule were folded into one kernel (``sim.servo`` and ``sim.advance``).  A
change that alters the simulated trajectory, the predictor's chunks or the
serialised records by even one step or one float shows up here.
"""

import hashlib

from demoaug.dataset import episode_lines
from demoaug.demos import reference_demo
from demoaug.ensemble import EnsembleConfig, EnsembleMode
from demoaug.evaluation import closed_loop_eval
from demoaug.policy import DisturbanceConfig
from demoaug.sim import run_campaign, scene_seed_for

# Root seed 10 gives both outcomes in both cells, and its first baseline
# episode changes length if the predictor's cursor holds a waypoint T rather
# than T + 1 steps.
STACK_SEEDS = [scene_seed_for(10, i) for i in range(6)]
STACK_DISTURBANCES = DisturbanceConfig(latency=3, bimodal_period=2)
STACK_OUTCOMES = {
    EnsembleMode.BASELINE: [1, 0, 0, 0, 0, 0],
    EnsembleMode.COMBINED: [1, 0, 1, 1, 1, 1],
}
STACK_STEPS = {
    EnsembleMode.BASELINE: [548, 1032, 1032, 1032, 1032, 1032],
    EnsembleMode.COMBINED: [305, 1032, 374, 653, 615, 622],
}
CAMPAIGN_SEED = 3
CAMPAIGN_SHA256 = "e83464af48c8a534b788ee467d63fc1c21927c610bb0f189c04128caf5ac120a"


def test_stack_disturbed_outcomes_and_steps(stack_demo):
    cells = [EnsembleConfig(mode=mode, beta=1.0) for mode in STACK_OUTCOMES]
    outcomes = {mode: [] for mode in STACK_OUTCOMES}
    steps = {mode: [] for mode in STACK_OUTCOMES}

    def sink(cfg, episode_index, seed, stats):
        steps[cfg.mode].append(len(stats))

    # one single-episode evaluation per seed: each cell's count is that
    # episode's outcome
    for seed in STACK_SEEDS:
        report = closed_loop_eval("stack", stack_demo, cells, 1, [seed],
                                  disturbances=STACK_DISTURBANCES, diagnostics_sink=sink)
        for cell in report.cells:
            outcomes[cell.mode].append(cell.successes)
    assert outcomes == STACK_OUTCOMES
    assert steps == STACK_STEPS


def test_pick_place_campaign_bytes():
    ds = run_campaign(reference_demo("pick_place"), "pick_place", count=3,
                      rng_seed=CAMPAIGN_SEED)
    digest = hashlib.sha256()
    for ep in ds.episodes:
        for line in episode_lines(ep):
            digest.update(line.encode() + b"\n")
    assert ds.attempts == 3
    assert digest.hexdigest() == CAMPAIGN_SHA256
