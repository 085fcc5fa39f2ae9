"""Pinned outputs: closed-loop outcomes and step counts, campaign and replay bytes.

The closed-loop values and the pick-and-place digest were recorded before
the servo and its arrive-or-timeout rule were folded into one kernel
(``sim.servo`` and ``sim.advance``); the stack and push digests and the
replay output before ``SimState`` became array-backed.  A change that alters
the simulated trajectory, the predictor's chunks or the serialised records
by even one step or one float shows up here.
"""

import hashlib
from pathlib import Path

import pytest

from demoaug.cli import main
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
CAMPAIGN_SHA256 = {
    "pick_place": "e83464af48c8a534b788ee467d63fc1c21927c610bb0f189c04128caf5ac120a",
    "stack": "359969964e2bdaad45425e7820abf8c4cb98b5c46d44e756029a42d8a17d22ce",
    "push": "9af16b60af5ecc8b647b062755fda254cc9cc201d4dd4be2ca36860a099fc395",
}
STACK_JSON = Path(__file__).resolve().parents[1] / "src" / "demoaug" / "demos" / "stack.json"
REPLAY_STDOUT = ("success=True steps=335 final_blocks=[[0.03384877715899504, "
                 "-0.20445985754849044, 0.02], [0.034066094620798106, "
                 "-0.20467890285110207, 0.06]]")
REPLAY_SHA256 = "5382608cd65fde013363bee907bdf2a77ad6c6dce7d27a565982de9e8dd8db6a"


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


def campaign_digest(task: str) -> tuple[int, str]:
    """Attempts and sha256 over the serialised steps of a 3-episode campaign."""
    ds = run_campaign(reference_demo(task), task, count=3, rng_seed=CAMPAIGN_SEED)
    digest = hashlib.sha256()
    for ep in ds.episodes:
        for line in episode_lines(ep):
            digest.update(line.encode() + b"\n")
    return ds.attempts, digest.hexdigest()


def test_pick_place_campaign_bytes():
    assert campaign_digest("pick_place") == (3, CAMPAIGN_SHA256["pick_place"])


# two-block settling and the held flags show only in stack and push records
@pytest.mark.parametrize("task", ["stack", "push"])
def test_campaign_bytes(task):
    assert campaign_digest(task) == (3, CAMPAIGN_SHA256[task])


def test_replay_command_output(tmp_path, capsys):
    out = tmp_path / "episode.jsonl"
    code = main(["replay", "--demo", str(STACK_JSON), "--task", "stack", "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == REPLAY_STDOUT
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPLAY_SHA256
