#!/usr/bin/env python3
"""Recompute the golden outputs and list every value that changed.

The golden outputs are the pins in ``tests/pins.json``, which
``tests/test_pins.py`` asserts, and the reference units in
``bench/reference.json``, which the benchmark's correctness gate checks.
The pins are recomputed by the functions below, which the tests call; the
units by ``bench/make_reference.py``'s ``reference_units``.  Both run the
program under this checkout's ``src/``.  The pins go first, because the
reference half drops and re-imports ``demoaug``.

Prints one line per value that differs from the committed one,
``<pin>: old -> new`` or ``<workload> seed <s> unit <j>: old -> new``, each
value as compact JSON, then the flip count.  A pin is a top-level key of
``pins.json``, or ``<key>.<entry>`` for each entry of a key holding an object.
With ``--write`` it writes the recomputed values to both files.  Without it,
it changes no file (the reference units run under ``.bench_out/`` and are
removed) and exits 1 if any value flipped.

Usage: python tools/regenerate_golden.py [--write]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from demoaug.cli import main as cli_main  # noqa: E402
from demoaug.dataset import episode_lines  # noqa: E402
from demoaug.demos import reference_demo  # noqa: E402
from demoaug.ensemble import EnsembleConfig, EnsembleMode  # noqa: E402
from demoaug.evaluation import closed_loop_eval  # noqa: E402
from demoaug.policy import DisturbanceConfig  # noqa: E402
from demoaug.sim import run_campaign, scene_seed_for  # noqa: E402

PINS = ROOT / "tests" / "pins.json"
TASKS = ("push", "pick_place", "stack")

# Root seed 10 gives both outcomes in both cells, and its first baseline
# episode changes length if the predictor's cursor holds a waypoint T rather
# than T + 1 steps.
STACK_SEEDS = [scene_seed_for(10, i) for i in range(6)]
STACK_MODES = (EnsembleMode.BASELINE, EnsembleMode.COMBINED)
STACK_DISTURBANCES = DisturbanceConfig(latency=3, bimodal_period=2)
CAMPAIGN_SEED = 3
CAMPAIGN_COUNT = 3
REPLAY_ARGS = ["replay", "--demo", str(ROOT / "src" / "demoaug" / "demos" / "stack.json"),
               "--task", "stack", "--seed", "4"]


def stack_outcomes_and_steps() -> tuple[dict, dict]:
    """Success (1 or 0) and step count of each disturbed stack episode of
    ``STACK_SEEDS``, by mode, one single-episode evaluation per seed."""
    demo = reference_demo("stack")
    cells = [EnsembleConfig(mode=mode, beta=1.0) for mode in STACK_MODES]
    outcomes = {mode.value: [] for mode in STACK_MODES}
    steps = {mode.value: [] for mode in STACK_MODES}

    def sink(cfg, episode_index, seed, stats):
        steps[cfg.mode.value].append(len(stats))

    for seed in STACK_SEEDS:
        report = closed_loop_eval("stack", demo, cells, 1, [seed],
                                  disturbances=STACK_DISTURBANCES, diagnostics_sink=sink)
        for cell in report.cells:
            outcomes[cell.mode.value].append(cell.successes)
    return outcomes, steps


def campaign_digest(task: str) -> tuple[int, str]:
    """Attempts and sha256 over the serialised steps of a 3-episode campaign."""
    ds = run_campaign(reference_demo(task), task, count=CAMPAIGN_COUNT, rng_seed=CAMPAIGN_SEED)
    digest = hashlib.sha256()
    for ep in ds.episodes:
        for line in episode_lines(ep):
            digest.update(line.encode() + b"\n")
    return ds.attempts, digest.hexdigest()


def replay_output() -> tuple[str, str]:
    """The first line ``demoaug replay`` prints for a stack episode, and the
    sha256 of the episode file it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "episode.jsonl")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli_main([*REPLAY_ARGS, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"replay exited {code}")
        return printed.getvalue().splitlines()[0], hashlib.sha256(out.read_bytes()).hexdigest()


def fixture_shape(task: str) -> dict:
    """Waypoint and segment counts of the bundled demo for ``task``."""
    demo = reference_demo(task)
    return {"waypoints": len(demo.waypoints), "segments": len(demo.segments),
            "segment_counts": [s.stop - s.start for s in demo.segments]}


def current_pins() -> dict:
    """Every pin as the program in this checkout computes it, in ``pins.json``'s layout.
    A campaign's pin is its digest; its attempt count is asserted by the tests."""
    outcomes, steps = stack_outcomes_and_steps()
    replay_stdout, replay_sha256 = replay_output()
    return {"stack_outcomes": outcomes, "stack_steps": steps,
            "campaign_sha256": {task: campaign_digest(task)[1]
                                for task in ("pick_place", "stack", "push")},
            "replay_stdout": replay_stdout, "replay_sha256": replay_sha256,
            "fixture_shapes": {task: fixture_shape(task) for task in TASKS}}


def _show(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(", ", ": "))


def _by_pin(pins: dict) -> dict:
    flat = {}
    for key, value in pins.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{entry}", v) for entry, v in value.items())
        else:
            flat[key] = value
    return flat


def pin_flips(old: dict, new: dict) -> list[str]:
    """``<pin>: old -> new`` for each pin whose value differs; a missing one is null."""
    old, new = _by_pin(old), _by_pin(new)
    return [f"{pin}: {_show(old.get(pin))} -> {_show(new.get(pin))}"
            for pin in {**old, **new} if old.get(pin) != new.get(pin)]


def reference_flips(reference: dict) -> tuple[list[str], dict]:
    """Each unit of the committed ``reference`` that its recomputation changes, as
    ``<workload> seed <s> unit <j>: old -> new``, and the recomputed document."""
    sys.path.insert(0, str(ROOT / "bench"))
    import make_reference

    lines = []
    doc = {"format_version": 1, "default_seed": make_reference.DEFAULT_SEED,
           "held_out_seed": make_reference.HELD_OUT_SEED, "workloads": {}}
    for name in make_reference.WORKLOADS:
        old = reference["workloads"].get(name, {})
        entry = doc["workloads"][name] = {"seeds": {}}
        for seed in (make_reference.DEFAULT_SEED, make_reference.HELD_OUT_SEED):
            entry["unit"], units = make_reference.reference_units(name, seed)
            entry["seeds"][str(seed)] = units
            old_units = old.get("seeds", {}).get(str(seed), [])
            lines += [f"{name} seed {seed} unit {j}: {_show(a)} -> {_show(b)}"
                      for j, (a, b) in enumerate(zip_longest(old_units, units)) if a != b]
        if old.get("unit") != entry["unit"]:
            lines.append(f"{name} unit: {_show(old.get('unit'))} -> {_show(entry['unit'])}")
    return lines, doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="write the recomputed pins and reference units")
    args = parser.parse_args(argv)
    os.chdir(ROOT)   # the workloads name their demos by paths from the root
    pins = current_pins()
    flips = pin_flips(json.loads(PINS.read_text(encoding="utf-8")), pins)
    for line in flips:
        print(line, flush=True)
    reference_path = ROOT / "bench" / "reference.json"
    unit_flips, reference = reference_flips(json.loads(reference_path.read_text(encoding="utf-8")))
    for line in unit_flips:
        print(line)
    flips += unit_flips
    print(f"{len(flips)} flips")
    if args.write:
        PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
        reference_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        return 0
    return 1 if flips else 0


if __name__ == "__main__":
    sys.exit(main())
