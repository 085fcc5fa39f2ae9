"""Outside-in benchmark for demoaug.

Run from the root of a checkout:

    python3 bench/run.py --workload ablation_stack_disturbed --seed 0 --seconds 35 --trace 0

The program is imported from ``src/`` of the checkout and driven through its
public entry points in this one process and thread.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs the same units untraced and then
traced, and reports per-layer metrics from outside-in spans.  Every unit's
output is checked (see workloads.py); the last line of standard output is one
JSON object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS, GateFailure, make_workload  # noqa: E402

OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 15
MAX_FAILURES = 5   # stop measuring early once the program is clearly broken

LAYERS = (
    ("sim.step", "demoaug.sim", "step"),
    ("sim.replay", "demoaug.sim", "replay"),
    ("dataset.write_dataset", "demoaug.dataset", "write_dataset"),
    ("tasks.sample_scene", "demoaug.tasks", "sample_scene"),
    ("geometry.transform_from_anchors", "demoaug.geometry", "transform_from_anchors"),
    ("trajectory.augment_segmentwise", "demoaug.trajectory", "augment_segmentwise"),
    ("policy.predict", "demoaug.policy:ScriptedPolicy", "predict"),
    ("ensemble.ensemble_action", "demoaug.ensemble", "ensemble_action"),
    ("ensemble.compute_k", "demoaug.ensemble", "compute_k"),
    ("evaluation.run_closed_loop_episode", "demoaug.evaluation", "run_closed_loop_episode"),
)
LAYER_STATS = ("calls", "us_per_call", "self_us_per_call", "share", "self_share")
EXTRA_PER_LAYER = (
    ("sim.replay.keep_ratio", "ratio"),
    ("dataset.write_dataset.s", "s"),
    ("dataset.write_dataset.bytes", "bytes"),
    ("dataset.write_dataset.mb_per_s", "MB/s"),
    ("ensemble.suspended_fraction", "ratio"),
    ("ensemble.mean_candidates", "count"),
    ("ensemble.triggers_per_episode", "count"),
    ("evaluation.run_closed_loop_episode.ms_p50", "ms"),
    ("evaluation.run_closed_loop_episode.ms_pmax", "ms"),
    ("evaluation.run_closed_loop_episode.pmax_q", "quantile"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.calibration_ms", "ms"),
)
STAT_UNITS = {"calls": "count", "us_per_call": "us", "self_us_per_call": "us",
              "share": "ratio", "self_share": "ratio"}
END_TO_END = (("setup_s", "s"), ("episodes_per_s", "1/s"), ("sim_steps_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


# Calibration: a fixed slice of interpreter and small-array work, timed
# around every unit and every set-up.  On a shared host the speed of one
# core can swing by a fifth for seconds at a time as other tenants come and
# go, and the program slows with it; timings are reported rescaled to a
# machine on which this slice takes CALIBRATION_REF_S, which cancels the
# swing (see README.md).
CALIBRATION_REF_S = 0.005
_CAL_VEC = np.array([0.1, 0.2, 0.3])


def calibrate() -> float:
    """Wall seconds of the calibration slice, as the machine runs right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1200):
        acc += float(np.linalg.norm(_CAL_VEC * 1.0001 - _CAL_VEC))
        acc += {"i": i, "acc": acc}["i"] % 3
    return time.perf_counter() - t0


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{stat}": STAT_UNITS[stat] for layer, _, _ in LAYERS
             for stat in LAYER_STATS}
    units.update(EXTRA_PER_LAYER)
    return units


class ProgramMissing(RuntimeError):
    """The checkout holds no importable demoaug under src/."""


def fresh_import():
    """Import demoaug from the checkout's src/, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "demoaug" / "__init__.py").is_file():
        raise ProgramMissing(f"no demoaug package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "demoaug" or n.startswith("demoaug.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    demoaug = importlib.import_module("demoaug")
    for sub in ("cli", "dataset", "evaluation"):
        importlib.import_module(f"demoaug.{sub}")
    if Path(demoaug.__file__).resolve().parent != (src / "demoaug").resolve():
        raise ProgramMissing(f"demoaug imported from {demoaug.__file__}, not from {src}")
    return demoaug


def measure_setup(workload, repeats: int = SETUP_REPEATS):
    """Median calibrated time of importing demoaug, parsing the demo and
    building the configs, each repeat starting from a fresh import."""
    times = []
    for _ in range(repeats):
        before = calibrate()
        t0 = time.perf_counter()
        demoaug = fresh_import()
        workload.setup(demoaug)
        seconds = time.perf_counter() - t0
        times.append(seconds * 2 * CALIBRATION_REF_S / (before + calibrate()))
    return statistics.median(times), demoaug


def load_reference(workload_name: str, seed: int, workload) -> dict | None:
    """Stored unit signatures for this workload and seed, if any."""
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entry = doc["workloads"].get(workload_name, {})
    if entry.get("unit") != workload.unit_params():
        raise SystemExit(f"reference for {workload_name} was made with unit "
                         f"{entry.get('unit')}, workload uses {workload.unit_params()}")
    units = entry.get("seeds", {}).get(str(seed))
    return None if units is None else dict(enumerate(units))


class Runner:
    """Runs units, applies the correctness gate, and counts failures."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference or {}
        self.attempted = 0
        self.failed = 0
        self.reference_checked = 0

    def fail(self, unit: int, why: str) -> None:
        self.failed += 1
        print(f"FAIL unit {unit}: {why}", file=sys.stderr)

    def unit(self, j: int, root_span=contextlib.nullcontext, check_reference: bool = True):
        self.attempted += 1
        before = calibrate()
        try:
            result = self.workload.run_unit(j, time.perf_counter, root_span)
            result.calibration = (before + calibrate()) / 2
            result.calibrated_s = result.seconds * CALIBRATION_REF_S / result.calibration
        except GateFailure as e:
            self.fail(j, str(e))
            return None
        except Exception:  # a crash in the program is a failed operation
            self.fail(j, traceback.format_exc())
            return None
        expected = self.reference.get(j)
        if check_reference and expected is not None:
            self.reference_checked += 1
            stored = {k: expected[k] for k in result.signature}
            if stored != result.signature:
                self.fail(j, f"signature {result.signature} != reference {stored}")
        return result

    def measure(self, seconds: float) -> list:
        """Run units 0, 1, ... until ``seconds`` of wall time pass."""
        done = []
        start = time.perf_counter()
        j = 0
        while not done or time.perf_counter() - start < seconds:
            done.append((j, self.unit(j)))
            j += 1
            if self.failed >= MAX_FAILURES:
                break
        return done

    def same(self, j: int, a, b, what: str) -> None:
        if a is not None and b is not None and a.signature != b.signature:
            self.fail(j, f"{what}: {a.signature} != {b.signature}")


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> dict:
    done = runner.measure(seconds)
    # the first unit again, untimed: the same inputs must give the same output
    runner.same(0, done[0][1], runner.unit(0, check_reference=False), "re-run of unit 0")
    ok = [r for _, r in done if r is not None]
    if not ok:
        return {}
    # totals over every unit, so the run's figure covers as many scenes as
    # it can; each unit's time is calibrated, so a slow spell moves only it
    seconds = sum(r.calibrated_s for r in ok)
    return {
        "setup_s": setup_s,
        "episodes_per_s": sum(r.episodes for r in ok) / seconds,
        "sim_steps_per_s": sum(r.steps for r in ok) / seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(runner: Runner, workload, seconds: float, seed: int) -> dict:
    """Untraced pass over some units, then the same units traced."""
    untraced = runner.measure(seconds / 2)
    outcomes: list[bool] = []
    replays: list[bool] = []
    hooks = {"evaluation.run_closed_loop_episode": lambda r: outcomes.append(bool(r[0])),
             "sim.replay": lambda ep: replays.append(bool(ep.success))}
    targets = [Target(layer, owner, attr, hooks.get(layer)) for layer, owner, attr in LAYERS]
    again = []
    with Tracer(targets) as tracer:
        for j, before in untraced:
            start = len(outcomes)
            after = runner.unit(j, root_span=tracer.root, check_reference=False)
            runner.same(j, before, after, "traced pass")
            again.append((before, after))
            if after is not None and hasattr(workload, "cells") and \
                    "evaluation.run_closed_loop_episode" not in tracer.missing:
                check_outcomes(runner, j, outcomes[start:], after, workload)
    if tracer.missing:
        print(f"warning: layers not found, reported as 0: {tracer.missing}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace_{workload.name}_seed{seed}.tsv")
    return layer_metrics(tracer, again, replays)


def outcome_vectors(outcomes: list, workload) -> list[str]:
    """One '0'/'1' string per cell from cell-major per-episode outcomes."""
    n = workload.episodes
    return ["".join("1" if ok else "0" for ok in outcomes[i * n:(i + 1) * n])
            for i in range(len(workload.cells))]


def check_outcomes(runner: Runner, j: int, outcomes: list, result, workload) -> None:
    """Per-episode outcomes of one traced unit against the unit's own
    success counts and the stored reference vector."""
    cells = outcome_vectors(outcomes, workload)
    if [c.count("1") for c in cells] != result.signature["successes"] or \
            len(outcomes) != workload.episodes * len(workload.cells):
        runner.fail(j, f"episode outcomes {cells} disagree with {result.signature}")
    expected = runner.reference.get(j)
    if expected is not None and expected["outcomes"] != cells:
        runner.fail(j, f"episode outcomes {cells} != reference {expected['outcomes']}")


def _pmax(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its quantile."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return (ordered[-1], 1.0) if ordered else (0.0, 0.0)
    k = len(ordered) - 11
    return ordered[k], (k + 1) / len(ordered)


def layer_metrics(tracer: Tracer, pairs: list, replays: list) -> dict:
    summary = tracer.summary()
    entry = summary.get("entry", {"total_ns": 0, "self_ns": 0})
    wall_ns = entry["total_ns"] or 1
    out = {}
    for layer, _, _ in LAYERS:
        s = summary.get(layer, {"calls": 0, "total_ns": 0, "self_ns": 0, "durations": []})
        calls = s["calls"]
        out[f"{layer}.calls"] = calls
        out[f"{layer}.us_per_call"] = s["total_ns"] / calls / 1e3 if calls else 0.0
        out[f"{layer}.self_us_per_call"] = s["self_ns"] / calls / 1e3 if calls else 0.0
        out[f"{layer}.share"] = s["total_ns"] / wall_ns
        out[f"{layer}.self_share"] = s["self_ns"] / wall_ns

    results = [after for _, after in pairs if after is not None]
    out["sim.replay.keep_ratio"] = sum(replays) / len(replays) if replays else 0.0
    write_s = summary.get("dataset.write_dataset", {"total_ns": 0})["total_ns"] / 1e9
    written = sum(r.out_bytes for r in results)
    out["dataset.write_dataset.s"] = write_s
    out["dataset.write_dataset.bytes"] = written
    out["dataset.write_dataset.mb_per_s"] = written / 1e6 / write_s if write_s else 0.0

    ens = {k: sum(r.ensemble.get(k, 0) for r in results)
           for k in ("suspended", "triggers", "candidates", "ensembled")}
    steps = ens["suspended"] + ens["ensembled"]
    episodes = sum(r.episodes for r in results) if ens["ensembled"] else 0
    out["ensemble.suspended_fraction"] = ens["suspended"] / steps if steps else 0.0
    out["ensemble.mean_candidates"] = (ens["candidates"] / ens["ensembled"]
                                       if ens["ensembled"] else 0.0)
    out["ensemble.triggers_per_episode"] = ens["triggers"] / episodes if episodes else 0.0

    episode_ms = [d / 1e6 for d in summary.get("evaluation.run_closed_loop_episode",
                                               {"durations": []})["durations"]]
    pmax, q = _pmax(episode_ms)
    out["evaluation.run_closed_loop_episode.ms_p50"] = (statistics.median(episode_ms)
                                                        if episode_ms else 0.0)
    out["evaluation.run_closed_loop_episode.ms_pmax"] = pmax
    out["evaluation.run_closed_loop_episode.pmax_q"] = q

    both = [(b, a) for b, a in pairs if b is not None and a is not None]
    untraced_s = sum(b.calibrated_s for b, _ in both)
    out["trace.overhead"] = sum(a.calibrated_s for _, a in both) / untraced_s if both else 0.0
    out["trace.unattributed_share"] = entry["self_ns"] / wall_ns
    out["trace.calibration_ms"] = (statistics.median(a.calibration for _, a in both) * 1e3
                                   if both else 0.0)
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, small: bool = False,
        reference: dict | None | bool = True, workdir: Path | None = None) -> dict:
    """One benchmark run; returns the result object that is printed.

    ``reference=True`` loads the stored reference for the seed; a dict
    replaces it (the self-tests inject mismatches this way).
    """
    workdir = workdir or OUT / f"work_{workload_name}_{seed}"
    workload = make_workload(workload_name, seed, workdir, small=small)
    if reference is True:
        reference = None if small else load_reference(workload_name, seed, workload)
    setup_s, _ = measure_setup(workload)
    runner = Runner(workload, reference)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            values = traced(runner, workload, seconds, seed)
            units = per_layer_units()
        else:
            values = end_to_end(runner, seconds, setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{workload_name} seed={seed}: {runner.attempted} units, {runner.failed} failed, "
          f"{runner.reference_checked} checked against the stored reference"
          + ("" if reference else " (none stored for this seed)"), file=sys.stderr)
    correct = runner.failed == 0 and len(values) == len(units)
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # the demo path the manifests record is relative to the root
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'error_ratio':<48} {ratio:>16.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
