"""Regenerate bench/reference.json from the program in this checkout.

    python3 bench/make_reference.py

Records, for the default seed and one held-out seed, the signature of every
unit a run could reach, plus the per-episode outcome vector of each ablation
unit.  Run it only when the program's outputs are meant to change, and say
why in the change that commits the new file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from tracer import Target, Tracer
from workloads import WORKLOADS, make_workload

DEFAULT_SEED = 0
HELD_OUT_SEED = 1009
# more units than an untraced 35 s run reaches on two cores today
UNITS = {"campaign_pick_place": 160, "ablation_stack_disturbed": 80,
         "ablation_push_clean": 140}


def reference_units(name: str, seed: int) -> tuple[dict, list]:
    workdir = run.OUT / f"reference_{name}_{seed}"
    workload = make_workload(name, seed, workdir)
    workload.setup(run.fresh_import())
    runner = run.Runner(workload, None)
    outcomes: list[bool] = []
    hook = Target("evaluation.run_closed_loop_episode", "demoaug.evaluation",
                  "run_closed_loop_episode", lambda r: outcomes.append(bool(r[0])))
    units = []
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Tracer([hook]):
            for j in range(UNITS[name]):
                start = len(outcomes)
                result = runner.unit(j)
                if result is None:
                    raise SystemExit(f"{name} seed {seed} unit {j} failed; no reference written")
                entry = dict(result.signature)
                if hasattr(workload, "cells"):
                    entry["outcomes"] = run.outcome_vectors(outcomes[start:], workload)
                units.append(entry)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return workload.unit_params(), units


def main() -> int:
    os.chdir(run.ROOT)
    doc = {"format_version": 1, "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
           "workloads": {}}
    for name in WORKLOADS:
        entry = {"seeds": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            entry["unit"], entry["seeds"][str(seed)] = reference_units(name, seed)
            print(f"{name} seed {seed}: {len(entry['seeds'][str(seed)])} units", file=sys.stderr)
        doc["workloads"][name] = entry
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
