"""The benchmark's three workloads, driven through demoaug's public entry points.

A workload is a sequence of units.  Unit ``j`` of a run with seed ``s`` has
inputs derived only from ``(s, j)``, so a seed names a fixed input sequence
and two runs with the same seed do the same work.  Each unit is one call into
the program (``demoaug.cli.main`` or ``demoaug.evaluation.closed_loop_eval``)
and returns a :class:`UnitResult` whose ``signature`` is what the correctness
gate compares: against the stored reference, against a re-run of the same
unit, and between the untraced and traced passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEMO_DIR = Path("src") / "demoaug" / "demos"


class GateFailure(AssertionError):
    """The program's output for a unit is wrong."""


@dataclass
class UnitResult:
    seconds: float          # wall time inside the program's entry point
    episodes: int           # kept episodes written, or closed-loop episodes run
    steps: int              # control steps those episodes took
    signature: dict         # compared against the reference and re-runs
    out_bytes: int = 0      # bytes the unit wrote (campaign only)
    ensemble: dict = field(default_factory=dict)  # ensembler step counts (ablations)
    calibration: float = 0.0   # calibration slice seconds around the unit
    calibrated_s: float = 0.0  # ``seconds`` rescaled to the reference machine speed


def unit_seed(seed: int, unit: int) -> int:
    """Root seed of one unit; a plain function of the workload seed."""
    return int(np.random.SeedSequence([int(seed), int(unit), 0xBE7C]).generate_state(1)[0])


def tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest(), total


class Campaign:
    """``demoaug augment`` for pick-and-place, one small campaign per unit."""

    name = "campaign_pick_place"
    task = "pick_place"
    cutoff = 0.05   # pick-and-place success distance, the CLI default

    def __init__(self, seed: int, workdir: Path, count: int = 20):
        self.seed = seed
        self.workdir = Path(workdir)
        self.count = count
        self.demo_path = DEMO_DIR / f"{self.task}.json"

    def unit_params(self) -> dict:
        return {"count": self.count}

    def setup(self, demoaug) -> None:
        demoaug.load_demo(self.demo_path)

    def run_unit(self, unit: int, clock, root_span=contextlib.nullcontext) -> UnitResult:
        from demoaug import cli

        out = self.workdir / f"unit_{unit:05d}"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["augment", "--demo", self.demo_path.as_posix(), "--task", self.task,
                "--count", str(self.count), "--seed", str(unit_seed(self.seed, unit)),
                "--out", str(out.resolve())]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            with root_span():
                code = cli.main(argv)
            seconds = clock() - t0
        try:
            if code != 0:
                raise GateFailure(f"augment exited {code}")
            return self._check(out, seconds)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, seconds: float) -> UnitResult:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        episodes = manifest["episodes"]
        if not (manifest["complete"] and manifest["successes"] == self.count
                and len(episodes) == self.count and manifest["attempts"] >= self.count):
            raise GateFailure(f"manifest accounting wrong: successes={manifest['successes']} "
                              f"episodes={len(episodes)} attempts={manifest['attempts']}")
        steps = 0
        for entry in episodes:
            lines = (out / entry["file"]).read_bytes().splitlines()
            if not entry["success"] or len(lines) != entry["steps"]:
                raise GateFailure(f"{entry['file']}: index disagrees with the file")
            final = json.loads(lines[-1])["obs"]
            for pos, goal in zip(final["blocks"], final["goals"]):
                if float(np.linalg.norm(np.subtract(pos, goal))) > self.cutoff:
                    raise GateFailure(f"{entry['file']}: kept episode ends off its goal")
            steps += entry["steps"]
        digest, nbytes = tree_digest(out)
        return UnitResult(seconds=seconds, episodes=len(episodes), steps=steps,
                          signature={"kept": len(episodes), "attempted": manifest["attempts"],
                                     "sha256": digest},
                          out_bytes=nbytes)


class Ablation:
    """``closed_loop_eval`` over a two-cell matrix, one or two paired episodes per unit."""

    def __init__(self, name: str, task: str, disturbance: dict, cells: list[tuple[str, float]],
                 seed: int, episodes: int):
        self.name = name
        self.task = task
        self.disturbance = disturbance
        self.cells = cells
        self.seed = seed
        self.episodes = episodes

    def unit_params(self) -> dict:
        return {"episodes": self.episodes}

    def setup(self, demoaug) -> None:
        self.demo = demoaug.load_demo(DEMO_DIR / f"{self.task}.json")
        self.matrix = [demoaug.EnsembleConfig(mode=mode, beta=beta) for mode, beta in self.cells]
        self.disturbances = demoaug.DisturbanceConfig(**self.disturbance)

    def run_unit(self, unit: int, clock, root_span=contextlib.nullcontext) -> UnitResult:
        from demoaug import evaluation

        base = unit_seed(self.seed, unit)
        seeds = [unit_seed(base, i) for i in range(self.episodes)]
        seen: list[tuple[int, list]] = []

        def sink(cfg, episode_index, seed, stats):
            seen.append((episode_index, stats))

        t0 = clock()
        with root_span():
            report = evaluation.closed_loop_eval(
                self.task, self.demo, self.matrix, self.episodes, seeds,
                disturbances=self.disturbances, diagnostics_sink=sink)
        seconds = clock() - t0

        expected = list(self.cells)
        got = [(c.mode.value, c.beta) for c in report.cells]
        if got != expected or report.n_episodes != self.episodes:
            raise GateFailure(f"report cells {got} / n={report.n_episodes}, "
                              f"expected {expected} / n={self.episodes}")
        if [i for i, _ in seen] != list(range(self.episodes)) * len(self.cells):
            raise GateFailure("diagnostics sink did not see every episode once per cell")
        lengths = [len(stats) for _, stats in seen]
        if min(lengths) < 1 or any([s.t for s in stats] != list(range(len(stats)))
                                   for _, stats in seen):
            raise GateFailure("an episode's per-step diagnostics are not steps 0..n-1")
        successes = [c.successes for c in report.cells]
        if any(not 0 <= s <= self.episodes for s in successes):
            raise GateFailure(f"success counts {successes} outside [0, {self.episodes}]")
        ensemble = {"suspended": 0, "triggers": 0, "candidates": 0, "ensembled": 0}
        for _, stats in seen:
            for s in stats:
                if s.mode_used == "suspended":
                    ensemble["suspended"] += 1
                else:
                    ensemble["ensembled"] += 1
                    ensemble["candidates"] += s.candidate_count
                ensemble["triggers"] += bool(s.triggered)
        return UnitResult(seconds=seconds, episodes=self.episodes * len(self.cells),
                          steps=sum(lengths),
                          signature={"successes": successes, "steps": sum(lengths)},
                          ensemble=ensemble)


WORKLOADS = ("campaign_pick_place", "ablation_stack_disturbed", "ablation_push_clean")


def make_workload(name: str, seed: int, workdir: Path, small: bool = False):
    """Build a workload; ``small`` shrinks every unit for the self-tests."""
    if name == "campaign_pick_place":
        return Campaign(seed, workdir, count=2 if small else 20)
    if name == "ablation_stack_disturbed":
        return Ablation(name, "stack", {"latency": 3, "bimodal_period": 2},
                        [("baseline", 1.0), ("combined", 1.0)], seed, episodes=1)
    if name == "ablation_push_clean":
        return Ablation(name, "push", {}, [("dynamic_k", 1.0), ("combined", 1.0)], seed,
                        episodes=1 if small else 2)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
