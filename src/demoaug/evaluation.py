"""Closed-loop evaluation of ensembling modes with the scripted predictor.

Runs scripted-policy episodes through the ensembler and the kinematic
simulator for every cell of a mode/beta/k_cutoff matrix and reports
per-cell success rates with binomial confidence intervals.  Episodes are
paired across cells: cell i and cell j see the same scenes and the same
disturbance streams for a given seed.

What a seed determines is made once, by :func:`prepare_episode`, and shared
by every cell: the sampled scene, the demo warped to it and the predictor's
disturbance config seeded from it.  A :class:`SeedRun` makes it for its seed.

Lockstep.  Cells whose actions have had the same bits so far share predictor
and simulator state, so a :class:`SeedRun` steps a seed's cells in groups, at
first one per ``chunk_len``, each with one ``ScriptedPolicy`` and ``SimState``.
Each step the policy predicts once and every member ensembles that chunk (all
suspended, they would drop it: the policy then makes an ``idle`` query); the
members then split by action (identity, else ``==`` plus each zero's sign):
the first part keeps the policy, others fork it, each steps the shared state.
A member whose action is the first member's own object joins the first part
at once, without scanning the parts; in a clean loop that is every member.
:func:`run_closed_loop_episode` is still called once per (cell, seed), cells
outer and seeds inner, and hands a cell over by its index.  It steps only the
group holding the cell (cell-major, its first member); the other groups park.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

from . import sim, tasks
from .ensemble import (SPREAD_MODES, SUSPENDING_MODES, Action, EnsembleConfig, EnsembleMode,
                       EnsembleState, ensemble_action)
from .policy import DisturbanceConfig, ScriptedPolicy
from .trajectory import DemoTrajectory, ValidationError, augment_segmentwise, require_integer

HORIZON_SLACK = 120   # extra control steps past the paced waypoint budget
STEPS_PER_WAYPOINT = 6  # horizon budget; covers the slowest (largest-scale) warps
Z95 = 1.959963984540054  # standard normal quantile of a two-sided 95% interval


@dataclass(frozen=True)
class CellResult:
    mode: EnsembleMode
    beta: float
    k_cutoff: float
    episodes: int
    successes: int

    @property
    def rate(self) -> float:
        return 0.0 if self.episodes == 0 else self.successes / self.episodes

    def interval(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.episodes)


@dataclass(frozen=True)
class EvalReport:
    task: tasks.TaskKind
    n_episodes: int
    seeds: tuple[int, ...]
    cells: tuple[CellResult, ...]


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at 95% (``Z95``).

    Defined for integer counts ``0 <= successes <= n``: a bool or a
    non-integral count raises ``ValidationError``, and an integer count out
    of that range ``ValueError``.
    With no trials (``n == 0``) the interval is the whole of ``(0.0, 1.0)``.
    At 0/n and n/n the interval is returned in closed form,
    ``(0, z²/(n+z²))`` and ``(n/(n+z²), 1)`` (Brown, Cai & DasGupta,
    *Interval Estimation for a Binomial Proportion*, Stat. Sci. 2001), so
    the endpoint at the observed extreme is exactly 0.0 or 1.0 rather than
    ``center ± half`` rounded to a neighbouring float.
    """
    for name, count in (("successes", successes), ("n", n)):
        if isinstance(count, bool) or not isinstance(count, Integral):
            raise ValidationError(f"wilson_interval {name} must be an integer, got {count!r}")
    if not 0 <= successes <= n:
        raise ValueError(f"wilson_interval needs 0 <= successes <= n, "
                         f"got successes={successes}, n={n}")
    if n == 0:
        return (0.0, 1.0)
    z2 = Z95 * Z95
    if successes == 0:
        return (0.0, z2 / (n + z2))
    if successes == n:
        return (n / (n + z2), 1.0)
    p = successes / n
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


ABLATION_MODES = (EnsembleMode.BASELINE, EnsembleMode.RESET_ONLY,
                  EnsembleMode.DYNAMIC_K, EnsembleMode.COMBINED)
ABLATION_BETAS = (0.25, 0.5, 1.0)


def default_matrix(betas=ABLATION_BETAS, modes=ABLATION_MODES, k_cutoffs=None,
                   base: EnsembleConfig = EnsembleConfig()) -> list[EnsembleConfig]:
    """The ablation matrix: per mode, in the order given, one cell per swept value.

    Each cell is ``replace(base, mode=..., beta=..., k_cutoff=...)``.  beta is
    swept only for the modes whose temperature follows the spread, k_cutoff
    only for the modes that can suspend; every other cell keeps the base's
    value.  ``k_cutoffs=None`` sweeps the base's cutoff alone.
    """
    k_cutoffs = (base.k_cutoff,) if k_cutoffs is None else k_cutoffs
    cells = []
    for mode in map(EnsembleMode, modes):
        for beta in betas if mode in SPREAD_MODES else (base.beta,):
            for k_cutoff in k_cutoffs if mode in SUSPENDING_MODES else (base.k_cutoff,):
                cells.append(replace(base, mode=mode, beta=beta, k_cutoff=k_cutoff))
    return cells


def prepare_episode(task, demo: DemoTrajectory, seed: int,
                    ws: tasks.Workspace = tasks.Workspace(),
                    disturbances: DisturbanceConfig = DisturbanceConfig()):
    """The part of a seed's episode that no cell changes: (scene, warped demo,
    the predictor's disturbances seeded for this seed)."""
    task = tasks.as_task(task)
    seeded = replace(disturbances, seed=sim.scene_seed_for(seed, 1))   # checks the seed
    scene = tasks.sample_scene(task, ws, seed)
    aug = augment_segmentwise(demo, tasks.anchors_for_scene(task, demo, scene))
    return scene, aug, seeded


def _same_bits(a: Action, b: Action) -> bool:
    """One object, or equal with each zero of the same sign (no Action is NaN)."""
    if a is b:
        return True
    u, v = (*a.pos, a.gripper), (*b.pos, b.gripper)
    return u == v and all(x or math.copysign(1, x) == math.copysign(1, y) for x, y in zip(u, v))


class SeedRun:
    """Every cell's episode on a seed it prepares itself, in lockstep groups; a
    cell is handed over once, by its index, stepping only the group holding it."""

    def __init__(self, task, demo: DemoTrajectory, seed: int, cfgs, ws=tasks.Workspace(),
                 ctrl=sim.ControllerConfig(), disturbances=DisturbanceConfig(),
                 spec=tasks.SuccessSpec()):
        scene, aug, seeded = prepare_episode(task, demo, seed, ws, disturbances)
        self.task, self.scene, self.ctrl, self.spec = task, scene, ctrl, spec
        self.horizon = STEPS_PER_WAYPOINT * len(aug.waypoints) + HORIZON_SLACK
        by_len: dict[int, list] = {}
        for cell, cfg in enumerate(cfgs):
            by_len.setdefault(cfg.chunk_len, []).append((cell, EnsembleState(cfg, aug.g_max)))
        # (policy, state, step, settled, [(cell, EnsembleState)], its ensembled action or None)
        self._parked = [(ScriptedPolicy(aug, n, seeded, ctrl), sim.initial_state(aug, scene),
                         0, 0, members, None) for n, members in by_len.items()]
        self._results: dict[int, tuple] = {}

    def result(self, cell: int):
        """(success, diagnostics) of cell ``cell``; ValueError if not left to hand over."""
        while cell not in self._results:
            group = next((g for g in self._parked if any(i == cell for i, _ in g[4])), None)
            if group is None:
                raise ValueError(f"cell {cell} is not left to hand over")
            self._parked.remove(group)
            self._run(*group)
        return self._results.pop(cell)

    def _run(self, policy, state, t, settled, members, action) -> None:
        """Step a group to its end, parking parts whose action leaves the first member's."""
        ctrl, horizon, settle_steps = self.ctrl, self.horizon, self.ctrl.settle_steps
        es = members[0][1]
        while True:
            if action is None:
                if es.suspended is not None and all(m.suspended is not None for _, m in members):
                    policy.idle(state.ee_pos)
                else:
                    chunk = policy.predict(state.ee_pos, t)
                    for _, m in members:
                        m.submit(chunk)
                action = ensemble_action(es, t)
                if len(members) > 1:
                    kept = [members[0]]
                    parts = [(action, kept)]
                    for member in members[1:]:
                        other = ensemble_action(member[1], t)
                        part = kept if other is action else \
                            next((p for a, p in parts if _same_bits(a, other)), [])
                        if not part:
                            parts.append((other, part))
                        part.append(member)
                    for other, part in parts[1:]:
                        self._parked.append((policy.fork(), state, t, settled, part, other))
                    members = kept
            state = sim.step(state, action, ctrl)
            action = None
            t += 1
            # stop once the plan is exhausted and the servo has settled on its end
            settled = settled + 1 if policy.finished(state.ee_pos) else 0
            if settled >= settle_steps or t == horizon:
                ok = tasks.success(self.task, state, self.scene, self.spec)
                self._results.update((i, (ok, m.stats)) for i, m in members)
                return


def run_closed_loop_episode(run: SeedRun, cell: int):
    """Cell ``cell``'s episode of ``run``: (success, per-step diagnostics)."""
    return run.result(cell)


def closed_loop_eval(task, demo: DemoTrajectory, cfg_matrix, n_episodes: int, seeds=None,
                     ws: tasks.Workspace = tasks.Workspace(),
                     ctrl: sim.ControllerConfig = sim.ControllerConfig(),
                     disturbances: DisturbanceConfig = DisturbanceConfig(),
                     spec: tasks.SuccessSpec = tasks.SuccessSpec(),
                     diagnostics_sink=None) -> EvalReport:
    """Evaluate every config cell on the first ``n_episodes`` of ``seeds``.

    ``diagnostics_sink``, if given, receives (cfg, episode_index, seed,
    stats) per episode with the ensembler's per-step diagnostics.
    """
    require_integer("n_episodes", n_episodes, 0)
    task = tasks.as_task(task)
    if seeds is None:
        seeds = [sim.scene_seed_for(0, i) for i in range(n_episodes)]
    seeds = tuple(seeds)[:n_episodes]
    if len(seeds) < n_episodes:
        raise ValueError(f"{len(seeds)} seeds for {n_episodes} episodes")
    seeds = tuple(require_integer("seed", seed, 0) for seed in seeds)
    cfg_matrix = list(cfg_matrix)
    runs = [SeedRun(task, demo, seed, cfg_matrix, ws, ctrl, disturbances, spec) for seed in seeds]

    cells = []
    for cell, cfg in enumerate(cfg_matrix):
        successes = 0
        for i, (seed, run) in enumerate(zip(seeds, runs)):
            ok, stats = run_closed_loop_episode(run, cell)
            successes += int(ok)
            if diagnostics_sink is not None:
                diagnostics_sink(cfg, i, seed, stats)
        cells.append(CellResult(mode=cfg.mode, beta=cfg.beta, k_cutoff=cfg.k_cutoff,
                                episodes=len(seeds), successes=successes))
    return EvalReport(task=task, n_episodes=len(seeds), seeds=seeds, cells=tuple(cells))


def format_report(report: EvalReport) -> str:
    lines = [f"task: {report.task.value}   episodes per cell: {report.n_episodes}",
             f"{'mode':<12} {'beta':>6} {'k_cutoff':>9} {'rate':>8} {'95% CI':>18} {'n':>6}"]
    for c in report.cells:
        lo, hi = c.interval()
        lines.append(f"{c.mode.value:<12} {c.beta:>6.2f} {c.k_cutoff:>9g} {c.rate:>8.3f} "
                     f"[{lo:>7.3f},{hi:>7.3f}] {c.episodes:>6}")
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "task": report.task.value,
        "n_episodes": report.n_episodes,
        "seeds": list(report.seeds),
        "cells": [
            {"mode": c.mode.value, "beta": c.beta, "k_cutoff": c.k_cutoff,
             "episodes": c.episodes, "successes": c.successes, "rate": c.rate,
             "ci95": list(c.interval())}
            for c in report.cells
        ],
    }
