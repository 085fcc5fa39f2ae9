"""Closed-loop evaluation of ensembling modes with the scripted predictor.

Runs scripted-policy episodes through the ensembler and the kinematic
simulator for every cell of a mode/beta matrix and reports per-cell success
rates with binomial confidence intervals.  Episodes are paired across
cells: cell i and cell j see the same scenes and the same disturbance
streams for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import sim, tasks
from .ensemble import EnsembleConfig, EnsembleMode, EnsembleState, ensemble_action
from .policy import DisturbanceConfig, ScriptedPolicy
from .trajectory import DemoTrajectory, augment_segmentwise

HORIZON_SLACK = 120   # extra control steps past the paced waypoint budget
STEPS_PER_WAYPOINT = 6  # horizon budget; covers the slowest (largest-scale) warps


@dataclass(frozen=True)
class CellResult:
    mode: EnsembleMode
    beta: float
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

    def cell(self, mode, beta: float | None = None) -> CellResult:
        mode = EnsembleMode(mode)
        for c in self.cells:
            if c.mode is mode and (beta is None or c.beta == beta):
                return c
        raise KeyError(f"no cell for mode={mode.value} beta={beta}")


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default).

    Defined for ``0 <= successes <= n``; other counts raise ``ValueError``.
    With no trials (``n == 0``) the interval is the whole of ``(0.0, 1.0)``.
    At 0/n and n/n the interval is returned in closed form,
    ``(0, z²/(n+z²))`` and ``(n/(n+z²), 1)`` (Brown, Cai & DasGupta,
    *Interval Estimation for a Binomial Proportion*, Stat. Sci. 2001), so
    the endpoint at the observed extreme is exactly 0.0 or 1.0 rather than
    ``center ± half`` rounded to a neighbouring float.
    """
    if not 0 <= successes <= n:
        raise ValueError(f"wilson_interval needs 0 <= successes <= n, "
                         f"got successes={successes}, n={n}")
    if n == 0:
        return (0.0, 1.0)
    z2 = z * z
    if successes == 0:
        return (0.0, z2 / (n + z2))
    if successes == n:
        return (n / (n + z2), 1.0)
    p = successes / n
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def default_matrix(betas=(0.25, 0.5, 1.0)) -> list[EnsembleConfig]:
    """The standard ablation: baseline, reset-only, and both spread-driven
    modes swept over beta."""
    cells = [EnsembleConfig(mode=EnsembleMode.BASELINE),
             EnsembleConfig(mode=EnsembleMode.RESET_ONLY)]
    for beta in betas:
        cells.append(EnsembleConfig(mode=EnsembleMode.DYNAMIC_K, beta=beta))
    for beta in betas:
        cells.append(EnsembleConfig(mode=EnsembleMode.COMBINED, beta=beta))
    return cells


def run_closed_loop_episode(task, demo: DemoTrajectory, seed: int, cfg: EnsembleConfig,
                            ws: tasks.Workspace = tasks.Workspace(),
                            ctrl: sim.ControllerConfig = sim.ControllerConfig(),
                            disturbances: DisturbanceConfig = DisturbanceConfig(),
                            spec: tasks.SuccessSpec = tasks.SuccessSpec(),
                            collect_diagnostics: bool = False):
    """One scripted-policy episode; returns (success, diagnostics list)."""
    task = tasks.as_task(task)
    scene = tasks.sample_scene(task, ws, seed)
    anchors = tasks.anchors_for_scene(task, demo, scene)
    aug = augment_segmentwise(demo, anchors)
    policy = ScriptedPolicy(aug, cfg.chunk_len,
                            replace(disturbances, seed=sim.scene_seed_for(seed, 1)), ctrl)
    state = sim.initial_state(aug, scene)
    es = EnsembleState.for_config(cfg)

    horizon = STEPS_PER_WAYPOINT * len(aug.waypoints) + HORIZON_SLACK
    settle_steps = ctrl.settle_steps
    settled = 0
    for t in range(horizon):
        es.submit(policy.predict(state.ee_pos, t))
        result = ensemble_action(es, t, cfg)
        state = sim.step(state, (result.action.pos, result.action.gripper), ctrl)
        # stop once the plan is exhausted and the servo has settled on its end
        settled = settled + 1 if policy.finished(state.ee_pos) else 0
        if settled >= settle_steps:
            break
    ok = tasks.success(task, state, scene, spec)
    return ok, (es.stats if collect_diagnostics else [])


def closed_loop_eval(task, demo: DemoTrajectory, cfg_matrix, n_episodes: int, seeds=None,
                     ws: tasks.Workspace = tasks.Workspace(),
                     ctrl: sim.ControllerConfig = sim.ControllerConfig(),
                     disturbances: DisturbanceConfig = DisturbanceConfig(),
                     spec: tasks.SuccessSpec = tasks.SuccessSpec(),
                     diagnostics_sink=None) -> EvalReport:
    """Evaluate every config cell over the same seeded episode set.

    ``diagnostics_sink``, if given, receives (cfg, episode_index, seed,
    stats) per episode with the ensembler's per-step diagnostics.
    """
    task = tasks.as_task(task)
    if seeds is None:
        seeds = [sim.scene_seed_for(0, i) for i in range(n_episodes)]
    seeds = tuple(int(s) for s in seeds)[:n_episodes]

    cells = []
    for cfg in cfg_matrix:
        successes = 0
        for i, seed in enumerate(seeds):
            ok, stats = run_closed_loop_episode(task, demo, seed, cfg, ws, ctrl,
                                                disturbances, spec,
                                                collect_diagnostics=diagnostics_sink is not None)
            successes += int(ok)
            if diagnostics_sink is not None:
                diagnostics_sink(cfg, i, seed, stats)
        cells.append(CellResult(mode=cfg.mode, beta=cfg.beta,
                                episodes=len(seeds), successes=successes))
    return EvalReport(task=task, n_episodes=len(seeds), seeds=seeds, cells=tuple(cells))


def format_report(report: EvalReport) -> str:
    lines = [f"task: {report.task.value}   episodes per cell: {report.n_episodes}",
             f"{'mode':<12} {'beta':>6} {'rate':>8} {'95% CI':>18} {'n':>6}"]
    for c in report.cells:
        lo, hi = c.interval()
        lines.append(f"{c.mode.value:<12} {c.beta:>6.2f} {c.rate:>8.3f} "
                     f"[{lo:>7.3f},{hi:>7.3f}] {c.episodes:>6}")
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "task": report.task.value,
        "n_episodes": report.n_episodes,
        "seeds": list(report.seeds),
        "cells": [
            {"mode": c.mode.value, "beta": c.beta, "episodes": c.episodes,
             "successes": c.successes, "rate": c.rate,
             "ci95": list(c.interval())}
            for c in report.cells
        ],
    }
