"""Evaluation tasks: scene randomization, anchor mapping, success tests.

Three tabletop block tasks: push (planar move to a goal on the table),
pick-and-place (move to a goal up to 0.20 m above the table), and stack
(two blocks placed in order on one goal column).  Blocks are 4 cm cubes on
a 0.70 m square workspace centered at the origin, table surface at z = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .trajectory import AnchorPair, DemoTrajectory, SegmentMismatch

BLOCK_SIZE = 0.04  # m, cube edge
MAX_REJECTS = 1000


class SamplingExhausted(RuntimeError):
    """Scene sampling failed the separation constraints too many times."""


class TaskKind(str, Enum):
    PUSH = "push"
    PICK_PLACE = "pick_place"
    STACK = "stack"

    @property
    def n_blocks(self) -> int:
        return 2 if self is TaskKind.STACK else 1

    @property
    def n_segments(self) -> int:
        return 2 if self is TaskKind.STACK else 1


def as_task(value) -> TaskKind:
    return value if isinstance(value, TaskKind) else TaskKind(str(value))


@dataclass(frozen=True)
class Workspace:
    """Square x/y extent centered at the origin; pick goals span a z band."""

    side: float = 0.70
    pick_goal_z: tuple[float, float] = (0.0, 0.20)

    def __post_init__(self):
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"workspace side must be positive and finite, got {self.side}")
        lo, hi = self.pick_goal_z
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"pick_goal_z must be finite, got {self.pick_goal_z}")
        if hi < lo:
            raise ValueError("pick goal z range is inverted")

    @property
    def half(self) -> float:
        return self.side / 2.0


@dataclass(frozen=True)
class Scene:
    """Randomized block start/goal layout, fully determined by its seed."""

    block_starts: tuple
    block_goals: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "block_starts",
                           tuple(np.asarray(p, dtype=float) for p in self.block_starts))
        object.__setattr__(self, "block_goals",
                           tuple(np.asarray(p, dtype=float) for p in self.block_goals))


@dataclass(frozen=True)
class SuccessSpec:
    """Distance-to-goal cutoffs, applied to every block in the scene."""

    push: float = 0.05
    pick_place: float = 0.05
    stack: float = 0.04

    def __post_init__(self):
        for name in ("push", "pick_place", "stack"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"success cutoff {name} must be positive and finite, "
                                 f"got {value}")

    def threshold(self, task) -> float:
        return {TaskKind.PUSH: self.push,
                TaskKind.PICK_PLACE: self.pick_place,
                TaskKind.STACK: self.stack}[as_task(task)]


def _xy(rng: np.random.Generator, ws: Workspace) -> np.ndarray:
    return rng.uniform(-ws.half, ws.half, size=2)


def sample_scene(task, ws: Workspace = Workspace(), rng_seed: int = 0) -> Scene:
    """Sample a random scene for the task; deterministic given the seed.

    Uniform over the workspace with rejection until the separation
    constraints hold: block starts at least two block widths apart, every
    start at least two block widths from its goal, and (for stack) the goal
    column clear of both starts.
    """
    task = as_task(task)
    rng = np.random.default_rng(rng_seed)
    rest_z = BLOCK_SIZE / 2.0
    min_sep = 2.0 * BLOCK_SIZE

    for _ in range(MAX_REJECTS):
        if task is TaskKind.PUSH:
            start = np.append(_xy(rng, ws), rest_z)
            goal = np.append(_xy(rng, ws), rest_z)
            if np.linalg.norm(start - goal) < min_sep:
                continue
            return Scene(block_starts=(start,), block_goals=(goal,), seed=rng_seed)
        if task is TaskKind.PICK_PLACE:
            start = np.append(_xy(rng, ws), rest_z)
            goal = np.append(_xy(rng, ws), rng.uniform(*ws.pick_goal_z))
            if np.linalg.norm(start - goal) < min_sep:
                continue
            return Scene(block_starts=(start,), block_goals=(goal,), seed=rng_seed)
        # stack: two starts plus one goal column, lower then upper goal
        s1 = np.append(_xy(rng, ws), rest_z)
        s2 = np.append(_xy(rng, ws), rest_z)
        col = _xy(rng, ws)
        if np.linalg.norm(s1 - s2) < min_sep:
            continue
        if np.linalg.norm(s1[:2] - col) < min_sep or np.linalg.norm(s2[:2] - col) < min_sep:
            continue
        goals = (np.append(col, rest_z), np.append(col, rest_z + BLOCK_SIZE))
        return Scene(block_starts=(s1, s2), block_goals=goals, seed=rng_seed)
    raise SamplingExhausted(
        f"no valid {task.value} scene in {MAX_REJECTS} draws; workspace too small?")


def anchors_for_scene(task, demo: DemoTrajectory, scene: Scene) -> list[AnchorPair]:
    """Pair each segment's recorded endpoints with the scene's start/goal
    for the block that segment manipulates (segment i moves block i)."""
    task = as_task(task)
    if len(demo.segments) != task.n_segments:
        raise SegmentMismatch(
            f"{task.value} expects {task.n_segments} segment(s), demo has {len(demo.segments)}")
    if len(scene.block_starts) != task.n_blocks:
        raise SegmentMismatch(
            f"{task.value} expects {task.n_blocks} block(s), scene has {len(scene.block_starts)}")
    return [AnchorPair(r_s=seg.anchor_start, r_g=seg.anchor_goal,
                       g_s=scene.block_starts[i], g_g=scene.block_goals[i])
            for i, seg in enumerate(demo.segments)]


def recorded_scene(demo: DemoTrajectory, seed: int = 0) -> Scene:
    """Scene matching the demo's own annotations (for identity replays)."""
    return Scene(block_starts=tuple(s.anchor_start for s in demo.segments),
                 block_goals=tuple(s.anchor_goal for s in demo.segments),
                 seed=seed)


def success(task, final_state, scene: Scene, spec: SuccessSpec = SuccessSpec()) -> bool:
    """Every block within the task's cutoff of its goal at the final step."""
    task = as_task(task)
    cutoff = spec.threshold(task)
    for block, goal in zip(final_state.blocks, scene.block_goals):
        if np.linalg.norm(block - goal) > cutoff:
            return False
    return True
