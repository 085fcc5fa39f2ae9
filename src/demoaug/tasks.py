"""Evaluation tasks: scene randomization, anchor mapping, success tests.

Three tabletop block tasks: push (planar move to a goal on the table),
pick-and-place (move to a goal up to 0.20 m above the table), and stack
(two blocks placed in order on one goal column).  Blocks are 4 cm cubes on
a 0.70 m square workspace centered at the origin, table surface at z = 0.
"""

from __future__ import annotations

import math
from collections.abc import Sized
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .trajectory import (PICK_GOAL_Z, WORKSPACE_SIDE, AnchorPair, DemoTrajectory,
                         SegmentMismatch, ValidationError, require_real, require_triple)

BLOCK_SIZE = 0.04  # m, cube edge
MAX_REJECTS = 1000


class SamplingExhausted(ValueError):
    """Scene sampling failed the separation constraints too many times."""


class TaskKind(str, Enum):
    PUSH = "push"
    PICK_PLACE = "pick_place"
    STACK = "stack"

    @property
    def n_blocks(self) -> int:
        return 2 if self is TaskKind.STACK else 1


def as_task(value) -> TaskKind:
    return value if isinstance(value, TaskKind) else TaskKind(str(value))


@dataclass(frozen=True)
class Workspace:
    """Square x/y extent centered at the origin; pick goals span a z band,
    stored as a (lo, hi) float pair."""

    side: float = WORKSPACE_SIDE
    pick_goal_z: tuple[float, float] = PICK_GOAL_Z

    def __post_init__(self):
        object.__setattr__(self, "side", require_real("workspace side", self.side, "positive"))
        if not (isinstance(self.pick_goal_z, Sized) and len(self.pick_goal_z) == 2):
            raise ValidationError(f"pick_goal_z must be two reals, got {self.pick_goal_z!r}")
        lo, hi = (require_real("pick_goal_z", z) for z in self.pick_goal_z)
        if hi < lo:
            raise ValidationError(f"pick_goal_z is inverted: lower end {lo} above upper end {hi}")
        object.__setattr__(self, "pick_goal_z", (lo, hi))

    @property
    def half(self) -> float:
        return self.side / 2.0


@dataclass(frozen=True)
class Scene:
    """Block start/goal layout, random (``sample_scene``) or recorded.
    Block ``i`` starts at ``block_starts[i]`` and belongs at ``block_goals[i]``;
    each row is stored as an (x, y, z) float triple."""

    block_starts: tuple[tuple[float, float, float], ...]
    block_goals: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        for name in ("block_starts", "block_goals"):
            object.__setattr__(self, name, tuple(
                require_triple(f"Scene {name} row {i}", row)
                for i, row in enumerate(getattr(self, name))))
        if len(self.block_starts) != len(self.block_goals):
            raise ValueError(f"Scene has {len(self.block_starts)} block_starts but "
                             f"{len(self.block_goals)} block_goals")


@dataclass(frozen=True)
class SuccessSpec:
    """Distance-to-goal cutoffs, applied to every block in the scene."""

    push: float = 0.05
    pick_place: float = 0.05
    stack: float = 0.04

    def __post_init__(self):
        for f in fields(self):  # one positive cutoff per task, named by its value
            object.__setattr__(self, f.name, require_real(
                f"success cutoff {f.name}", getattr(self, f.name), "positive"))

    def threshold(self, task) -> float:
        return getattr(self, as_task(task).value)


def _distance(p, q) -> float:
    """Euclidean distance between two 2- or 3-sequences of floats, taken as
    :mod:`~demoaug.sim` takes lengths: ``math.sqrt`` of the explicit
    left-to-right ``x*x + y*y (+ z*z)``.  ``np.linalg.norm`` is a
    BLAS ``ddot``, which rounds as the machine's kernel does."""
    total = 0.0
    for a, b in zip(p, q):
        total += (a - b) * (a - b)
    return math.sqrt(total)


def _xy(rng: np.random.Generator, ws: Workspace) -> tuple[float, float]:
    return tuple(rng.uniform(-ws.half, ws.half, size=2).tolist())


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
        if task is not TaskKind.STACK:
            # push goals rest on the table; a pick goal's z is drawn after its x, y
            start = (*_xy(rng, ws), rest_z)
            goal = (*_xy(rng, ws),
                    rest_z if task is TaskKind.PUSH else rng.uniform(*ws.pick_goal_z))
            if _distance(start, goal) < min_sep:
                continue
            return Scene(block_starts=(start,), block_goals=(goal,))
        # stack: two starts plus one goal column, lower then upper goal
        s1 = (*_xy(rng, ws), rest_z)
        s2 = (*_xy(rng, ws), rest_z)
        col = _xy(rng, ws)
        if _distance(s1, s2) < min_sep:
            continue
        if _distance(s1[:2], col) < min_sep or _distance(s2[:2], col) < min_sep:
            continue
        goals = ((*col, rest_z), (*col, rest_z + BLOCK_SIZE))
        return Scene(block_starts=(s1, s2), block_goals=goals)
    raise SamplingExhausted(
        f"no valid {task.value} scene in {MAX_REJECTS} draws; workspace too small?")


def anchors_for_scene(task, demo: DemoTrajectory, scene: Scene) -> list[AnchorPair]:
    """Pair each segment's recorded endpoints with the scene's start/goal
    for the block that segment manipulates (segment i moves block i).
    A demo recorded for another task raises ValidationError."""
    task = as_task(task)
    if len(demo.segments) != task.n_blocks:
        raise SegmentMismatch(
            f"{task.value} expects {task.n_blocks} segment(s), demo has {len(demo.segments)}")
    if len(scene.block_starts) != task.n_blocks:
        raise SegmentMismatch(
            f"{task.value} expects {task.n_blocks} block(s), scene has {len(scene.block_starts)}")
    if demo.task != task.value:
        raise ValidationError(f"demo task is {demo.task!r}, not {task.value!r}")
    return [AnchorPair(r_s=seg.anchor_start, r_g=seg.anchor_goal,
                       g_s=scene.block_starts[i], g_g=scene.block_goals[i])
            for i, seg in enumerate(demo.segments)]


def recorded_scene(demo: DemoTrajectory) -> Scene:
    """Scene matching the demo's own annotations (for identity replays)."""
    return Scene(block_starts=tuple(s.anchor_start for s in demo.segments),
                 block_goals=tuple(s.anchor_goal for s in demo.segments))


def success(task, final_state, scene: Scene, spec: SuccessSpec = SuccessSpec()) -> bool:
    """Every block within the task's cutoff of its goal at the final step."""
    task = as_task(task)
    cutoff = spec.threshold(task)
    for block, goal in zip(final_state.blocks, scene.block_goals):
        if _distance(block, goal) > cutoff:
            return False
    return True
