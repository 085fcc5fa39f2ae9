"""Kinematic surrogate simulator and trajectory replay.

No contact dynamics: the end effector is a velocity-clamped proportional
servo (:func:`servo`) that tracks one waypoint at a time and moves past it
by the arrive-or-timeout rule of :func:`advance`; the scripted predictor in
``policy`` rolls the two forward fused, bit for bit, in :func:`track`.
Grasping is an attach/detach rule keyed to the gripper width crossing the
block width, and released blocks drop straight down onto the nearest support
(table or another block).  This keeps the parts of the task that
augmentation quality and ensembling actually influence — grasp timing and
placement accuracy — while staying cheap enough to replay thousands of
trajectories.

State layout (:class:`SimState`): ``ee_pos``, an (x, y, z) triple of Python
floats, ``gripper``, ``blocks``, a tuple of such triples (block centers in
scene order), ``held`` (index of the one block bound to the end effector, or
None), ``grasp_offset``, the triple of that block's offset from the end
effector (None when nothing is held) and ``time``.  Positions are float
triples everywhere on the control path, as :class:`~demoaug.trajectory.Action`
targets are, so a step converts nothing.  States are never mutated:
:func:`step` returns a new state, which reuses each block row that did not
move, so a replay keeps its states as the episode record and serialises them
only when a dataset is written.

Episode record (:class:`EpisodeRecord`): the state before each control step
and the step's action.  A replay's action is the warped demo's own waypoint,
so every step on a waypoint holds that one object, whose text the dataset
writer then reuses.

Settling.  Every state the module produces has its unheld blocks at rest.
:func:`initial_state` settles the scene (sampled scenes already rest), and
:func:`step` settles only when a block is held before or after the step;
with none held, blocks at rest stay so and their rows are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import tasks
from .tasks import (BLOCK_SIZE, Scene, SuccessSpec, TaskKind, as_task, sample_scene,
                    anchors_for_scene)
from .trajectory import (Action, DemoTrajectory, augment_segmentwise, require_integer,
                         require_real, segment_transforms)

SETTLE_EPS = 1e-9
# Closing the gripper binds the nearest block whose center is within these
# distances of the end effector, horizontally and vertically.
CAPTURE_RADIUS_XY = 0.02  # m
CAPTURE_RADIUS_Z = 0.02   # m


@dataclass(frozen=True)
class ControllerConfig:
    gain: float = 5.0                  # 1/s
    max_speed: float = 0.5             # m/s
    max_gripper_speed: float = 0.2     # m/s
    dt: float = 0.05                   # s
    waypoint_advance_radius: float = 0.01  # m
    waypoint_timeout: float = 2.0      # s on one waypoint before forcing advance
    settle_time: float = 0.5           # s after the final waypoint

    def __post_init__(self):
        for f in fields(self):  # every field is a positive real
            object.__setattr__(self, f.name,
                               require_real(f.name, getattr(self, f.name), "positive"))
        if self.gain * self.dt >= 2.0:
            raise ValueError(f"gain*dt = {self.gain * self.dt} >= 2 is unstable")

    @property
    def timeout_steps(self) -> int:
        """Control steps on one waypoint before the advance is forced."""
        return max(1, round(self.waypoint_timeout / self.dt))

    @property
    def settle_steps(self) -> int:
        """Control steps spent holding the final waypoint."""
        return max(1, round(self.settle_time / self.dt))


class SimState(NamedTuple):
    """Simulator state; see the module docstring for the layout."""

    ee_pos: tuple[float, float, float]
    gripper: float
    blocks: tuple[tuple[float, float, float], ...]
    held: int | None = None
    grasp_offset: tuple[float, float, float] | None = None
    time: float = 0.0


@dataclass(frozen=True)
class EpisodeRecord:
    """One replay, laid out as the module docstring says; ``goals`` is the
    scene's ``block_goals``."""

    states: tuple[SimState, ...]
    actions: tuple[Action, ...]
    success: bool
    goals: tuple[tuple[float, float, float], ...]
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Dataset:
    """Successful episodes only, plus campaign accounting."""

    task: TaskKind
    episodes: tuple[EpisodeRecord, ...]
    attempts: int
    root_seed: int
    complete: bool = True

    @property
    def successes(self) -> int:
        return len(self.episodes)

    @property
    def discard_rate(self) -> float:
        return 0.0 if self.attempts == 0 else 1.0 - self.successes / self.attempts


def _settle(rows: list[tuple[float, float, float]], held: int | None) -> None:
    """Rest every unheld block on its support (table or a block below it).

    ``rows`` is a list of (x, y, z) block triples; a block whose height
    changes gets a new triple in place, any other keeps its own.  A support
    only counts if its top is at or below the block's center, so a block two
    layers up never hoists the one beneath it; small downward
    interpenetration left by a low release is resolved upward by at most
    half a block.  Ascending-height processing keeps stacks deterministic.
    """
    half = BLOCK_SIZE / 2.0
    order = sorted(range(len(rows)), key=lambda i: (rows[i][2], i))
    for i in order:
        if i == held:
            continue
        x, y, z = rows[i]
        rest = half
        for j, (ox, oy, oz) in enumerate(rows):
            if j == i:
                continue
            top = oz + half
            if max(abs(ox - x), abs(oy - y)) <= BLOCK_SIZE and top <= z + SETTLE_EPS:
                rest = max(rest, top + half)
        if rest != z:
            rows[i] = (x, y, rest)


def servo(pos, target, ctrl: ControllerConfig) -> tuple[float, float, float]:
    """End-effector position after one control period toward ``target``.

    Velocity is gain * error, scaled down to max_speed when faster.  Both
    points are (x, y, z) float triples, and so is the result.

    No BLAS call is made on the simulated path: every length is the explicit
    left-to-right sum of squares ``x*x + y*y + z*z``, so the trajectory is
    the same on every IEEE-754 machine.  A NumPy ``vel @ vel`` is a ``ddot``
    whose rounding is the BLAS kernel's; with OpenBLAS on an FMA-capable
    x86 CPU it is the fused ``fma(z, z, fma(y, y, x*x))``, which differs
    from the sum on about a fifth of random 3-vectors, so a servo built on
    it can end a step one unit in the last place away from this one.
    """
    px, py, pz = pos
    tx, ty, tz = target
    gain = ctrl.gain
    vx = gain * (tx - px)
    vy = gain * (ty - py)
    vz = gain * (tz - pz)
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if speed > ctrl.max_speed:
        scale = ctrl.max_speed / speed
        vx *= scale
        vy *= scale
        vz *= scale
    dt = ctrl.dt
    return (px + vx * dt, py + vy * dt, pz + vz * dt)


def advance(k: int, steps_on: int, pos, target, last: int,
            timeout_steps: int, radius: float) -> tuple[int, int]:
    """Count one more step on waypoint ``k``; move past it on arrival or timeout.

    ``k`` moves on only while ``k < last``: when ``steps_on`` reaches
    ``timeout_steps`` or ``pos`` is within ``radius`` of ``target`` (float
    triples; the distance is taken as in :func:`servo`).  Returns the new
    ``(k, steps_on)``; the count restarts at 0 on a move.
    """
    steps_on += 1
    if k < last:
        if steps_on >= timeout_steps:
            return k + 1, 0
        dx = pos[0] - target[0]
        dy = pos[1] - target[1]
        dz = pos[2] - target[2]
        if math.sqrt(dx * dx + dy * dy + dz * dz) <= radius:
            return k + 1, 0
    return k, steps_on


def track(trail, steps: int, waypoints, last: int, timeout_steps: int,
          ctrl: ControllerConfig) -> None:
    """Extend ``trail``, whose entries are ``(pos, k, steps_on, waypoints[k])``,
    by ``steps`` steps of :func:`servo` then :func:`advance` from its last entry:
    the same float operations in the same order, so the same bits."""
    gain, max_speed, dt, radius = ctrl.gain, ctrl.max_speed, ctrl.dt, ctrl.waypoint_advance_radius
    (px, py, pz), k, steps_on, target = trail[-1]
    tx, ty, tz = target.pos
    append = trail.append
    for _ in range(steps):
        vx, vy, vz = gain * (tx - px), gain * (ty - py), gain * (tz - pz)
        speed = math.sqrt(vx * vx + vy * vy + vz * vz)
        if speed > max_speed:
            scale = max_speed / speed
            vx, vy, vz = vx * scale, vy * scale, vz * scale
        px, py, pz = px + vx * dt, py + vy * dt, pz + vz * dt
        steps_on += 1
        if k < last:
            dx, dy, dz = px - tx, py - ty, pz - tz
            if steps_on >= timeout_steps or math.sqrt(dx * dx + dy * dy + dz * dz) <= radius:
                k, steps_on = k + 1, 0
                target = waypoints[k]
                tx, ty, tz = target.pos
        append(((px, py, pz), k, steps_on, target))


def step(state: SimState, action: Action, cfg: ControllerConfig) -> SimState:
    """Advance one control period toward ``action.pos`` and ``action.gripper``.

    The end effector moves by :func:`servo`; the gripper slews at most
    max_gripper_speed.  Closing past the block width binds the nearest block
    within the capture radii, opening back past it releases; the held block
    keeps its offset from the end effector.  ``state`` is left untouched.
    """
    ee = servo(state.ee_pos, action.pos, cfg)
    ex, ey, ez = ee

    slew = cfg.max_gripper_speed * cfg.dt
    gripper = state.gripper + min(max(action.gripper - state.gripper, -slew), slew)

    blocks = state.blocks
    held, offset = state.held, state.grasp_offset
    if held is None and state.gripper >= BLOCK_SIZE > gripper:
        best_dist = math.inf
        for i, (bx, by, bz) in enumerate(blocks):
            dx, dy, dz = bx - ex, by - ey, bz - ez
            if (math.sqrt(dx * dx + dy * dy) <= CAPTURE_RADIUS_XY
                    and abs(dz) <= CAPTURE_RADIUS_Z):
                dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                if dist < best_dist:
                    held, best_dist = i, dist
        if held is not None:
            bx, by, bz = blocks[held]
            offset = (bx - ex, by - ey, bz - ez)
    elif held is not None and state.gripper < BLOCK_SIZE <= gripper:
        held = offset = None

    # see Settling in the module docstring
    if held is not None or state.held is not None:
        rows = list(blocks)
        if held is not None:
            ox, oy, oz = offset
            rows[held] = (ex + ox, ey + oy, ez + oz)
        _settle(rows, held)
        blocks = tuple(rows)
    return SimState(ee, gripper, blocks, held, offset, state.time + cfg.dt)


def initial_state(traj: DemoTrajectory, scene: Scene) -> SimState:
    """Start the servo on the trajectory's first waypoint, blocks at rest."""
    w0 = traj.waypoints[0]
    rows = list(scene.block_starts)
    _settle(rows, None)
    return SimState(ee_pos=w0.pos, gripper=w0.gripper, blocks=tuple(rows))


def replay(aug: DemoTrajectory, scene: Scene, cfg: ControllerConfig = ControllerConfig(),
           spec: SuccessSpec = SuccessSpec(), provenance: dict | None = None) -> EpisodeRecord:
    """Drive the servo through the trajectory's waypoints and grade the result.

    The active waypoint itself is the recorded action at every step.  It
    advances by :func:`advance`: when the end effector comes within the advance
    radius or after the per-waypoint timeout, whichever is first; after the
    final waypoint the controller holds it for the settle time.  Failures
    are recorded in the success flag, never raised.
    """
    waypoints = aug.waypoints
    n = len(waypoints)
    timeout_steps = cfg.timeout_steps

    state = initial_state(aug, scene)
    states = []
    actions = []
    k = 0
    steps_on_wp = 0
    while k < n:
        states.append(state)
        action = waypoints[k]
        actions.append(action)
        state = step(state, action, cfg)
        k, steps_on_wp = advance(k, steps_on_wp, state.ee_pos, action.pos, n,
                                 timeout_steps, cfg.waypoint_advance_radius)
    for _ in range(cfg.settle_steps):
        states.append(state)
        actions.append(waypoints[-1])
        state = step(state, waypoints[-1], cfg)

    ok = tasks.success(aug.task, state, scene, spec)
    return EpisodeRecord(states=tuple(states), actions=tuple(actions), success=ok,
                         goals=scene.block_goals, provenance=provenance or {})


def scene_seed_for(root_seed: int, attempt: int) -> int:
    """Well-mixed per-attempt scene seed, stable across platforms."""
    root_seed = require_integer("seed", root_seed, 0)
    return int(np.random.SeedSequence([root_seed, int(attempt)]).generate_state(1)[0])


def attempt_episode(demo, task, ws, cfg, spec, root_seed, attempt):
    """Sample the scene of one attempt, warp the demo onto it and replay it."""
    seed = scene_seed_for(root_seed, attempt)
    scene = sample_scene(task, ws, seed)
    anchors = anchors_for_scene(task, demo, scene)
    transforms = segment_transforms(demo, anchors)
    aug = augment_segmentwise(demo, anchors, transforms)
    provenance = {
        "attempt": attempt,
        "scene_seed": seed,
        "anchors": [{"r_s": a.r_s, "r_g": a.r_g, "g_s": a.g_s, "g_g": a.g_g}
                    for a in anchors],
        "transforms": [{"scale": t.scale, "rotation": t.rotation.tolist(),
                        "translation": t.translation.tolist(),
                        "vertical_fallback": t.vertical_fallback} for t in transforms],
    }
    return replay(aug, scene, cfg, spec, provenance=provenance)


def run_campaign(demo: DemoTrajectory, task, count: int,
                 ws: tasks.Workspace = tasks.Workspace(),
                 cfg: ControllerConfig = ControllerConfig(),
                 rng_seed: int = 0, *,
                 spec: SuccessSpec = SuccessSpec(),
                 attempt_cap: int | None = None) -> Dataset:
    """Generate augmented demonstrations until ``count`` replays succeed.

    Scenes are sampled from per-attempt seeds derived from ``rng_seed``;
    failed replays are discarded and kept episodes stay in attempt order.
    The returned dataset is ``complete`` unless the attempt cap — default
    20x ``count`` — stopped the campaign first, in which case its attempts
    equal the cap.
    """
    count = require_integer("count", count, 1)   # the dataset's complete flag compares it
    cap = require_integer("attempt_cap", attempt_cap if attempt_cap is not None else 20 * count, 1)
    task = as_task(task)
    rng_seed = require_integer("seed", rng_seed, 0)   # the dataset records it

    episodes: list[EpisodeRecord] = []
    attempts = 0
    while attempts < cap and len(episodes) < count:
        ep = attempt_episode(demo, task, ws, cfg, spec, rng_seed, attempts)
        attempts += 1
        if ep.success:
            episodes.append(ep)
    return Dataset(task=task, episodes=tuple(episodes), attempts=attempts,
                   root_seed=rng_seed, complete=len(episodes) == count)
