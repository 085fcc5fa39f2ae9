"""Kinematic surrogate simulator and trajectory replay.

No contact dynamics: the end effector is a velocity-clamped proportional
servo (:func:`servo`) that tracks one waypoint at a time and moves past it
by the arrive-or-timeout rule of :func:`advance`; the scripted predictor in
``policy`` rolls the same two functions forward.  Grasping is an
attach/detach rule keyed to the gripper width crossing the block width, and
released blocks drop straight down onto the nearest support (table or
another block).  This keeps the parts of the task that augmentation quality
and ensembling actually influence — grasp timing and placement accuracy —
while staying cheap enough to replay thousands of trajectories.

State layout (:class:`SimState`): ``ee_pos`` (3,), ``gripper``, ``blocks``
(B, 3) block centers in scene order, ``held`` (index of the one block bound
to the end effector, or None), ``grasp_offset`` (3,) of that block from the
end effector (None when nothing is held) and ``time``.  States are never
mutated: :func:`step` copies ``blocks`` once and returns a new state, so a
replay keeps its states as the episode record and serialises them only when
a dataset is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tasks
from .tasks import (BLOCK_SIZE, Scene, SuccessSpec, TaskKind, as_task, sample_scene,
                    anchors_for_scene)
from .trajectory import DemoTrajectory, augment_segmentwise, segment_transforms

SETTLE_EPS = 1e-9
# Closing the gripper binds the nearest block whose center is within these
# distances of the end effector, horizontally and vertically.
CAPTURE_RADIUS_XY = 0.02  # m
CAPTURE_RADIUS_Z = 0.02   # m


class AttemptCapExceeded(RuntimeError):
    """Campaign hit its attempt cap before collecting enough successes.

    Carries the partial dataset in ``.dataset``.
    """

    def __init__(self, message: str, dataset: "Dataset"):
        super().__init__(message)
        self.dataset = dataset


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
        for name in ("gain", "max_speed", "max_gripper_speed", "dt",
                     "waypoint_advance_radius", "waypoint_timeout", "settle_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
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


@dataclass(frozen=True)
class SimState:
    """Simulator state; see the module docstring for the layout."""

    ee_pos: np.ndarray
    gripper: float
    blocks: np.ndarray
    held: int | None = None
    grasp_offset: np.ndarray | None = None
    time: float = 0.0


@dataclass(frozen=True)
class EpisodeRecord:
    """One replay: the state before each of its T control steps and the
    waypoint commanded at that step, ``action_pos`` (T, 3) and
    ``action_gripper`` (T,); ``goals`` is (B, 3)."""

    states: tuple[SimState, ...]
    action_pos: np.ndarray
    action_gripper: np.ndarray
    success: bool
    goals: np.ndarray
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


def _settle(blocks: np.ndarray, held: int | None) -> None:
    """Rest every unheld block on its support (table or a block below it), in place.

    A support only counts if its top is at or below the block's center, so
    a block two layers up never hoists the one beneath it; small downward
    interpenetration left by a low release is resolved upward by at most
    half a block.  Ascending-height processing keeps stacks deterministic.
    """
    half = BLOCK_SIZE / 2.0
    order = sorted(range(len(blocks)), key=lambda i: (blocks[i, 2], i))
    for i in order:
        if i == held:
            continue
        rest = half
        for j, other in enumerate(blocks):
            if j == i:
                continue
            top = other[2] + half
            overlap = float(np.max(np.abs(other[:2] - blocks[i, :2]))) <= BLOCK_SIZE
            if overlap and top <= blocks[i, 2] + SETTLE_EPS:
                rest = max(rest, top + half)
        blocks[i, 2] = rest


def servo(pos: np.ndarray, target: np.ndarray, ctrl: ControllerConfig) -> np.ndarray:
    """End-effector position after one control period toward ``target``.

    Velocity is gain * error, scaled down to max_speed when faster.

    ``vel @ vel`` is a BLAS ``ddot``, whose rounding is the BLAS kernel's.
    With the OpenBLAS 0.3.31 of the NumPy 2.4.6 wheel (SkylakeX kernel, on
    an Intel Xeon with FMA) it is a fused chain: it equalled
    ``fma(z, z, fma(y, y, x*x))`` on 3000 of 3000 random 3-vectors, while
    the left-to-right sum ``x*x + y*y + z*z`` differed on 44704 of 200000
    (uniform in [-1, 1], ``default_rng(0)``).  A pure-Python float servo is
    therefore not bit-identical to this one, and adopting one would need the
    stored benchmark references and test pins regenerated.
    """
    vel = ctrl.gain * (target - pos)
    speed = math.sqrt(vel @ vel)
    if speed > ctrl.max_speed:
        vel *= ctrl.max_speed / speed
    return pos + vel * ctrl.dt


def advance(k: int, steps_on: int, pos: np.ndarray, target: np.ndarray, last: int,
            timeout_steps: int, radius: float) -> tuple[int, int]:
    """Count one more step on waypoint ``k``; move past it on arrival or timeout.

    ``k`` moves on only while ``k < last``: when ``steps_on`` reaches
    ``timeout_steps`` or ``pos`` is within ``radius`` of ``target``.
    Returns the new ``(k, steps_on)``; the count restarts at 0 on a move.
    """
    steps_on += 1
    if k < last:
        if steps_on >= timeout_steps:
            return k + 1, 0
        d = pos - target
        if math.sqrt(d @ d) <= radius:
            return k + 1, 0
    return k, steps_on


def step(state: SimState, action, cfg: ControllerConfig) -> SimState:
    """Advance one control period toward (target position, target gripper).

    The end effector moves by :func:`servo`; the gripper slews at most
    max_gripper_speed.  Closing past the block width binds the nearest
    block within the capture radii, opening back past it releases; the
    held block keeps its offset from the end effector.  ``state`` is left
    untouched.
    """
    target_pos, target_gripper = action
    ee = servo(state.ee_pos, np.asarray(target_pos, dtype=float), cfg)

    g_step = float(np.clip(target_gripper - state.gripper,
                           -cfg.max_gripper_speed * cfg.dt, cfg.max_gripper_speed * cfg.dt))
    gripper = state.gripper + g_step

    blocks = state.blocks.copy()
    held, offset = state.held, state.grasp_offset
    if held is None and state.gripper >= BLOCK_SIZE > gripper:
        best_dist = math.inf
        for i, b in enumerate(blocks):
            dxy = float(np.linalg.norm(b[:2] - ee[:2]))
            dz = abs(float(b[2] - ee[2]))
            if dxy <= CAPTURE_RADIUS_XY and dz <= CAPTURE_RADIUS_Z:
                dist = float(np.linalg.norm(b - ee))
                if dist < best_dist:
                    held, best_dist = i, dist
        if held is not None:
            offset = blocks[held] - ee
    elif held is not None and state.gripper < BLOCK_SIZE <= gripper:
        held = offset = None

    if held is not None:
        blocks[held] = ee + offset
    _settle(blocks, held)
    return SimState(ee_pos=ee, gripper=gripper, blocks=blocks, held=held,
                    grasp_offset=offset, time=state.time + cfg.dt)


def initial_state(traj: DemoTrajectory, scene: Scene) -> SimState:
    """Start the servo on the trajectory's first waypoint, blocks at rest."""
    w0 = traj.waypoints[0]
    return SimState(ee_pos=np.array(w0.position, dtype=float), gripper=float(w0.gripper),
                    blocks=np.array(scene.block_starts, dtype=float))


def replay(aug: DemoTrajectory, scene: Scene, cfg: ControllerConfig = ControllerConfig(),
           spec: SuccessSpec = SuccessSpec(), provenance: dict | None = None) -> EpisodeRecord:
    """Drive the servo through the trajectory's waypoints and grade the result.

    The active waypoint is the recorded action at every step.  It advances
    by :func:`advance`: when the end effector comes within the advance
    radius or after the per-waypoint timeout, whichever is first; after the
    final waypoint the controller holds it for the settle time.  Failures
    are recorded in the success flag, never raised.
    """
    positions = aug.positions()
    grippers = aug.grippers()
    n = len(positions)
    timeout_steps = cfg.timeout_steps

    state = initial_state(aug, scene)
    states = []
    targets = []
    k = 0
    steps_on_wp = 0
    while k < n:
        states.append(state)
        targets.append(k)
        state = step(state, (positions[k], grippers[k]), cfg)
        k, steps_on_wp = advance(k, steps_on_wp, state.ee_pos, positions[k], n,
                                 timeout_steps, cfg.waypoint_advance_radius)
    for _ in range(cfg.settle_steps):
        states.append(state)
        targets.append(n - 1)
        state = step(state, (positions[-1], grippers[-1]), cfg)

    ok = tasks.success(aug.task, state, scene, spec)
    return EpisodeRecord(states=tuple(states), action_pos=positions[targets],
                         action_gripper=grippers[targets], success=ok,
                         goals=np.array(scene.block_goals, dtype=float),
                         provenance=provenance or {})


def scene_seed_for(root_seed: int, attempt: int) -> int:
    """Well-mixed per-attempt scene seed, stable across platforms."""
    return int(np.random.SeedSequence([int(root_seed), int(attempt)]).generate_state(1)[0])


def attempt_episode(demo, task, ws, cfg, spec, root_seed, attempt):
    """Sample the scene of one attempt, warp the demo onto it and replay it."""
    seed = scene_seed_for(root_seed, attempt)
    scene = sample_scene(task, ws, seed)
    anchors = anchors_for_scene(task, demo, scene)
    transforms = segment_transforms(demo, anchors)
    aug = augment_segmentwise(demo, anchors)
    provenance = {
        "attempt": attempt,
        "scene_seed": seed,
        "anchors": [{"r_s": a.r_s.tolist(), "r_g": a.r_g.tolist(),
                     "g_s": a.g_s.tolist(), "g_g": a.g_g.tolist()} for a in anchors],
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
    Raises AttemptCapExceeded (carrying the partial dataset) if the cap —
    default 20x ``count`` — is reached first.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    cap = attempt_cap if attempt_cap is not None else 20 * count
    if cap < 1:
        raise ValueError(f"attempt_cap must be >= 1, got {cap}")
    task = as_task(task)

    episodes: list[EpisodeRecord] = []
    attempts = 0
    while attempts < cap and len(episodes) < count:
        ep = attempt_episode(demo, task, ws, cfg, spec, rng_seed, attempts)
        attempts += 1
        if ep.success:
            episodes.append(ep)

    if len(episodes) < count:
        partial = Dataset(task=task, episodes=tuple(episodes), attempts=attempts,
                          root_seed=rng_seed, complete=False)
        raise AttemptCapExceeded(
            f"{len(episodes)}/{count} successes after {attempts} attempts "
            f"(cap {cap}); discard rate {partial.discard_rate:.2f}", partial)
    return Dataset(task=task, episodes=tuple(episodes), attempts=attempts,
                   root_seed=rng_seed, complete=True)
