"""Scripted chunk predictor: a reference-tracking controller rolled forward.

Stands in for a learned chunk-predicting policy so the ensembler can be
exercised closed-loop without any training.  The predictor carries a cursor
over the reference trajectory, anchored at the waypoint nearest the first
observation and moved on by the replay controller's arrive-or-timeout rule
(``sim.advance``), with one difference: the cursor holds a waypoint it has
not reached for T + 1 queries, where replay and rollout hold it for T
control steps (T = ``ControllerConfig.timeout_steps``).  Each query
simulates the replay controller (``sim.servo`` and ``sim.advance``) for
chunk_len control steps from the current (possibly stale) observation and
emits the targets it would issue.  Rolling the controller forward, rather
than slicing raw waypoints, keeps predictions made on consecutive steps
time-consistent, so with no disturbances every chunk agrees exactly and the
candidate spread is zero — the same property a well-fit policy trained on
replay logs would have.

The rollout is a pure function of its start state ``(v, k, steps_on)``:
servo position, targeted waypoint and steps spent on it.  The predictor
keeps the *trail* of its last rollout, the state before each of its
chunk_len steps and after the last one.  When a query starts from exactly
the trail's second state (``==`` on the three coordinates and both ints),
the new rollout is the old one shifted by a step, so the trail drops its
head and runs one more step from its tail; otherwise it restarts from the
query's state.  Either way the same loop extends the trail to chunk_len
steps.  A hit is bit-exact: equal floats differ at most in the sign of a
zero, which no distance the advance rule tests can see, and the emitted
targets are waypoints picked by index.  In a clean closed loop the executed
action is the predicted one, so nearly every query hits and costs one servo
step instead of chunk_len; stale observations (latency) mostly miss.

Disturbance adapters then make the predictor imperfect in controlled ways:

* latency — predictions are computed from the observation ``latency``
  steps old, so candidates disagree wherever progress is uneven;
* bimodal switcher — every ``bimodal_period`` emissions the predictor
  flips between two hypotheses of where the plan stands, ``bimodal_gap``
  waypoints apart, mimicking a policy unsure whether the grasp has
  happened yet;
* noise — additive uniform position noise of amplitude ``noise``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .ensemble import Action, ActionChunk
from .sim import ControllerConfig, advance, servo
from .trajectory import DemoTrajectory


@dataclass(frozen=True)
class DisturbanceConfig:
    latency: int = 0          # steps of observation staleness
    bimodal_period: int = 0   # emissions per hypothesis; 0 disables
    bimodal_gap: int = 3      # waypoint offset between the two hypotheses
    noise: float = 0.0        # m, uniform amplitude per axis
    seed: int = 0

    def __post_init__(self):
        for name in ("latency", "bimodal_period", "bimodal_gap"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be non-negative and finite, got {self.noise}")


class ScriptedPolicy:
    """Deterministic chunk predictor tracking one reference trajectory."""

    def __init__(self, reference: DemoTrajectory, chunk_len: int = 20,
                 disturbances: DisturbanceConfig | None = None,
                 ctrl: ControllerConfig = ControllerConfig()):
        self.reference = reference
        self.chunk_len = chunk_len
        self.disturbances = disturbances or DisturbanceConfig()
        self.ctrl = ctrl
        self._positions = reference.positions()
        # read-only, so the Actions that share its rows cannot be written through
        self._positions.setflags(write=False)
        self._grippers = reference.grippers()
        self._actions = tuple(Action(pos=p, gripper=float(g))
                              for p, g in zip(self._positions, self._grippers))
        self._trail: deque[tuple[np.ndarray, int, int]] = deque()
        self._last = len(self._positions) - 1
        self._timeout_steps = ctrl.timeout_steps
        self._obs_history: list[np.ndarray] = []
        self._emissions = 0
        self._cursor: int | None = None
        self._steps_on_cursor = 0
        self._rng = np.random.default_rng(self.disturbances.seed)

    @property
    def cursor(self) -> int:
        return 0 if self._cursor is None else self._cursor

    def _effective_obs(self, ee_pos: np.ndarray) -> np.ndarray:
        self._obs_history.append(np.array(ee_pos, dtype=float))
        stale = len(self._obs_history) - 1 - self.disturbances.latency
        return self._obs_history[max(0, stale)]

    def _advance_cursor(self, obs: np.ndarray) -> None:
        if self._cursor is None:
            self._cursor = int(np.argmin(np.linalg.norm(self._positions - obs, axis=1)))
            return
        # timeout T + 1, not T: the cursor holds an unreached waypoint one
        # query longer than replay and rollout hold it, and the pinned
        # closed-loop outcomes depend on that schedule
        self._cursor, self._steps_on_cursor = advance(
            self._cursor, self._steps_on_cursor, obs, self._positions[self._cursor],
            self._last, self._timeout_steps + 1, self.ctrl.waypoint_advance_radius)

    def _hypothesis_offset(self) -> int:
        d = self.disturbances
        if d.bimodal_period <= 0:
            return 0
        return d.bimodal_gap if (self._emissions // d.bimodal_period) % 2 else 0

    def _rollout(self, obs: np.ndarray, start: int) -> list[int]:
        """Waypoint the tracking servo targets at each of chunk_len steps.

        Reuses the trail of the previous rollout when this one starts from
        its second state; see the module docstring.
        """
        ctrl, positions, last = self.ctrl, self._positions, self._last
        timeout_steps, radius = self._timeout_steps, ctrl.waypoint_advance_radius
        trail, steps_on = self._trail, self._steps_on_cursor
        if len(trail) > 1 and trail[1][1:] == (start, steps_on) and (trail[1][0] == obs).all():
            trail.popleft()
        else:
            trail.clear()
            trail.append((obs, start, steps_on))
        v, k, s_on = trail[-1]
        while len(trail) <= self.chunk_len:
            target = positions[k]
            v = servo(v, target, ctrl)
            k, s_on = advance(k, s_on, v, target, last, timeout_steps, radius)
            trail.append((v, k, s_on))
        return [k for _, k, _ in islice(trail, self.chunk_len)]

    def predict(self, ee_pos, t: int) -> ActionChunk:
        """Predicted action chunk for control steps t, t+1, ..."""
        obs = self._effective_obs(np.asarray(ee_pos, dtype=float))
        self._advance_cursor(obs)
        start = min(self._cursor + self._hypothesis_offset(), self._last)
        self._emissions += 1

        idx = self._rollout(obs, start)
        noise = self.disturbances.noise
        if noise > 0:
            pos = self._positions[idx] + self._rng.uniform(-noise, noise,
                                                           size=(self.chunk_len, 3))
            actions = tuple(Action(pos=p, gripper=float(g))
                            for p, g in zip(pos, self._grippers[idx]))
        else:
            actions = tuple(self._actions[i] for i in idx)
        return ActionChunk(emitted_at=t, actions=actions)

    def finished(self, ee_pos) -> bool:
        """Cursor at the final waypoint with the end effector settled on it."""
        if self._cursor is None or self._cursor < self._last:
            return False
        gap = float(np.linalg.norm(np.asarray(ee_pos, dtype=float) - self._positions[self._last]))
        return gap <= 2 * self.ctrl.waypoint_advance_radius
