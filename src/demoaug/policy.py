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
from dataclasses import dataclass

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
        self._grippers = reference.grippers()
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

    def _rollout(self, obs: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Simulate the tracking servo for chunk_len steps; return its targets."""
        ctrl, positions, last = self.ctrl, self._positions, self._last
        timeout_steps, radius = self._timeout_steps, ctrl.waypoint_advance_radius
        v = obs
        k = min(start, last)
        s_on = self._steps_on_cursor
        idx = np.empty(self.chunk_len, dtype=int)
        for i in range(self.chunk_len):
            idx[i] = k
            target = positions[k]
            v = servo(v, target, ctrl)
            k, s_on = advance(k, s_on, v, target, last, timeout_steps, radius)
        return positions[idx].copy(), self._grippers[idx]

    def predict(self, ee_pos, t: int) -> ActionChunk:
        """Predicted action chunk for control steps t, t+1, ..."""
        obs = self._effective_obs(np.asarray(ee_pos, dtype=float))
        self._advance_cursor(obs)
        start = min(self._cursor + self._hypothesis_offset(), self._last)
        self._emissions += 1

        pos, grip = self._rollout(obs, start)
        if self.disturbances.noise > 0:
            pos += self._rng.uniform(-self.disturbances.noise, self.disturbances.noise,
                                     size=pos.shape)
        actions = tuple(Action(pos=p, gripper=float(g)) for p, g in zip(pos, grip))
        return ActionChunk(emitted_at=t, actions=actions)

    def finished(self, ee_pos) -> bool:
        """Cursor at the final waypoint with the end effector settled on it."""
        if self._cursor is None or self._cursor < self._last:
            return False
        gap = float(np.linalg.norm(np.asarray(ee_pos, dtype=float) - self._positions[self._last]))
        return gap <= 2 * self.ctrl.waypoint_advance_radius
