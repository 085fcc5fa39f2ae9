"""Scripted chunk predictor: a reference-tracking controller rolled forward.

Stands in for a learned chunk-predicting policy so the ensembler can be
exercised closed-loop without any training.  The predictor carries a cursor
over the reference trajectory, anchored at the waypoint nearest the first
observation and moved on by the replay controller's arrive-or-timeout rule
(``sim.advance``), with one difference: the cursor holds a waypoint it has
not reached for T + 1 queries, where replay and rollout hold it for T
control steps (T = ``ControllerConfig.timeout_steps``).  Each query
rolls the replay controller forward chunk_len control steps from the
current (possibly stale) observation with ``sim.track``, which is
``sim.servo`` then ``sim.advance`` bit for bit, and emits the targets it
would issue.  Rolling the controller forward, rather than slicing raw
waypoints, keeps predictions made on consecutive steps time-consistent, so
with no disturbances every chunk agrees exactly and the candidate spread is
zero — the same property a well-fit policy trained on replay logs would have.

The rollout is a pure function of its start state ``(v, k, steps_on)``:
servo position as an (x, y, z) float triple, targeted waypoint and steps
spent on it.  Positions are float triples throughout, as on the rest of the
control path: the observation is ``SimState.ee_pos`` as it stands, and each
target is the reference's own waypoint, an :class:`~demoaug.trajectory.Action`
shared by every noise-free chunk.  The predictor keeps the *trail* of its last
rollout, the ``(v, k, steps_on, waypoint)`` tuple before each of its chunk_len
steps and after the last one.  A noise-free chunk is the waypoint of the first
chunk_len trail entries, taken as they stand; a noisy one adds the rows of
one ``(chunk_len, 3)`` uniform draw to their triples, one float add per
coordinate as NumPy would make it.  When a query starts from exactly the
trail's second state (tuple ``==``, which compares the three coordinates,
both ints and the same waypoint), the new rollout is the old one shifted by a
step, so the trail drops its head and runs one more step from its tail;
otherwise it restarts from the query's state.  Either way ``sim.track``
extends the trail to chunk_len steps.  A hit is bit-exact: equal floats
differ at most in the sign of a zero, which no distance the advance rule
tests can see, and the emitted targets are waypoints picked by index.
In a clean closed loop the executed action is the predicted one, so nearly
every query hits and costs one servo step instead of chunk_len; stale
observations (latency) mostly miss.

Idle queries.  When every ensembler a query feeds is suspended, the closed
loop calls :meth:`ScriptedPolicy.idle`, which is ``predict`` without the
rollout.  The stale trail it may leave is safe: the trail is a memo of the
rollout from its own head, so a later hit on it is still bit-exact.

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

import copy
import sys
from collections import deque
from dataclasses import dataclass
from itertools import islice
from operator import add, itemgetter

import numpy as np

from .ensemble import ActionChunk
from .sim import ControllerConfig, advance, track
from .tasks import _distance
from .trajectory import Action, DemoTrajectory, Waypoint, require_integer, require_real


@dataclass(frozen=True)
class DisturbanceConfig:
    latency: int = 0          # steps of observation staleness
    bimodal_period: int = 0   # emissions per hypothesis; 0 disables
    bimodal_gap: int = 3      # waypoint offset between the two hypotheses
    noise: float = 0.0        # m, uniform amplitude per axis
    seed: int = 0

    def __post_init__(self):
        for name in ("latency", "bimodal_period", "bimodal_gap"):
            object.__setattr__(self, name, require_integer(name, getattr(self, name), 0))
        object.__setattr__(self, "noise", require_real("noise", self.noise, "non-negative"))
        object.__setattr__(self, "seed", require_integer("seed", self.seed, 0))


class ScriptedPolicy:
    """Deterministic chunk predictor tracking one reference trajectory."""

    # slots, not a __dict__: fork() copies them without degrading attribute reads
    __slots__ = ("reference", "chunk_len", "disturbances", "ctrl", "_trail",
                 "_last", "_timeout_steps", "_obs_history", "_emissions", "_cursor",
                 "_steps_on_cursor", "_rng")

    def __init__(self, reference: DemoTrajectory, chunk_len: int = 20,
                 disturbances: DisturbanceConfig = DisturbanceConfig(),
                 ctrl: ControllerConfig = ControllerConfig()):
        self.reference = reference
        self.chunk_len = require_integer("chunk_len", chunk_len, 1)
        self.disturbances = disturbances
        self.ctrl = ctrl
        self._trail: deque[tuple[tuple[float, float, float], int, int, Waypoint]] = deque()
        self._last = len(reference.waypoints) - 1
        self._timeout_steps = ctrl.timeout_steps
        # the newest latency + 1 (at most sys.maxsize) observations; the oldest is acted on
        self._obs_history: deque[tuple[float, float, float]] = deque(
            maxlen=min(self.disturbances.latency + 1, sys.maxsize))
        self._emissions = 0
        self._cursor: int | None = None
        self._steps_on_cursor = 0
        self._rng = np.random.default_rng(self.disturbances.seed)

    def fork(self) -> ScriptedPolicy:
        """A copy that goes on as this policy would, independently: it owns its trail,
        observation history, counters and (with noise) Generator; the reference is shared."""
        twin = copy.copy(self)
        twin._trail = self._trail.copy()
        twin._obs_history = self._obs_history.copy()
        if self.disturbances.noise > 0:
            twin._rng = copy.deepcopy(self._rng)
        return twin

    @property
    def cursor(self) -> int:
        return 0 if self._cursor is None else self._cursor

    def _rollout(self, obs: tuple[float, float, float], start: int) -> deque:
        """The trail of a chunk_len-step servo rollout from ``obs`` on waypoint
        ``start``, reusing the previous rollout's trail when this one starts
        from its second state; see the module docstring.
        """
        waypoints = self.reference.waypoints
        trail = self._trail
        head = (obs, start, self._steps_on_cursor, waypoints[start])
        if len(trail) > 1 and trail[1] == head:
            trail.popleft()
        else:
            trail.clear()
            trail.append(head)
        track(trail, self.chunk_len + 1 - len(trail), waypoints, self._last,
              self._timeout_steps, self.ctrl)
        return trail

    def _query(self, ee_pos):
        """Every query's opening: (observation, start waypoint, noise draw or None)."""
        self._obs_history.append(tuple(ee_pos))
        obs = self._obs_history[0]
        if self._cursor is None:
            dists = [_distance(w.pos, obs) for w in self.reference.waypoints]
            self._cursor = dists.index(min(dists))   # the first nearest waypoint
        else:
            # timeout T + 1, not T: the cursor holds an unreached waypoint one
            # query longer than replay and rollout hold it, and the pinned
            # closed-loop outcomes depend on that schedule
            self._cursor, self._steps_on_cursor = advance(
                self._cursor, self._steps_on_cursor, obs,
                self.reference.waypoints[self._cursor].pos, self._last,
                self._timeout_steps + 1, self.ctrl.waypoint_advance_radius)
        d = self.disturbances
        flipped = d.bimodal_period > 0 and (self._emissions // d.bimodal_period) % 2
        start = min(self._cursor + (d.bimodal_gap if flipped else 0), self._last)
        self._emissions += 1
        noise = d.noise
        draw = self._rng.uniform(-noise, noise, size=(self.chunk_len, 3)) if noise > 0 else None
        return obs, start, draw

    def predict(self, ee_pos, t: int) -> ActionChunk:
        """Predicted action chunk for control steps t, t+1, ...

        ``ee_pos`` is the observed end-effector position, an (x, y, z) float
        triple such as ``SimState.ee_pos``.
        """
        obs, start, draw = self._query(ee_pos)
        steps = islice(self._rollout(obs, start), self.chunk_len)
        if draw is not None:
            actions = tuple(Action(tuple(map(add, a.pos, row)), a.gripper)
                            for (_, _, _, a), row in zip(steps, draw.tolist()))
        else:
            actions = tuple(map(itemgetter(3), steps))
        return ActionChunk(t, actions)

    def idle(self, ee_pos) -> None:
        """:meth:`predict` without the rollout; see Idle queries in the module docstring."""
        self._query(ee_pos)

    def finished(self, ee_pos) -> bool:
        """Cursor at the final waypoint with the end effector settled on it."""
        if self._cursor is None or self._cursor < self._last:
            return False
        end = self.reference.waypoints[self._last].pos
        return _distance(ee_pos, end) <= 2 * self.ctrl.waypoint_advance_radius
