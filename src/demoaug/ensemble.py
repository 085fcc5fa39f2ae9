"""Temporal ensembling of action chunks with spread-aware temperature.

A chunk predictor emits, every control step, a fixed-length sequence of
future actions.  Several past chunks therefore each hold a prediction for
the current step, and the executed action is their exponentially
age-weighted mean, weights exp(-k * age).

The fixed-temperature weighted average assumes the candidates are one
correct action plus symmetric noise.  When the predictor flips between
hypotheses (did the grasp happen yet or not?), the candidates go bimodal
and their average serves neither hypothesis.  Two countermeasures, both
driven by the per-step standard deviation of the candidates:

* dynamic temperature — k proportional to the candidate spread, so stale
  predictions fade exactly when the candidates stop agreeing;
* suspension — when the spread-derived k crosses a cutoff, ensembling is
  suspended, the newest chunk is executed verbatim for ``chunk_len // 2``
  steps, carrying the controller out of the contested state, and then the
  buffer is always cleared.

Position and gripper width are separate modalities: each gets its own k
(the position k uses the largest per-axis deviation) and its own weighted
mean.  Because a standard deviation over a near-empty buffer is noise, the
first ``WARMUP_STEPS`` (five) steps of every buffer epoch always use the
fixed temperature.  Replay length, warm-up and the clear are the design, not
settings.

State.  One :class:`EnsembleState` holds all that an ensembling loop keeps,
its config and its gripper clip (the demo's ``g_max``) included, so
``ensemble_action(state, t)`` takes no config whose chunk length could
disagree with the state's ring of chunks.

Float rule.  No NumPy call runs on the per-step path: the ensembler works on
each candidate's position, an (x, y, z) float triple (``Action.pos``), and on
its gripper width, a float.  Every sum over the candidates (a spread's mean
and mean square, the weight total, each weighted mean) is ``math.fsum``,
the correctly rounded sum of float terms, so it does not depend on a
summation order; the weights use ``math.exp``.  Two reasons.  The
suspension test compares a spread with the cutoff, and a spread can sit on
the cutoff exactly (a balanced split of the stack demo's gripper widths
0.03 and 0.08 at beta 0.5 gives k_g == 0.0125): a left-to-right sum of the
same terms lands a unit in the last place above it and triggers one step
early.  And NumPy's ``exp`` is dispatched to a SIMD kernel chosen by the
CPU; on AVX-512 it rounds two of the nineteen default-temperature weights
(ages 1 and 7) differently from ``math.exp``.

Unanimous steps.  The scripted predictor emits the warped demo's own
waypoints, so in a clean closed loop the candidates are mostly one object,
which is tested by identity.  Such a step forms no spread (it is exactly
zero), and its weighted mean is ``x0 + 0.0`` per coordinate and the clipped
``g0 + 0.0``.  When those are the shared waypoint's own bits (no coordinate
is +-0.0, and ``0 < g0 <= g_max``) the step returns the waypoint itself and
forms no sums; else it takes the weighted mean, each difference 0.0.

Chains.  In a clean closed loop each chunk is the one before it shifted by a
step: emitted one step later, its action ``a`` is the older chunk's action
``a + 1`` itself.  :meth:`EnsembleState.submit` counts such chunks in
``chain``, the number of newest buffered chunks each of which shifts the one
before it.  When the ring holds no more chunks than the chain and all of them
cover step t, every candidate is one object, the newest chunk's, and the step
reads it in O(1) instead of gathering the candidates and testing them.

Memo.  Fixed-temperature weights (warm-up, ``baseline``, ``fixed_k``) repeat
step after step and are memoized on the temperature and the ages relative to
the youngest.  A spread temperature is a new float nearly every step and is
not memoized.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import repeat
from math import fsum
from operator import is_
from typing import NamedTuple

from .trajectory import G_MAX_DEFAULT, Action, require_integer, require_real


class EmptyBuffer(LookupError):
    """No stored chunk holds a prediction for the requested step."""


class InsufficientCandidates(ValueError):
    """Spread statistics need at least two candidates."""


class EnsembleMode(str, Enum):
    BASELINE = "baseline"        # fixed temperature, no suspension
    DYNAMIC_K = "dynamic_k"      # spread-proportional temperature only
    RESET_ONLY = "reset_only"    # fixed temperature + suspension trigger
    COMBINED = "combined"        # both


SPREAD_MODES = (EnsembleMode.DYNAMIC_K, EnsembleMode.COMBINED)       # k follows the spread
SUSPENDING_MODES = (EnsembleMode.RESET_ONLY, EnsembleMode.COMBINED)  # can suspend


class ActionChunk(NamedTuple):
    emitted_at: int
    actions: tuple[Action, ...]


# Calibrated default for the suspension cutoff: an ``ensemble-eval
# --k-cutoffs`` sweep on the stack disturbance suite (latency 3, bimodal
# period 2, combined, beta 1) succeeded in 18, 19 and 20 of 20 episodes at
# 0.005, 0.01 and 0.02 and in 10 of 20 at 0.05; 0.01 sits mid-plateau.
# Spreads are in meters, so this fires when candidate positions disagree by
# a centimeter or so.
K_CUTOFF_DEFAULT = 0.01
K_CONST_DEFAULT = 0.01
WARMUP_STEPS = 5   # fixed-temperature steps at the start of every buffer epoch


@dataclass(frozen=True)
class EnsembleConfig:
    mode: EnsembleMode = EnsembleMode.COMBINED
    beta: float = 1.0
    k_const: float = K_CONST_DEFAULT
    k_cutoff: float = K_CUTOFF_DEFAULT
    chunk_len: int = 20

    def __post_init__(self):
        # a negative k_const (a temperature) would weigh older predictions more
        for name, sign in (("beta", "non-negative"), ("k_const", "non-negative"),
                           ("k_cutoff", "positive")):
            object.__setattr__(self, name, require_real(name, getattr(self, name), sign))
        # a suspension replays chunk_len // 2 steps, at least one
        object.__setattr__(self, "chunk_len", require_integer("chunk_len", self.chunk_len, 2))
        if not isinstance(self.mode, EnsembleMode):
            object.__setattr__(self, "mode", EnsembleMode(self.mode))


def candidates(state: EnsembleState, t: int) -> tuple[list[Action], list[int]]:
    """Every stored prediction for step t and its age in steps, oldest chunk first."""
    chunk_len = state.cfg.chunk_len
    cands, ages = [], []
    for chunk in state.chunks:
        age = t - chunk.emitted_at
        if 0 <= age < chunk_len:
            cands.append(chunk.actions[age])
            ages.append(age)
    if not cands:
        raise EmptyBuffer(f"no chunk covers step {t}")
    return cands, ages


def compute_k(cands: list[Action], beta: float) -> tuple[float, float]:
    """Spread-proportional temperatures (position, gripper).

    Each is beta times a population standard deviation over the candidates:
    for the position the largest of the three per-axis deviations, for the
    gripper that of the widths.  A column is first shifted by the first
    candidate's value, so candidates that agree give exactly 0.0 rather
    than rounding dust.  Its mean, and then the mean square about that
    mean, are ``fsum`` of the float terms divided by n.
    """
    n = len(cands)
    if n < 2:
        raise InsufficientCandidates(f"need >= 2 candidates, got {n}")
    deviations = []
    for column in (*zip(*[c.pos for c in cands]), [c.gripper for c in cands]):
        v0 = column[0]
        shifted = [v - v0 for v in column]
        mean = fsum(shifted) / n
        deviations.append(math.sqrt(fsum([(v - mean) * (v - mean) for v in shifted]) / n))
    return beta * max(deviations[:3]), beta * deviations[3]


def decay_weights(ages, k: float) -> list[float]:
    """Normalized exp(-k * age) weights; age is in control steps.

    Each age is taken relative to the youngest, ``exp(-k * (age - min))``,
    which normalizes to the same weights and keeps the youngest at 1.0, so
    the total cannot underflow to zero however large ``k * age`` grows.
    """
    youngest = min(ages)
    w = [math.exp(-k * (age - youngest)) for age in ages]
    total = fsum(w)
    return [x / total for x in w]


@lru_cache(maxsize=256)
def _fixed_weights(k: float, relative_ages: tuple[int, ...]) -> tuple[float, ...]:
    """``decay_weights`` memoized, for the fixed temperature only (see the
    module docstring); the weights depend only on the relative ages."""
    return tuple(decay_weights(relative_ages, k))


def _weighted_action(cands: list[Action], wp, wg, g_max: float) -> Action:
    # Means are anchored at the first candidate, each x0 + fsum(w * (x - x0)),
    # so unanimous candidates reproduce their action exactly, free of
    # weight-normalization dust.
    x0, y0, z0 = cands[0].pos
    g0 = cands[0].gripper
    xs, ys, zs = zip(*[c.pos for c in cands])
    x = x0 + fsum([w * (v - x0) for w, v in zip(wp, xs)])
    y = y0 + fsum([w * (v - y0) for w, v in zip(wp, ys)])
    z = z0 + fsum([w * (v - z0) for w, v in zip(wp, zs)])
    g = g0 + fsum([w * (c.gripper - g0) for w, c in zip(wg, cands)])
    return Action((x, y, z), min(max(g, 0.0), g_max))


class StepDiagnostics(NamedTuple):
    t: int
    mode_used: str            # warmup | baseline | fixed_k | dynamic_k | trigger | suspended
    candidate_count: int
    k_p: float
    k_g: float
    triggered: bool = False
    suspended_from: int | None = None   # emission step of the replayed chunk


class EnsembleState:
    """The whole state of one ensembling loop.

    ``cfg`` and the gripper clip ``g_max`` (the demo's) are fixed for the
    loop.  ``chunks`` is the ring of the most recent chunks, at most
    ``cfg.chunk_len``, one per emission step, oldest first.  ``chain`` counts
    the newest buffered chunks each of which is the one before it shifted by a
    step (see Chains in the module docstring): a shift adds one, any other
    buffered chunk sets it to 1, the clear after a suspension to 0, and a
    chunk dropped while suspended leaves it as it is.  ``suspended`` is the
    chunk a suspension replays verbatim, or None, and ``steps_remaining`` its
    replayed steps still to come (0 when none is); each replayed step, the
    trigger's included, reads that chunk through one check.  ``epoch_step``
    counts the ensembled steps since the ring was last cleared (for warm-up),
    and ``stats`` holds every step's :class:`StepDiagnostics`.
    """

    def __init__(self, cfg: EnsembleConfig, g_max: float = G_MAX_DEFAULT):
        self.cfg = cfg
        self.g_max = require_real("g_max", g_max, "positive")
        self.chunks: deque[ActionChunk] = deque(maxlen=cfg.chunk_len)
        self.chain = 0
        self.suspended: ActionChunk | None = None
        self.steps_remaining = 0
        self.epoch_step = 0
        self.stats: list[StepDiagnostics] = []

    def submit(self, chunk: ActionChunk) -> bool:
        """Offer a freshly predicted chunk; discarded while suspended.

        Returns True if the chunk was buffered.
        """
        if self.suspended is not None:
            return False
        emitted_at, new = chunk
        if type(emitted_at) is not int or emitted_at < 0:
            require_integer("emitted_at", emitted_at, 0)
        chunks = self.chunks
        if chunks and emitted_at <= chunks[-1].emitted_at:
            raise ValueError(f"chunk emitted_at {emitted_at} not after {chunks[-1].emitted_at}")
        if len(new) != self.cfg.chunk_len:
            raise ValueError(f"chunk length {len(new)} != chunk_len {self.cfg.chunk_len}")
        if chunks and emitted_at == chunks[-1].emitted_at + 1:
            old = chunks[-1].actions
            shifted = new[0] is old[1] and all(map(is_, new[1:-1], old[2:]))
        else:
            shifted = False
        self.chain = self.chain + 1 if shifted else 1
        chunks.append(chunk)
        return True


def ensemble_action(state: EnsembleState, t: int) -> Action:
    """Produce the action for step t, update the ensembling state and append
    the step's :class:`StepDiagnostics` to ``state.stats``.

    Control flow per step:

    1. an active suspension replays its chunk (step 5);
    2. the first ``WARMUP_STEPS`` steps of a buffer epoch, and every step in
       baseline mode, use the fixed temperature for both modalities;
    3. otherwise the spread temperatures are computed; reset-capable modes
       suspend, replaying the newest chunk from this step on (step 5), when
       either exceeds the cutoff;
    4. the surviving candidates are combined by age-decayed weighted mean,
       with the dynamic temperatures in dynamic modes and the fixed one in
       reset-only mode;
    5. every replayed step is one checked read of the chunk: one that does
       not cover t raises :class:`EmptyBuffer` and changes no state.  The
       last replayed step clears the buffer and restarts warm-up.

    A ``t`` that is not an integer, a bool included, raises ValidationError
    before any state changes; a negative one raises EmptyBuffer, as no chunk covers it.
    """
    if type(t) is not int:
        require_integer("t", t, 0)
    cfg = state.cfg
    chunk = state.suspended
    if chunk is not None:
        remaining = state.steps_remaining
        diag = StepDiagnostics(t, "suspended", 0, math.nan, math.nan, False, chunk.emitted_at)
    else:
        chunks = state.chunks
        n = len(chunks)
        if 0 < n <= state.chain and t - chunks[0].emitted_at < cfg.chunk_len \
                and t >= chunks[-1].emitted_at:
            # one shifted chain covers t: every candidate is the newest chunk's
            age = t - chunks[-1].emitted_at
            first = chunks[-1].actions[age]
            unanimous = True
            cands, ages = [first] * n, range(age + n - 1, age - 1, -1)
        else:
            cands, ages = candidates(state, t)
            n = len(cands)
            # the predictor emits the demo's own waypoints, so agreement is mostly identity
            first = cands[0]
            unanimous = all(map(is_, cands, repeat(first)))
        warm = state.epoch_step < WARMUP_STEPS
        if warm or cfg.mode is EnsembleMode.BASELINE:
            mode_used, k_p, k_g = ("warmup" if warm else "baseline"), cfg.k_const, cfg.k_const
        else:
            # compute_k of unanimous candidates is exactly (0.0, 0.0)
            k_p, k_g = (0.0, 0.0) if unanimous else compute_k(cands, cfg.beta)
            if cfg.mode in SUSPENDING_MODES and (k_p > cfg.k_cutoff or k_g > cfg.k_cutoff):
                chunk, remaining = chunks[-1], cfg.chunk_len // 2
                diag = StepDiagnostics(t, "trigger", n, k_p, k_g, True, chunk.emitted_at)
            else:
                mode_used = "fixed_k" if cfg.mode is EnsembleMode.RESET_ONLY else "dynamic_k"
        if chunk is None:
            if unanimous and all(first.pos) and 0.0 < first.gripper <= state.g_max:
                action = first   # the weighted mean's own bits; see the module docstring
            elif mode_used == "dynamic_k":
                wp = decay_weights(ages, k_p)
                wg = wp if k_g == k_p else decay_weights(ages, k_g)
                action = _weighted_action(cands, wp, wg, state.g_max)
            else:
                youngest = ages[-1]   # candidates come oldest first
                wp = _fixed_weights(cfg.k_const, tuple([a - youngest for a in ages]))
                action = _weighted_action(cands, wp, wp, state.g_max)
            state.epoch_step += 1
            state.stats.append(StepDiagnostics(t, mode_used, n, k_p, k_g))
            return action
    # the one read of a replayed chunk, checked before any state changes
    offset = t - chunk.emitted_at
    if not 0 <= offset < cfg.chunk_len:
        raise EmptyBuffer(f"replayed chunk from step {chunk.emitted_at} does not cover step {t}")
    remaining -= 1
    if remaining > 0:
        state.suspended, state.steps_remaining = chunk, remaining
    else:   # the last replayed step: drop the stale predictions and warm up again
        state.suspended, state.steps_remaining = None, 0
        state.chunks.clear()
        state.chain = state.epoch_step = 0
    state.stats.append(diag)
    return chunk.actions[offset]
