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
  suspended and the newest chunk is executed verbatim for half a chunk
  length, carrying the controller out of the contested state.

Position and gripper width are separate modalities: each gets its own k
(the position k uses the largest per-axis deviation) and its own weighted
mean.  Because a standard deviation over a near-empty buffer is noise, the
first five steps of every buffer epoch always use the fixed temperature.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .trajectory import G_MAX_DEFAULT


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


@dataclass(frozen=True)
class Action:
    pos: np.ndarray
    gripper: float

    def __post_init__(self):
        pos = np.asarray(self.pos, dtype=float)
        if pos.shape != (3,) or not np.isfinite(pos).all():
            raise ValueError(f"Action pos must be a finite 3-vector, got {self.pos!r}")
        if not math.isfinite(self.gripper):
            raise ValueError(f"Action gripper must be finite, got {self.gripper}")
        object.__setattr__(self, "pos", pos)


@dataclass(frozen=True)
class ActionChunk:
    emitted_at: int
    actions: tuple[Action, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))


# Calibrated default for the suspension cutoff: an ``ensemble-eval
# --k-cutoffs`` sweep on the stack disturbance suite (latency 3, bimodal
# period 2, combined, beta 1) succeeded in 18, 19 and 20 of 20 episodes at
# 0.005, 0.01 and 0.02 and in 10 of 20 at 0.05; 0.01 sits mid-plateau.
# Spreads are in meters, so this fires when candidate positions disagree by
# a centimeter or so.
K_CUTOFF_DEFAULT = 0.01
K_CONST_DEFAULT = 0.01


@dataclass(frozen=True)
class EnsembleConfig:
    mode: EnsembleMode = EnsembleMode.COMBINED
    beta: float = 1.0
    k_const: float = K_CONST_DEFAULT
    k_cutoff: float = K_CUTOFF_DEFAULT
    chunk_len: int = 20
    replay_n: int | None = None          # defaults to chunk_len // 2
    warmup_steps: int = 5
    clear_after_suspend: bool = True
    g_max: float = G_MAX_DEFAULT

    def __post_init__(self):
        # a negative k_const (a temperature) would weigh older predictions more
        for name in ("beta", "k_const"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        for name in ("k_cutoff", "g_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.chunk_len < 1:
            raise ValueError("chunk_len must be >= 1")
        n = self.effective_replay_n
        if not (1 <= n <= self.chunk_len):
            raise ValueError(f"replay_n {n} outside [1, {self.chunk_len}]")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if not isinstance(self.mode, EnsembleMode):
            object.__setattr__(self, "mode", EnsembleMode(self.mode))

    @property
    def effective_replay_n(self) -> int:
        return self.chunk_len // 2 if self.replay_n is None else self.replay_n


class ChunkBuffer:
    """Ring of the most recent chunks, at most one per emission step."""

    def __init__(self, chunk_len: int):
        self.chunk_len = chunk_len
        self._chunks: deque[ActionChunk] = deque(maxlen=chunk_len)

    def __len__(self) -> int:
        return len(self._chunks)

    def push(self, chunk: ActionChunk) -> None:
        if self._chunks and chunk.emitted_at <= self._chunks[-1].emitted_at:
            raise ValueError(
                f"chunk emitted_at {chunk.emitted_at} not after {self._chunks[-1].emitted_at}")
        if len(chunk.actions) != self.chunk_len:
            raise ValueError(
                f"chunk length {len(chunk.actions)} != buffer chunk_len {self.chunk_len}")
        self._chunks.append(chunk)

    def clear(self) -> None:
        self._chunks.clear()

    def covering(self, t: int) -> list[ActionChunk]:
        """Chunks holding a prediction for step t, oldest first."""
        return [c for c in self._chunks if 0 <= t - c.emitted_at < self.chunk_len]

    def newest(self) -> ActionChunk:
        if not self._chunks:
            raise EmptyBuffer("buffer is empty")
        return self._chunks[-1]


def candidates(buffer: ChunkBuffer, t: int) -> tuple[list[Action], list[int]]:
    """Every stored prediction for step t and its age in steps, oldest chunk first."""
    chunks = buffer.covering(t)
    if not chunks:
        raise EmptyBuffer(f"no chunk covers step {t}")
    ages = [t - c.emitted_at for c in chunks]
    return [c.actions[age] for c, age in zip(chunks, ages)], ages


def _spread(values: np.ndarray) -> np.ndarray:
    """Population standard deviation per column, exactly zero on agreement.

    Values are shifted by the first row before the moment computation so
    identical candidates yield deviations of exactly 0.0 rather than
    rounding dust.
    """
    shifted = values - values[0]
    centered = shifted - shifted.mean(axis=0)
    return np.sqrt((centered * centered).mean(axis=0))


def compute_k(cands: list[Action], beta: float) -> tuple[float, float]:
    """Spread-proportional temperatures (position, gripper).

    The position temperature takes the largest per-axis standard deviation;
    the gripper temperature uses the gripper-width standard deviation.
    Both scale linearly in beta.
    """
    if len(cands) < 2:
        raise InsufficientCandidates(f"need >= 2 candidates, got {len(cands)}")
    pos = np.array([c.pos for c in cands])
    grip = np.array([[c.gripper] for c in cands])
    k_p = beta * float(np.max(_spread(pos)))
    k_g = beta * float(_spread(grip)[0])
    return k_p, k_g


def decay_weights(ages, k: float) -> np.ndarray:
    """Normalized exp(-k * age) weights; age is in control steps."""
    w = np.exp(-k * np.asarray(ages, dtype=float))
    return w / w.sum()


def _weighted_action(cands: list[Action], ages, k_p: float, k_g: float,
                     g_max: float) -> Action:
    # Means are anchored at the first candidate so unanimous candidates
    # reproduce their action exactly, free of weight-normalization dust.
    pos = np.array([c.pos for c in cands])
    grip = np.array([c.gripper for c in cands])
    wp = decay_weights(ages, k_p)
    wg = decay_weights(ages, k_g)
    out_pos = pos[0] + wp @ (pos - pos[0])
    gripper = float(np.clip(grip[0] + wg @ (grip - grip[0]), 0.0, g_max))
    return Action(pos=out_pos, gripper=gripper)


@dataclass(frozen=True)
class StepDiagnostics:
    t: int
    mode_used: str            # warmup | baseline | fixed_k | dynamic_k | trigger | suspended
    candidate_count: int
    k_p: float
    k_g: float
    triggered: bool = False
    suspended_from: int | None = None   # emission step of the replayed chunk


@dataclass(frozen=True)
class EnsembleResult:
    action: Action
    diagnostics: StepDiagnostics


@dataclass
class _Suspension:
    chunk: ActionChunk
    steps_remaining: int


@dataclass
class EnsembleState:
    """Mutable per-control-loop state: buffer, suspension, diagnostics."""

    buffer: ChunkBuffer
    suspension: _Suspension | None = None
    epoch_step: int = 0
    stats: list[StepDiagnostics] = field(default_factory=list)

    @classmethod
    def for_config(cls, cfg: EnsembleConfig) -> "EnsembleState":
        return cls(buffer=ChunkBuffer(cfg.chunk_len))

    def submit(self, chunk: ActionChunk) -> bool:
        """Offer a freshly predicted chunk; discarded while suspended.

        Returns True if the chunk was buffered.
        """
        if self.suspension is not None:
            return False
        self.buffer.push(chunk)
        return True


def _suspended_output(state: EnsembleState, t: int, cfg: EnsembleConfig) -> EnsembleResult:
    susp = state.suspension
    offset = t - susp.chunk.emitted_at
    action = susp.chunk.actions[offset]
    susp.steps_remaining -= 1
    diag = StepDiagnostics(t=t, mode_used="suspended", candidate_count=0,
                           k_p=math.nan, k_g=math.nan,
                           suspended_from=susp.chunk.emitted_at)
    if susp.steps_remaining <= 0:
        state.suspension = None
        if cfg.clear_after_suspend:
            state.buffer.clear()
            state.epoch_step = 0
    state.stats.append(diag)
    return EnsembleResult(action=action, diagnostics=diag)


def _enter_suspension(state: EnsembleState, t: int, cfg: EnsembleConfig,
                      k_p: float, k_g: float, n_cands: int) -> EnsembleResult:
    chunk = state.buffer.newest()
    offset = t - chunk.emitted_at
    if offset < 0 or offset >= cfg.chunk_len:
        raise EmptyBuffer(f"newest chunk does not cover step {t}")
    action = chunk.actions[offset]
    remaining = cfg.effective_replay_n - 1
    if remaining > 0:
        state.suspension = _Suspension(chunk=chunk, steps_remaining=remaining)
    elif cfg.clear_after_suspend:
        state.buffer.clear()
        state.epoch_step = 0
    diag = StepDiagnostics(t=t, mode_used="trigger", candidate_count=n_cands,
                           k_p=k_p, k_g=k_g, triggered=True,
                           suspended_from=chunk.emitted_at)
    state.stats.append(diag)
    return EnsembleResult(action=action, diagnostics=diag)


def ensemble_action(state: EnsembleState, t: int, cfg: EnsembleConfig) -> EnsembleResult:
    """Produce the action for step t and update the ensembling state.

    Control flow per step:

    1. an active suspension replays its chunk verbatim; when it expires the
       buffer is cleared (stale predictions dropped) and warm-up restarts;
    2. the first ``warmup_steps`` steps of a buffer epoch, and every step in
       baseline mode, use the fixed temperature for both modalities;
    3. otherwise the spread temperatures are computed; reset-capable modes
       trigger a suspension when either exceeds the cutoff, the trigger
       step itself emitting the first verbatim action;
    4. the surviving candidates are combined by age-decayed weighted mean,
       with the dynamic temperatures in dynamic modes and the fixed one in
       reset-only mode.
    """
    if state.suspension is not None:
        return _suspended_output(state, t, cfg)

    cands, ages = candidates(state.buffer, t)
    n = len(cands)

    warm = state.epoch_step < cfg.warmup_steps
    if warm or cfg.mode is EnsembleMode.BASELINE:
        action = _weighted_action(cands, ages, cfg.k_const, cfg.k_const, cfg.g_max)
        diag = StepDiagnostics(t=t, mode_used="warmup" if warm else "baseline",
                               candidate_count=n, k_p=cfg.k_const, k_g=cfg.k_const)
        state.epoch_step += 1
        state.stats.append(diag)
        return EnsembleResult(action=action, diagnostics=diag)

    k_p, k_g = compute_k(cands, cfg.beta) if n >= 2 else (0.0, 0.0)
    if cfg.mode in SUSPENDING_MODES and \
            (k_p > cfg.k_cutoff or k_g > cfg.k_cutoff):
        return _enter_suspension(state, t, cfg, k_p, k_g, n)

    if cfg.mode is EnsembleMode.RESET_ONLY:
        action = _weighted_action(cands, ages, cfg.k_const, cfg.k_const, cfg.g_max)
        mode_used = "fixed_k"
    else:
        action = _weighted_action(cands, ages, k_p, k_g, cfg.g_max)
        mode_used = "dynamic_k"
    diag = StepDiagnostics(t=t, mode_used=mode_used, candidate_count=n, k_p=k_p, k_g=k_g)
    state.epoch_step += 1
    state.stats.append(diag)
    return EnsembleResult(action=action, diagnostics=diag)
