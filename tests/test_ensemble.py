import dataclasses
import math
import statistics
from fractions import Fraction
from operator import is_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoaug.ensemble import (
    K_CONST_DEFAULT, WARMUP_STEPS, Action, ActionChunk, EmptyBuffer, EnsembleConfig,
    EnsembleMode, EnsembleState, InsufficientCandidates, _fixed_weights, candidates, compute_k,
    decay_weights, ensemble_action,
)
from demoaug.evaluation import SeedRun
from demoaug.policy import DisturbanceConfig
from demoaug.trajectory import G_MAX_DEFAULT, ValidationError

L = 20


def const_chunk(emitted_at, x, gripper=0.04, length=L):
    return ActionChunk(emitted_at, tuple(Action(pos=[x, 0.0, 0.0], gripper=gripper)
                                         for _ in range(length)))


def chunk_from_rows(emitted_at, rows, grippers=None):
    grippers = grippers if grippers is not None else [0.04] * len(rows)
    return ActionChunk(emitted_at, tuple(Action(pos=r, gripper=g)
                                         for r, g in zip(rows, grippers)))


def run_stream(cfg, xs):
    """Feed one constant chunk per step with the given x values; return the
    state, whose ``stats`` hold each step's diagnostics, and the actions."""
    state = EnsembleState(cfg)
    actions = []
    for t, x in enumerate(xs):
        state.submit(const_chunk(t, x, length=cfg.chunk_len))
        actions.append(ensemble_action(state, t))
    return state, actions


def state_with(*chunks, cfg=EnsembleConfig()):
    state = EnsembleState(cfg)
    for chunk in chunks:
        assert state.submit(chunk)
    return state


class TestCandidates:
    def test_single_chunk_first_action(self):
        cands, ages = candidates(state_with(const_chunk(5, 1.0)), 5)
        assert len(cands) == 1
        assert cands[0].pos[0] == 1.0
        assert ages == [0]

    def test_two_chunks_index_mapping(self):
        rows_old = [[float(i), 0, 0] for i in range(L)]
        rows_new = [[100.0 + i, 0, 0] for i in range(L)]
        state = state_with(chunk_from_rows(4, rows_old), chunk_from_rows(5, rows_new))
        cands, ages = candidates(state, 5)
        assert [c.pos[0] for c in cands] == [1.0, 100.0]  # older first, index 1 then 0
        assert ages == [1, 0]

    def test_full_buffer(self):
        state = state_with(*[const_chunk(t, float(t)) for t in range(L)])
        cands, ages = candidates(state, L - 1)
        assert len(cands) == L
        assert ages == list(range(L - 1, -1, -1))

    def test_expired_chunks_excluded(self):
        with pytest.raises(EmptyBuffer):
            candidates(state_with(const_chunk(0, 1.0)), L)  # prediction horizon ended at L - 1

    def test_only_chunks_covering_the_step(self):
        # a chunk covers steps emitted_at .. emitted_at + L - 1: at t = 7 the
        # chunk emitted at 10 is in the future, at t = 21 the one at 0 has expired
        state = state_with(*[chunk_from_rows(e, [[e + i / 100, 0, 0] for i in range(L)])
                             for e in (0, 5, 10)])
        cands, ages = candidates(state, 7)
        assert ages == [7, 2]
        assert [c.pos[0] for c in cands] == [0.07, 5.02]
        cands, ages = candidates(state, 21)
        assert ages == [16, 11]
        assert [c.pos[0] for c in cands] == [5.16, 10.11]
        with pytest.raises(EmptyBuffer):
            candidates(state, -1)

    def test_empty(self):
        with pytest.raises(EmptyBuffer):
            candidates(state_with(), 0)

    def test_ring_keeps_the_newest_chunk_len_chunks(self):
        cfg = EnsembleConfig(chunk_len=4)
        state = state_with(*[const_chunk(t, float(t), length=4) for t in range(6)], cfg=cfg)
        assert [c.emitted_at for c in state.chunks] == [2, 3, 4, 5]


class TestSubmit:
    def test_emitted_at_must_increase(self):
        state = state_with(const_chunk(3, 0.0))
        for emitted_at in (3, 2):
            with pytest.raises(ValueError, match="not after 3"):
                state.submit(const_chunk(emitted_at, 1.0))
        assert [c.emitted_at for c in state.chunks] == [3]

    @pytest.mark.parametrize("emitted_at", [1.5, 1.0, True, "3", None, -1],
                             ids=["fraction", "integral_float", "bool", "str", "none", "negative"])
    def test_emitted_at_must_be_a_step(self, emitted_at):
        # refused where the chunk enters, not in the next ensemble_action
        for state in (EnsembleState(EnsembleConfig()), state_with(const_chunk(0, 0.0))):
            before = list(state.chunks), state.chain
            with pytest.raises(ValidationError, match="^emitted_at must be an integer"):
                state.submit(ActionChunk(emitted_at, const_chunk(0, 1.0).actions))
            assert (list(state.chunks), state.chain) == before

    def test_numpy_emitted_at_accepted(self):
        state = state_with(const_chunk(np.int64(0), 0.25), const_chunk(np.int64(1), 0.25))
        assert ensemble_action(state, 1).pos[0] == 0.25

    @pytest.mark.parametrize("length", [L - 1, L + 1])
    def test_chunk_length_must_be_chunk_len(self, length):
        state = EnsembleState(EnsembleConfig())
        with pytest.raises(ValueError, match="chunk length"):
            state.submit(const_chunk(0, 0.0, length=length))
        assert not state.chunks


class TestComputeK:
    def test_identical_candidates_exact_zero(self):
        cands = [Action(pos=[0.1, 0.1, 0.1], gripper=0.03) for _ in range(3)]
        assert compute_k(cands, 1.0) == (0.0, 0.0)

    def test_two_point_spread(self):
        cands = [Action(pos=[0.0, 0, 0], gripper=0.04),
                 Action(pos=[1.0, 0, 0], gripper=0.04)]
        k_p, k_g = compute_k(cands, 1.0)
        assert k_p == pytest.approx(0.5)  # population sigma of {0, 1}
        assert k_g == 0.0

    def test_beta_zero(self):
        cands = [Action(pos=[0.0, 0, 0], gripper=0.0),
                 Action(pos=[5.0, 0, 0], gripper=0.08)]
        assert compute_k(cands, 0.0) == (0.0, 0.0)

    def test_beta_linearity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(2, 12)
            cands = [Action(pos=rng.uniform(-1, 1, 3), gripper=rng.uniform(0, 0.08))
                     for _ in range(n)]
            k1 = compute_k(cands, 1.0)
            for beta in (0.25, 0.5, 2.0, 4.0):
                kb = compute_k(cands, beta)
                assert kb[0] == beta * k1[0]
                assert kb[1] == beta * k1[1]

    def test_linf_matches_per_axis_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            cands = [Action(pos=rng.uniform(-0.5, 0.5, 3), gripper=rng.uniform(0, 0.08))
                     for _ in range(n)]
            k_p, k_g = compute_k(cands, 1.0)
            # independent oracle: per-axis population sigma via statistics.pstdev
            per_axis = [statistics.pstdev([c.pos[axis] - cands[0].pos[axis] for c in cands])
                        for axis in range(3)]
            assert k_p == pytest.approx(max(per_axis), rel=1e-12, abs=1e-15)
            assert k_g == pytest.approx(
                statistics.pstdev([c.gripper - cands[0].gripper for c in cands]),
                rel=1e-12, abs=1e-15)

    def test_insufficient(self):
        with pytest.raises(InsufficientCandidates):
            compute_k([Action(pos=[0, 0, 0], gripper=0.0)], 1.0)


class TestEnsembleAction:
    def worked_case_state(self, cfg):
        state = EnsembleState(cfg)
        state.epoch_step = WARMUP_STEPS  # past warm-up
        state.submit(const_chunk(0, 0.0))
        state.submit(const_chunk(1, 1.0))
        return state

    def test_worked_two_candidate_case(self):
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.5)
        state = self.worked_case_state(cfg)
        action = ensemble_action(state, 1)
        diag = state.stats[-1]
        expected = 1.0 / (1.0 + math.exp(-0.5))
        assert action.pos[0] == pytest.approx(expected, abs=1e-12)
        assert diag.k_p == pytest.approx(0.5, abs=1e-15)
        assert not diag.triggered  # 0.5 is not strictly above 0.5

    def test_cutoff_below_spread_triggers(self):
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.4)
        state = self.worked_case_state(cfg)
        action = ensemble_action(state, 1)
        assert state.stats[-1].triggered
        assert action.pos[0] == 1.0  # newest chunk, verbatim
        # the next chunk_len // 2 - 1 outputs replay the same chunk
        for t in range(2, 2 + cfg.chunk_len // 2 - 1):
            state.submit(const_chunk(t, 5.0))  # discarded while suspended
            out = ensemble_action(state, t)
            assert state.stats[-1].mode_used == "suspended"
            assert out.pos[0] == 1.0

    @staticmethod
    def snapshot(state):
        return (state.suspended, state.steps_remaining, list(state.chunks), state.chain,
                state.epoch_step, len(state.stats))

    def test_trigger_needs_a_newest_chunk_that_covers_t(self):
        # the chunk emitted at 5 is buffered but does not cover t = 1: no
        # verbatim action is its actions[-4], and the refused trigger
        # changes no state
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.4)
        state = self.worked_case_state(cfg)
        state.submit(const_chunk(5, 7.0))
        before = self.snapshot(state)
        with pytest.raises(EmptyBuffer, match="replayed chunk from step 5 does not cover step 1"):
            ensemble_action(state, 1)
        assert self.snapshot(state) == before

    @pytest.mark.parametrize("t", [0, 1 + L], ids=["before_emission", "past_last_action"])
    def test_suspended_step_needs_the_replayed_chunk_to_cover_t(self, t):
        # the trigger at 1 replays the chunk emitted at 1, which covers steps
        # 1 to L only; a step outside them is refused and changes no state
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.4)
        state = self.worked_case_state(cfg)
        ensemble_action(state, 1)
        assert state.suspended is not None
        before = self.snapshot(state)
        with pytest.raises(EmptyBuffer, match=f"chunk from step 1 does not cover step {t}$"):
            ensemble_action(state, t)
        assert self.snapshot(state) == before
        assert ensemble_action(state, 2).pos[0] == 1.0   # the replay goes on

    def test_identical_candidates_exact_in_every_mode(self):
        for mode in EnsembleMode:
            cfg = EnsembleConfig(mode=mode, beta=1.0)
            state = EnsembleState(cfg)
            state.epoch_step = WARMUP_STEPS
            for t in range(4):
                state.submit(const_chunk(t, 0.125, gripper=0.0625))
            action = ensemble_action(state, 3)
            assert action.pos[0] == 0.125
            assert action.gripper == 0.0625

    def test_single_candidate_identity_in_every_mode(self):
        for mode in EnsembleMode:
            cfg = EnsembleConfig(mode=mode, beta=1.0)
            state = EnsembleState(cfg)
            state.epoch_step = WARMUP_STEPS
            state.submit(chunk_from_rows(0, [[0.3, -0.2, 0.7]] * L, [0.017] * L))
            action = ensemble_action(state, 0)
            assert tuple(action.pos) == (0.3, -0.2, 0.7)
            assert action.gripper == 0.017

    def test_empty_buffer(self):
        cfg = EnsembleConfig()
        with pytest.raises(EmptyBuffer):
            ensemble_action(EnsembleState(cfg), 0)

    @pytest.mark.parametrize("t", [True, 1.5])
    def test_step_must_be_an_integer(self, t):
        # True would run as step 1, and 1.5 would index a chunk's actions
        state = self.worked_case_state(EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0))
        before = self.snapshot(state)
        with pytest.raises(ValidationError, match="t must be an integer"):
            ensemble_action(state, t)
        assert self.snapshot(state) == before

    def test_negative_step_covered_by_no_chunk(self):
        state = self.worked_case_state(EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0))
        before = self.snapshot(state)
        with pytest.raises(EmptyBuffer):
            ensemble_action(state, -1)
        assert self.snapshot(state) == before

    def test_warmup_uses_fixed_temperature_all_modes(self):
        for mode in EnsembleMode:
            cfg = EnsembleConfig(mode=mode, beta=1.0, k_cutoff=1e-9)
            state, _ = run_stream(cfg, [0.0, 1.0, 0.0, 1.0, 0.0])
            assert len(state.stats) == 5
            for diag in state.stats:
                assert diag.mode_used == "warmup"
                assert diag.k_p == cfg.k_const

    def test_suspension_contract_and_rewarm(self):
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.01)
        xs = [0.0] * 5 + [1.0] * 25
        state, actions = run_stream(cfg, xs)
        diags = state.stats
        modes = [d.mode_used for d in diags]
        n = L // 2   # a suspension replays half a chunk
        assert modes[:5] == ["warmup"] * 5
        assert modes[5] == "trigger"
        assert diags[5].triggered
        assert diags[5].k_p > cfg.k_cutoff
        assert modes[6:5 + n] == ["suspended"] * (n - 1)
        # exactly n outputs come verbatim from the chunk emitted at 5
        for t in range(5, 5 + n):
            assert actions[t].pos[0] == 1.0
            assert diags[t].suspended_from == 5
        # new buffer epoch re-warms for 5 steps
        assert modes[5 + n:10 + n] == ["warmup"] * 5

    def test_reset_only_uses_fixed_temperature_for_means(self):
        cfg = EnsembleConfig(mode=EnsembleMode.RESET_ONLY, beta=1.0, k_cutoff=10.0)
        xs = [0.0] * 5 + [1.0] * 10
        state, _ = run_stream(cfg, xs)
        later = state.stats[-1]
        assert later.mode_used == "fixed_k"
        assert later.k_p > 0  # spread measured and reported for the trigger test

    def test_dynamic_mode_never_suspends(self):
        cfg = EnsembleConfig(mode=EnsembleMode.DYNAMIC_K, beta=1.0, k_cutoff=1e-12)
        xs = [0.0] * 5 + [1.0] * 10
        state, _ = run_stream(cfg, xs)
        assert all(d.mode_used != "suspended" for d in state.stats)
        assert all(not d.triggered for d in state.stats)

    def test_baseline_never_suspends(self):
        cfg = EnsembleConfig(mode=EnsembleMode.BASELINE, beta=1.0, k_cutoff=1e-12)
        xs = [0.0] * 5 + [1.0] * 10
        state, _ = run_stream(cfg, xs)
        assert all(not d.triggered for d in state.stats)
        assert state.stats[-1].mode_used == "baseline"


class TestAction:
    @pytest.mark.parametrize("pos", [
        [0.0, 0.0], [[0.0, 0.0, 0.0]], [0.0, 0.0, 0.0, 0.0], 0.0,
        [math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf],
    ], ids=["shape2", "shape1x3", "shape4", "scalar", "nan", "inf", "neg_inf"])
    def test_bad_pos_rejected(self, pos):
        with pytest.raises(ValueError, match="pos"):
            Action(pos=pos, gripper=0.04)

    @pytest.mark.parametrize("gripper", [math.nan, math.inf, -math.inf])
    def test_non_finite_gripper_rejected(self, gripper):
        with pytest.raises(ValueError, match="gripper"):
            Action(pos=[0.0, 0.0, 0.0], gripper=gripper)

    def test_valid_action_kept_as_float_tuple(self):
        # a list, a tuple and a (3,) array give the same triple of Python floats
        for pos in ([1, 2, 3], (1.0, 2.0, 3.0), np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])):
            a = Action(pos=pos, gripper=0)
            assert a.pos == (1.0, 2.0, 3.0)
            assert [type(x) for x in a.pos] == [float] * 3
            assert type(a.gripper) is float


class TestConfig:
    @pytest.mark.parametrize("k_const", [-1.0, -1e-12, math.nan])
    def test_negative_or_nan_k_const_rejected(self, k_const):
        with pytest.raises(ValueError, match="k_const"):
            EnsembleConfig(k_const=k_const)
        assert EnsembleConfig(k_const=0.0).k_const == 0.0

    @pytest.mark.parametrize("name, value", [
        ("beta", -1.0), ("beta", math.nan), ("beta", math.inf),
        ("k_const", math.inf),
        ("k_cutoff", 0.0), ("k_cutoff", -1.0), ("k_cutoff", math.nan), ("k_cutoff", math.inf),
    ])
    def test_bad_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            EnsembleConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("chunk_len", 2.5), ("chunk_len", True), ("chunk_len", None),
        ("chunk_len", 1), ("chunk_len", 0),
    ])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EnsembleConfig(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        assert EnsembleConfig(chunk_len=np.int64(8)).chunk_len == 8

    def test_fields_are_the_five_settings(self):
        # replay length, warm-up and the clear after a suspension are fixed
        assert [f.name for f in dataclasses.fields(EnsembleConfig)] == \
               ["mode", "beta", "k_const", "k_cutoff", "chunk_len"]
        assert WARMUP_STEPS == 5

    @pytest.mark.parametrize("g_max", [0.0, -1.0, math.nan, math.inf])
    def test_bad_gripper_clip_rejected(self, g_max):
        with pytest.raises(ValueError, match="g_max"):
            EnsembleState(EnsembleConfig(), g_max)

    def test_zero_beta_accepted(self):
        assert EnsembleConfig(beta=0.0).beta == 0.0


class TestWeights:
    def test_monotone_forgetting(self):
        ages = [0, 3, 7, 19]
        prev_ratio = None
        for k in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0):
            w = decay_weights(ages, k)
            ratio = w[0] / w[-1]  # newest over oldest
            if prev_ratio is not None:
                assert ratio > prev_ratio
            prev_ratio = ratio

    def test_normalization(self):
        w = decay_weights([0, 1, 2, 5], 0.3)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
        assert all(x > 0 for x in w)

    def test_underflow_without_an_age_zero_candidate(self):
        # exp(-1000 * age) underflows to 0.0 at ages 2 and 3; relative to the
        # youngest the weights are exp(-1000) == 0.0 and exp(0) == 1.0
        assert decay_weights([3, 2], 1000.0) == [0.0, 1.0]
        cfg = EnsembleConfig(mode="baseline", k_const=1000.0)
        state = EnsembleState(cfg)
        state.epoch_step = WARMUP_STEPS
        state.submit(const_chunk(0, 0.0))
        state.submit(const_chunk(1, 1.0))
        action = ensemble_action(state, 3)
        assert action == Action(pos=[1.0, 0.0, 0.0], gripper=0.04)  # the newest chunk's
        assert state.stats[-1].mode_used == "baseline"


class TestBimodality:
    def build_clustered_state(self, cfg, jitter_seed=0):
        """Half the buffer around x=0, half around x=1, tiny intra-cluster spread."""
        rng = np.random.default_rng(jitter_seed)
        state = EnsembleState(cfg)
        state.epoch_step = WARMUP_STEPS
        for t in range(10):
            state.submit(const_chunk(t, 0.0 + rng.uniform(-0.005, 0.005)))
        for t in range(10, 20):
            state.submit(const_chunk(t, 1.0 + rng.uniform(-0.005, 0.005)))
        return state

    def test_baseline_lands_between_clusters(self):
        cfg = EnsembleConfig(mode=EnsembleMode.BASELINE)
        state = self.build_clustered_state(cfg)
        action = ensemble_action(state, 19)
        assert 0.25 < action.pos[0] < 0.75

    def test_combined_snaps_to_newest_cluster(self):
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.01)
        state = self.build_clustered_state(cfg)
        action = ensemble_action(state, 19)
        assert state.stats[-1].triggered
        assert abs(action.pos[0] - 1.0) <= 0.01


@settings(max_examples=200, deadline=None)
@given(st.integers(1, L), st.integers(0, 2 ** 31), st.floats(0.0, 4.0))
def test_convex_hull_containment(n_chunks, seed, beta):
    rng = np.random.default_rng(seed)
    cfg = EnsembleConfig(mode=EnsembleMode.DYNAMIC_K, beta=beta)
    state = EnsembleState(cfg)
    state.epoch_step = WARMUP_STEPS
    rows_by_chunk = []
    for t in range(n_chunks):
        rows = rng.uniform(-0.5, 0.5, size=(L, 3))
        grips = rng.uniform(0.0, 0.08, size=L)
        rows_by_chunk.append((rows, grips))
        state.submit(chunk_from_rows(t, rows, grips))
    t = n_chunks - 1
    action = ensemble_action(state, t)
    cand_pos = np.array([rows[t - tau] for tau, (rows, _) in enumerate(rows_by_chunk)])
    cand_grip = np.array([grips[t - tau] for tau, (_, grips) in enumerate(rows_by_chunk)])
    eps = 1e-12
    assert np.all(np.array(action.pos) >= cand_pos.min(axis=0) - eps)
    assert np.all(np.array(action.pos) <= cand_pos.max(axis=0) + eps)
    assert cand_grip.min() - eps <= action.gripper <= cand_grip.max() + eps


def exact_sum(terms) -> float:
    """The float nearest the exact sum of float terms, rounded once."""
    return float(sum(map(Fraction, terms), Fraction(0)))


def oracle_k(cands, beta):
    """compute_k's rule: per column, shift by the first value, exact sums."""
    n = len(cands)
    columns = [[float(c.pos[axis]) for c in cands] for axis in range(3)]
    columns.append([c.gripper for c in cands])
    devs = []
    for column in columns:
        shifted = [v - column[0] for v in column]
        mean = exact_sum(shifted) / n
        devs.append(math.sqrt(exact_sum([(v - mean) * (v - mean) for v in shifted]) / n))
    return beta * max(devs[:3]), beta * devs[3]


def oracle_weights(ages, k):
    """exp(-k * age) with each age taken relative to the youngest, as
    decay_weights does, then normalized by the exact total."""
    w = [math.exp(-k * (age - min(ages))) for age in ages]
    total = exact_sum(w)
    return [x / total for x in w]


def oracle_action(cands, ages, k_p, k_g, g_max=0.08):
    """(x, y, z, gripper): each x0 + the exact sum of w * (x - x0), rounded once."""
    wp, wg = oracle_weights(ages, k_p), oracle_weights(ages, k_g)
    out = []
    for axis in range(3):
        x0 = float(cands[0].pos[axis])
        out.append(x0 + exact_sum([w * (float(c.pos[axis]) - x0) for w, c in zip(wp, cands)]))
    g0 = cands[0].gripper
    g = g0 + exact_sum([w * (c.gripper - g0) for w, c in zip(wg, cands)])
    return (*out, min(max(g, 0.0), g_max))


def bits(values):
    """float.hex of each value, which tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def same_float(a: float, b: float) -> bool:
    """Equal values with equal signs, so -0.0 and 0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def random_candidate_state(rng, cfg, n):
    """A state past warm-up whose n candidates for step L - 1 have gapped ages.

    Positions are drawn around two nearby centres, some candidates repeat an
    earlier one's values or object, and gripper widths are the stack demo's
    0.03/0.08 or uniform, so sums see cancellation and exact ties.
    """
    t = L - 1
    emitted = sorted(rng.choice(L, size=n, replace=False).tolist())
    centres = rng.uniform(-0.5, 0.5, size=(2, 1)) + [[0.0, 0.0, 0.0], [1e-3, -2e-3, 5e-4]]
    state = EnsembleState(cfg)
    state.epoch_step = WARMUP_STEPS
    made = []
    for e in emitted:
        roll = rng.random()
        if made and roll < 0.15:
            action = made[int(rng.integers(len(made)))]              # the same object
        elif made and roll < 0.3:
            prev = made[int(rng.integers(len(made)))]
            action = Action(pos=list(prev.pos), gripper=prev.gripper)  # equal values
        else:
            pos = centres[int(rng.integers(2))] + rng.normal(0, 10.0 ** rng.integers(-6, -1), 3)
            grip = (float(rng.choice([0.03, 0.08])) if rng.random() < 0.5
                    else float(rng.uniform(0.0, 0.08)))
            action = Action(pos=pos, gripper=grip)
        made.append(action)
        actions = [Action(pos=[9.0, 9.0, 9.0], gripper=0.0)] * L
        actions[t - e] = action
        state.submit(ActionChunk(e, tuple(actions)))
    return state, t


class TestExactOracle:
    """The ensembler's sums are fsum: bit for bit the correctly rounded sum."""

    @pytest.mark.parametrize("mode", [EnsembleMode.BASELINE, EnsembleMode.DYNAMIC_K])
    def test_random_candidate_sets(self, mode):
        rng = np.random.default_rng(20230918)
        cfg = EnsembleConfig(mode=mode, beta=1.0)
        seen_ages = set()
        for trial in range(300):
            n = int(rng.integers(2, L + 1))
            state, t = random_candidate_state(rng, cfg, n)
            cands, ages = candidates(state, t)
            seen_ages.update(ages)
            beta = float(rng.choice([0.25, 0.5, 1.0, 3.0]))
            k = oracle_k(cands, beta)
            assert bits(compute_k(cands, beta)) == bits(k), (trial, n, ages)
            action = ensemble_action(state, t)
            if mode is EnsembleMode.BASELINE:
                k_p = k_g = cfg.k_const
            else:
                k_p, k_g = oracle_k(cands, cfg.beta)
                diag = state.stats[-1]
                assert bits((diag.k_p, diag.k_g)) == bits((k_p, k_g))
            expected = oracle_action(cands, ages, k_p, k_g)
            got = (*action.pos, action.gripper)
            assert bits(got) == bits(expected), (trial, n, ages)
            assert bits(action.pos) == bits(expected[:3])
        assert {1, 7} <= seen_ages

    @pytest.mark.parametrize("k", [K_CONST_DEFAULT, 0.0, 0.137, 2.5])
    def test_weights_of_every_age(self, k):
        # ages 1 and 7 are where NumPy's AVX-512 exp rounds the default weights
        # differently from math.exp
        for ages in (list(range(L - 1, -1, -1)), [19, 7, 1], [7, 1, 0]):
            assert bits(decay_weights(ages, k)) == bits(oracle_weights(ages, k))

    @pytest.mark.parametrize("n", [10, 20])
    @pytest.mark.parametrize("order", ["alternating", "halves", "halves_reversed"])
    def test_balanced_gripper_split_sits_on_the_cutoff(self, n, order):
        # a left-to-right sum of the same terms gives 0.012500000000000002 or more
        # on four of these six splits, which then trigger
        widths = {"alternating": [0.03, 0.08] * (n // 2),
                  "halves": [0.03] * (n // 2) + [0.08] * (n // 2),
                  "halves_reversed": [0.08] * (n // 2) + [0.03] * (n // 2)}[order]
        cands = [Action(pos=[0.1, 0.2, 0.3], gripper=g) for g in widths]
        assert compute_k(cands, 0.5) == (0.0, 0.0125)

        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=0.5, k_cutoff=0.0125)
        state = EnsembleState(cfg)
        state.epoch_step = WARMUP_STEPS
        for e, g in enumerate(widths):
            state.submit(const_chunk(L - n + e, 0.1, gripper=g))
        ensemble_action(state, L - 1)
        diag = state.stats[-1]
        assert diag.k_g == 0.0125
        assert not diag.triggered
        assert diag.mode_used == "dynamic_k"

    @pytest.mark.parametrize("mode", list(EnsembleMode))
    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("pos, gripper", [
        ([-0.0, 0.0, 0.25], -0.0), ([0.0, -0.0, -0.0], 0.0),
        ([-0.125, 3.0, -0.0], 0.5), ([0.1, -0.2, 0.3], -0.01),
        ([0.1, -0.2, 0.3], 0.05), ([0.1, -0.2, 0.3], 0.0), ([0.1, -0.2, 0.3], -0.0),
        ([0.1, -0.2, 0.3], 0.08), ([0.1, -0.2, 0.3], 0.09),
        ([-0.0, 0.2, 0.3], 0.05), ([0.1, 0.2, 0.0], 0.05),
    ])
    def test_unanimous_short_circuit_equals_full_path(self, mode, warm, pos, gripper):
        cfg = EnsembleConfig(mode=mode, beta=1.0)
        shared = Action(pos=pos, gripper=gripper)
        # the shared Action passes through exactly when x0 + 0.0 and the clip
        # give back its bits: no coordinate is +-0.0 and 0 < g0 <= g_max
        passes_through = all(pos) and 0.0 < gripper <= G_MAX_DEFAULT
        outputs = []
        for same_object in (True, False):
            state = EnsembleState(cfg)
            state.epoch_step = 0 if warm else WARMUP_STEPS
            submitted = [shared if same_object else Action(pos=list(pos), gripper=gripper)
                         for _ in range(4)]
            for e, action in zip((0, 3, 4, 9), submitted):
                state.submit(ActionChunk(e, (action,) * L))
            action = ensemble_action(state, 9)
            assert (action is shared) == (same_object and passes_through)
            assert same_object or all(action is not a for a in submitted)
            d = state.stats[-1]
            outputs.append((bits((*action.pos, action.gripper, d.k_p, d.k_g)),
                            bits(action.pos), d.mode_used))
            # the full path's x0 + 0.0 turns -0.0 into 0.0, and the gripper is clipped
            expected = [x + 0.0 for x in pos] + [min(max(gripper + 0.0, 0.0), G_MAX_DEFAULT)]
            assert all(map(same_float, (*action.pos, action.gripper), expected))
        assert outputs[0] == outputs[1]


class TestDerivedActions:
    """The ensembler's output is, bit for bit, the Action the checking
    constructor builds from the same fields."""

    @pytest.mark.parametrize("pos, gripper", [([0.1, -0.2, 0.3], 0.0), ([-0.0, 0.2, 0.3], 0.05)],
                             ids=["gripper_zero", "negative_zero_coordinate"])
    def test_unanimous_step_builds_a_checked_action(self, pos, gripper):
        shared = Action(pos=pos, gripper=gripper)
        state = state_with(*(ActionChunk(e, (shared,) * L) for e in (0, 3)))
        action = ensemble_action(state, 5)
        expected = Action(pos=[x + 0.0 for x in pos], gripper=gripper)
        assert action is not shared and action == expected
        assert bits((*action.pos, action.gripper)) == bits((*expected.pos, expected.gripper))
        assert type(action) is Action and not hasattr(action, "__dict__")
        assert type(action.pos) is tuple and type(action.gripper) is float

    def test_weighted_mean_builds_a_checked_action(self):
        action = ensemble_action(state_with(const_chunk(0, 0.1), const_chunk(1, 0.3, 0.06)), 1)
        assert type(action) is Action and not hasattr(action, "__dict__")
        assert action == Action(pos=list(action.pos), gripper=action.gripper)
        assert [type(v) for v in (*action.pos, action.gripper)] == [float] * 4

    def test_weighted_mean_that_overflows_is_refused(self):
        # finite candidates whose difference is not: x0 + w * (x1 - x0) is -inf
        state = state_with(const_chunk(0, 1.7e308), const_chunk(1, -1.7e308))
        with pytest.raises(ValueError, match="pos is not finite"):
            ensemble_action(state, 1)


class TestFixedWeightsMemo:
    @pytest.mark.parametrize("k", [K_CONST_DEFAULT, 0.0, 0.137, 1000.0])
    def test_equals_decay_weights(self, k):
        for ages in (tuple(range(L - 1, -1, -1)), (19, 7, 1, 0), (0,), (3, 2, 0)):
            assert bits(_fixed_weights(k, ages)) == bits(decay_weights(ages, k))
        assert _fixed_weights(k, (3, 2, 0)) is _fixed_weights(k, (3, 2, 0))

    def test_relative_ages_key_gives_the_absolute_weights(self):
        cfg = EnsembleConfig(mode=EnsembleMode.BASELINE)
        state = EnsembleState(cfg)
        state.epoch_step = WARMUP_STEPS
        xs = [0.0, 0.25, 0.5]
        for e, x in zip((0, 2, 3), xs):
            state.submit(const_chunk(e, x))
        cands, ages = candidates(state, 9)
        assert ages == [9, 7, 6]
        action = ensemble_action(state, 9)
        expected = oracle_action(cands, ages, cfg.k_const, cfg.k_const)
        assert bits((*action.pos, action.gripper)) == bits(expected)

    def test_spread_temperature_is_not_memoized(self, stack_demo):
        # a dynamic_k episode reads the memo only in its warm-up steps
        _fixed_weights.cache_clear()
        cfg = EnsembleConfig(mode=EnsembleMode.DYNAMIC_K, beta=1.0)
        _, stats = SeedRun("stack", stack_demo, 5, [cfg],
                           disturbances=DisturbanceConfig(latency=3, bimodal_period=2)).result(0)
        dynamic = [s for s in stats if s.mode_used == "dynamic_k"]
        assert len(dynamic) > 100
        assert len({(s.k_p, s.k_g) for s in dynamic}) > 50
        warm = [s for s in stats if s.mode_used == "warmup"]
        assert len(warm) == WARMUP_STEPS
        assert _fixed_weights.cache_info().currsize <= len(warm)


def action_values():
    """Actions on a coarse grid, so pools repeat values: signed zeros, a
    closed gripper and one past the default g_max among them."""
    coordinate = st.sampled_from([0.0, -0.0, 0.1, -0.2, 0.35])
    return st.builds(lambda x, y, z, g: Action((x, y, z), g), coordinate, coordinate, coordinate,
                     st.sampled_from([0.0, 0.03, 0.08, 0.1]))


@st.composite
def chunk_streams(draw):
    """(cfg, events): each event is ("submit", chunk) or ("step", t).

    Chunks come as runs of shifts (the previous chunk's actions from the
    second on, then one new), broken shifts (one action swapped for another
    object, perhaps with equal bits) and fresh chunks, with gaps between
    emissions.  Steps fall before, at and after the newest emission; with
    scattered actions the suspending modes trigger, drop chunks and clear.
    """
    chunk_len = draw(st.sampled_from([2, L]))
    modes = [*EnsembleMode, EnsembleMode.RESET_ONLY, EnsembleMode.COMBINED]
    cfg = EnsembleConfig(mode=draw(st.sampled_from(modes)), beta=draw(st.sampled_from([0.5, 1.0])),
                         k_cutoff=draw(st.sampled_from([0.01, 0.01, 10.0])), chunk_len=chunk_len)
    pool = draw(st.lists(action_values(), min_size=2, max_size=4))
    pick = st.sampled_from(pool)
    events, emitted, actions = [], -1, None
    for _ in range(draw(st.integers(10, 80))):
        kind = draw(st.sampled_from(["shift"] * 6 + ["broken", "fresh", "idle"]))
        if kind != "idle":
            emitted += draw(st.sampled_from([1, 1, 1, 1, 2, 3]))
            if kind == "fresh" or actions is None:
                actions = tuple(draw(pick) for _ in range(chunk_len))
            else:
                actions = actions[1:] + (draw(pick),)
                if kind == "broken":
                    i = draw(st.integers(0, chunk_len - 2))
                    swapped = draw(st.one_of(pick, st.just(Action(actions[i].pos,
                                                                  actions[i].gripper))))
                    actions = actions[:i] + (swapped,) + actions[i + 1:]
            events.append(("submit", ActionChunk(emitted, actions)))
        offset = draw(st.sampled_from([0, 0, 0, 1, -1, chunk_len - 1, chunk_len]))
        events.append(("step", max(emitted + offset, 0)))
    return cfg, events


def is_shift(old: ActionChunk, new: ActionChunk) -> bool:
    return new.emitted_at == old.emitted_at + 1 and all(map(is_, new.actions[:-1],
                                                             old.actions[1:]))


def chain_of(buffered: list[ActionChunk]) -> int:
    """The newest buffered chunks that each shift the one before them."""
    n = min(len(buffered), 1)
    while n < len(buffered) and is_shift(buffered[-n - 1], buffered[-n]):
        n += 1
    return n


def run_events(cfg, events, chained=True):
    """(state, each event's outcome): submit's flag, the step's action or its
    error.  With ``chained``, the chain is checked after every event against
    the chunks buffered since the last clear."""
    state = EnsembleState(cfg)
    buffered, out = [], []
    for kind, arg in events:
        if kind == "submit":
            out.append(state.submit(arg))
            if out[-1]:
                buffered.append(arg)
        else:
            try:
                out.append(ensemble_action(state, arg))
            except EmptyBuffer as error:
                out.append(repr(error))
            if not state.chunks:   # cleared after a suspension
                buffered = []
        if chained:
            assert state.chain == chain_of(buffered)
    return state, out


def diag_bits(diag):
    return tuple(v.hex() if type(v) is float else v for v in diag)


@settings(max_examples=150, deadline=None)
@given(chunk_streams())
def test_chain_reads_what_the_gathered_candidates_give(stream):
    # the oracle runs the same stream with the chain held at 0, so every step
    # gathers its candidates and tests them one by one
    cfg, events = stream
    state, got = run_events(cfg, events)
    real_submit = EnsembleState.submit

    def unchained(self, chunk):
        try:
            return real_submit(self, chunk)
        finally:
            self.chain = 0

    with pytest.MonkeyPatch.context() as m:
        m.setattr(EnsembleState, "submit", unchained)
        oracle, want = run_events(cfg, events, chained=False)
    assert [diag_bits(d) for d in state.stats] == [diag_bits(d) for d in oracle.stats]
    stored = {id(a) for kind, chunk in events if kind == "submit" for a in chunk.actions}
    assert [bits((*o.pos, o.gripper)) if isinstance(o, Action) else o for o in got] == \
           [bits((*o.pos, o.gripper)) if isinstance(o, Action) else o for o in want]
    # a step that returns a stored action returns that very object either way
    assert all(g is w for g, w in zip(got, want) if id(w) in stored)
