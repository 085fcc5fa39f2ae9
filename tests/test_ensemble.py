import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoaug.ensemble import (
    Action, ActionChunk, ChunkBuffer, EmptyBuffer, EnsembleConfig, EnsembleMode,
    EnsembleState, InsufficientCandidates, candidates, compute_k, decay_weights,
    ensemble_action,
)

L = 20


def const_chunk(emitted_at, x, gripper=0.04, length=L):
    return ActionChunk(emitted_at, tuple(Action(pos=[x, 0.0, 0.0], gripper=gripper)
                                         for _ in range(length)))


def chunk_from_rows(emitted_at, rows, grippers=None):
    grippers = grippers if grippers is not None else [0.04] * len(rows)
    return ActionChunk(emitted_at, tuple(Action(pos=r, gripper=g)
                                         for r, g in zip(rows, grippers)))


def run_stream(cfg, xs):
    """Feed one constant chunk per step with the given x values; return results."""
    state = EnsembleState.for_config(cfg)
    results = []
    for t, x in enumerate(xs):
        state.submit(const_chunk(t, x, length=cfg.chunk_len))
        results.append(ensemble_action(state, t, cfg))
    return state, results


class TestCandidates:
    def test_single_chunk_first_action(self):
        buf = ChunkBuffer(L)
        buf.push(const_chunk(5, 1.0))
        cands, ages = candidates(buf, 5)
        assert len(cands) == 1
        assert cands[0].pos[0] == 1.0
        assert ages == [0]

    def test_two_chunks_index_mapping(self):
        buf = ChunkBuffer(L)
        rows_old = [[float(i), 0, 0] for i in range(L)]
        rows_new = [[100.0 + i, 0, 0] for i in range(L)]
        buf.push(chunk_from_rows(4, rows_old))
        buf.push(chunk_from_rows(5, rows_new))
        cands, ages = candidates(buf, 5)
        assert [c.pos[0] for c in cands] == [1.0, 100.0]  # older first, index 1 then 0
        assert ages == [1, 0]

    def test_full_buffer(self):
        buf = ChunkBuffer(L)
        for t in range(L):
            buf.push(const_chunk(t, float(t)))
        cands, ages = candidates(buf, L - 1)
        assert len(cands) == L
        assert ages == list(range(L - 1, -1, -1))

    def test_expired_chunks_excluded(self):
        buf = ChunkBuffer(L)
        buf.push(const_chunk(0, 1.0))
        with pytest.raises(EmptyBuffer):
            candidates(buf, L)  # prediction horizon ended at L - 1

    def test_empty(self):
        with pytest.raises(EmptyBuffer):
            candidates(ChunkBuffer(L), 0)


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
        state = EnsembleState.for_config(cfg)
        state.epoch_step = cfg.warmup_steps  # past warm-up
        state.submit(const_chunk(0, 0.0))
        state.submit(const_chunk(1, 1.0))
        return state

    def test_worked_two_candidate_case(self):
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.5)
        res = ensemble_action(self.worked_case_state(cfg), 1, cfg)
        expected = 1.0 / (1.0 + math.exp(-0.5))
        assert res.action.pos[0] == pytest.approx(expected, abs=1e-12)
        assert res.diagnostics.k_p == pytest.approx(0.5, abs=1e-15)
        assert not res.diagnostics.triggered  # 0.5 is not strictly above 0.5

    def test_cutoff_below_spread_triggers(self):
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.4)
        state = self.worked_case_state(cfg)
        res = ensemble_action(state, 1, cfg)
        assert res.diagnostics.triggered
        assert res.action.pos[0] == 1.0  # newest chunk, verbatim
        # the next replay_n - 1 outputs replay the same chunk
        for t in range(2, 2 + cfg.effective_replay_n - 1):
            state.submit(const_chunk(t, 5.0))  # discarded while suspended
            out = ensemble_action(state, t, cfg)
            assert out.diagnostics.mode_used == "suspended"
            assert out.action.pos[0] == 1.0

    def test_identical_candidates_exact_in_every_mode(self):
        for mode in EnsembleMode:
            cfg = EnsembleConfig(mode=mode, beta=1.0)
            state = EnsembleState.for_config(cfg)
            state.epoch_step = cfg.warmup_steps
            for t in range(4):
                state.submit(const_chunk(t, 0.125, gripper=0.0625))
            res = ensemble_action(state, 3, cfg)
            assert res.action.pos[0] == 0.125
            assert res.action.gripper == 0.0625

    def test_single_candidate_identity_in_every_mode(self):
        for mode in EnsembleMode:
            cfg = EnsembleConfig(mode=mode, beta=1.0)
            state = EnsembleState.for_config(cfg)
            state.epoch_step = cfg.warmup_steps
            state.submit(chunk_from_rows(0, [[0.3, -0.2, 0.7]] * L, [0.017] * L))
            res = ensemble_action(state, 0, cfg)
            assert tuple(res.action.pos) == (0.3, -0.2, 0.7)
            assert res.action.gripper == 0.017

    def test_empty_buffer(self):
        cfg = EnsembleConfig()
        with pytest.raises(EmptyBuffer):
            ensemble_action(EnsembleState.for_config(cfg), 0, cfg)

    def test_warmup_uses_fixed_temperature_all_modes(self):
        for mode in EnsembleMode:
            cfg = EnsembleConfig(mode=mode, beta=1.0, k_cutoff=1e-9)
            _, results = run_stream(cfg, [0.0, 1.0, 0.0, 1.0, 0.0])
            for res in results:
                assert res.diagnostics.mode_used == "warmup"
                assert res.diagnostics.k_p == cfg.k_const

    def test_suspension_contract_and_rewarm(self):
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.01)
        xs = [0.0] * 5 + [1.0] * 25
        state, results = run_stream(cfg, xs)
        modes = [r.diagnostics.mode_used for r in results]
        n = cfg.effective_replay_n
        assert n == L // 2
        assert modes[:5] == ["warmup"] * 5
        assert modes[5] == "trigger"
        assert results[5].diagnostics.triggered
        assert results[5].diagnostics.k_p > cfg.k_cutoff
        assert modes[6:5 + n] == ["suspended"] * (n - 1)
        # exactly replay_n outputs come verbatim from the chunk emitted at 5
        for t in range(5, 5 + n):
            assert results[t].action.pos[0] == 1.0
            assert results[t].diagnostics.suspended_from == 5
        # new buffer epoch re-warms for 5 steps
        assert modes[5 + n:10 + n] == ["warmup"] * 5

    def test_no_clear_keeps_buffer(self):
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.01,
                             clear_after_suspend=False)
        xs = [0.0] * 5 + [1.0] * 25
        state, results = run_stream(cfg, xs)
        modes = [r.diagnostics.mode_used for r in results]
        first_after = modes[5 + cfg.effective_replay_n]
        assert first_after != "warmup"  # stale buffer retained, no new epoch

    def test_reset_only_uses_fixed_temperature_for_means(self):
        cfg = EnsembleConfig(mode=EnsembleMode.RESET_ONLY, beta=1.0, k_cutoff=10.0)
        xs = [0.0] * 5 + [1.0] * 10
        _, results = run_stream(cfg, xs)
        later = results[-1].diagnostics
        assert later.mode_used == "fixed_k"
        assert later.k_p > 0  # spread measured and reported for the trigger test

    def test_dynamic_mode_never_suspends(self):
        cfg = EnsembleConfig(mode=EnsembleMode.DYNAMIC_K, beta=1.0, k_cutoff=1e-12)
        xs = [0.0] * 5 + [1.0] * 10
        _, results = run_stream(cfg, xs)
        assert all(r.diagnostics.mode_used != "suspended" for r in results)
        assert all(not r.diagnostics.triggered for r in results)

    def test_baseline_never_suspends(self):
        cfg = EnsembleConfig(mode=EnsembleMode.BASELINE, beta=1.0, k_cutoff=1e-12)
        xs = [0.0] * 5 + [1.0] * 10
        _, results = run_stream(cfg, xs)
        assert all(not r.diagnostics.triggered for r in results)
        assert results[-1].diagnostics.mode_used == "baseline"


class TestConfig:
    @pytest.mark.parametrize("k_const", [-1.0, -1e-12, math.nan])
    def test_negative_or_nan_k_const_rejected(self, k_const):
        with pytest.raises(ValueError, match="k_const"):
            EnsembleConfig(k_const=k_const)
        assert EnsembleConfig(k_const=0.0).k_const == 0.0


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
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0)


class TestBimodality:
    def build_clustered_state(self, cfg, jitter_seed=0):
        """Half the buffer around x=0, half around x=1, tiny intra-cluster spread."""
        rng = np.random.default_rng(jitter_seed)
        state = EnsembleState.for_config(cfg)
        state.epoch_step = cfg.warmup_steps
        for t in range(10):
            state.submit(const_chunk(t, 0.0 + rng.uniform(-0.005, 0.005)))
        for t in range(10, 20):
            state.submit(const_chunk(t, 1.0 + rng.uniform(-0.005, 0.005)))
        return state

    def test_baseline_lands_between_clusters(self):
        cfg = EnsembleConfig(mode=EnsembleMode.BASELINE)
        state = self.build_clustered_state(cfg)
        res = ensemble_action(state, 19, cfg)
        assert 0.25 < res.action.pos[0] < 0.75

    def test_combined_snaps_to_newest_cluster(self):
        cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.01)
        state = self.build_clustered_state(cfg)
        res = ensemble_action(state, 19, cfg)
        assert res.diagnostics.triggered
        assert abs(res.action.pos[0] - 1.0) <= 0.01


@settings(max_examples=200, deadline=None)
@given(st.integers(1, L), st.integers(0, 2 ** 31), st.floats(0.0, 4.0))
def test_convex_hull_containment(n_chunks, seed, beta):
    rng = np.random.default_rng(seed)
    cfg = EnsembleConfig(mode=EnsembleMode.DYNAMIC_K, beta=beta)
    state = EnsembleState.for_config(cfg)
    state.epoch_step = cfg.warmup_steps
    rows_by_chunk = []
    for t in range(n_chunks):
        rows = rng.uniform(-0.5, 0.5, size=(L, 3))
        grips = rng.uniform(0.0, 0.08, size=L)
        rows_by_chunk.append((rows, grips))
        state.submit(chunk_from_rows(t, rows, grips))
    t = n_chunks - 1
    res = ensemble_action(state, t, cfg)
    cand_pos = np.array([rows[t - tau] for tau, (rows, _) in enumerate(rows_by_chunk)])
    cand_grip = np.array([grips[t - tau] for tau, (_, grips) in enumerate(rows_by_chunk)])
    eps = 1e-12
    assert np.all(res.action.pos >= cand_pos.min(axis=0) - eps)
    assert np.all(res.action.pos <= cand_pos.max(axis=0) + eps)
    assert cand_grip.min() - eps <= res.action.gripper <= cand_grip.max() + eps
