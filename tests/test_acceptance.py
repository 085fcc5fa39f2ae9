"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 6 and 7 replay
hundreds of episodes and take a few minutes combined.
"""

import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from demoaug.cli import main as cli_main
from demoaug.demos import reference_demo
from demoaug.ensemble import (
    WARMUP_STEPS, Action, ActionChunk, EnsembleConfig, EnsembleMode, EnsembleState,
    compute_k, ensemble_action,
)
from demoaug.evaluation import closed_loop_eval
from demoaug.geometry import transform_from_anchors
from demoaug.policy import DisturbanceConfig
from demoaug.sim import replay, run_campaign
from demoaug.tasks import SuccessSpec, TaskKind, anchors_for_scene, recorded_scene
from demoaug.trajectory import augment_segmentwise

TOL = 1e-9
THRESHOLDS = {"push": 0.05, "pick_place": 0.05, "stack": 0.04}


def _report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def _random_anchor_pairs(rng, n):
    pts = rng.uniform([-0.35, -0.35, 0.0], [0.35, 0.35, 0.25], size=(n, 4, 3))
    keep = (np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1) > 1e-2) & \
           (np.linalg.norm(pts[:, 3] - pts[:, 2], axis=1) > 1e-2)
    return pts[keep]


def _proj(v, normal):
    n = normal / np.linalg.norm(normal)
    return v - np.dot(v, n) * n


def test_criterion_1_transform_suite():
    rng = np.random.default_rng(2024)
    pairs = _random_anchor_pairs(rng, 13000)[:10000]
    assert len(pairs) == 10000
    z = np.array([0.0, 0.0, 1.0])
    probes = rng.uniform(-0.5, 0.5, size=(len(pairs), 2, 3))
    started = time.perf_counter()
    up_checked = 0
    for (r_s, r_g, g_s, g_g), (a, b) in zip(pairs, probes):
        tf = transform_from_anchors(r_s, r_g, g_s, g_g)
        # anchor exactness
        assert np.linalg.norm(tf.apply(r_s) - g_s) < TOL
        assert np.linalg.norm(tf.apply(r_g) - g_g) < TOL
        # distance law
        expected = tf.scale * np.linalg.norm(a - b)
        assert abs(np.linalg.norm(tf.apply(a) - tf.apply(b)) - expected) < TOL
        # orthonormality
        assert np.max(np.abs(tf.rotation.T @ tf.rotation - np.eye(3))) < TOL
        assert abs(np.linalg.det(tf.rotation) - 1.0) < TOL
        # up preservation, outside the vertical-degenerate window
        g_delta = g_g - g_s
        r_delta = r_g - r_s
        if min(np.linalg.norm(_proj(z, d)) for d in (r_delta, g_delta)) > 1e-3:
            lhs = _proj(tf.rotation @ z, g_delta)
            rhs = _proj(z, g_delta)
            assert np.linalg.norm(lhs / np.linalg.norm(lhs)
                                  - rhs / np.linalg.norm(rhs)) < TOL
            up_checked += 1
    # identity anchors give the identity transform
    for r_s, r_g, _, _ in pairs[:200]:
        tf = transform_from_anchors(r_s, r_g, r_s, r_g)
        assert abs(tf.scale - 1.0) < TOL
        assert np.max(np.abs(tf.rotation - np.eye(3))) < TOL
        assert np.linalg.norm(tf.translation) < TOL
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"transform suite took {elapsed:.1f}s (limit 10s)"
    _report("criterion 1 (transform suite)",
            f"10000 anchor pairs, {up_checked} up-checks, {elapsed:.1f}s")


def _chunk(emitted_at, pos, gripper, length=20):
    return ActionChunk(emitted_at, tuple(Action(pos=pos, gripper=gripper)
                                         for _ in range(length)))


def test_criterion_2_hand_oracle_ensembling():
    # worked case: candidates x in {0 (age 1), 1 (age 0)}, beta 1 -> k_p 0.5,
    # weights {e^-0.5, 1}, x = 1 / (1 + e^-0.5)
    cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0, k_cutoff=0.5)
    state = EnsembleState(cfg)
    state.epoch_step = WARMUP_STEPS
    state.submit(_chunk(0, [0.0, 0.0, 0.0], 0.04))
    state.submit(_chunk(1, [1.0, 0.0, 0.0], 0.04))
    action = ensemble_action(state, 1)
    assert abs(action.pos[0] - 1.0 / (1.0 + math.exp(-0.5))) < 1e-12

    rng = np.random.default_rng(7)
    hull_buffers = identity_buffers = 0
    for trial in range(10000):
        mode = list(EnsembleMode)[trial % 4]
        cfg = EnsembleConfig(mode=mode, beta=float(rng.uniform(0, 2)), chunk_len=6)
        st = EnsembleState(cfg)
        st.epoch_step = WARMUP_STEPS
        if trial % 2 == 0:
            pos = rng.uniform(-0.5, 0.5, 3)
            grip = float(rng.uniform(0, 0.08))
            st.submit(_chunk(0, pos, grip, length=6))
            out = ensemble_action(st, 0)
            assert np.array_equal(out.pos, pos) and out.gripper == grip
            identity_buffers += 1
        else:
            n = int(rng.integers(2, 7))
            cand_pos, cand_grip = [], []
            for tau in range(n):
                rows = rng.uniform(-0.5, 0.5, size=(6, 3))
                grips = rng.uniform(0, 0.08, size=6)
                st.submit(ActionChunk(tau, tuple(
                    Action(pos=r, gripper=g) for r, g in zip(rows, grips))))
                cand_pos.append(rows[n - 1 - tau])
                cand_grip.append(grips[n - 1 - tau])
            out = ensemble_action(st, n - 1)
            if st.stats[-1].triggered:
                continue  # verbatim chunk output, trivially a candidate
            cand_pos, cand_grip = np.array(cand_pos), np.array(cand_grip)
            eps = 1e-12
            assert np.all(np.array(out.pos) >= cand_pos.min(axis=0) - eps)
            assert np.all(np.array(out.pos) <= cand_pos.max(axis=0) + eps)
            assert cand_grip.min() - eps <= out.gripper <= cand_grip.max() + eps
            hull_buffers += 1
    _report("criterion 2 (hand-oracle ensembling)",
            f"worked case exact; {identity_buffers} identity + {hull_buffers} hull buffers")


def test_criterion_3_spread_algebra():
    rng = np.random.default_rng(12)
    # k = 0 iff candidates agree
    for _ in range(300):
        v = rng.uniform(-0.5, 0.5, 3)
        g = float(rng.uniform(0, 0.08))
        agree = [Action(pos=v.copy(), gripper=g) for _ in range(int(rng.integers(2, 9)))]
        assert compute_k(agree, float(rng.uniform(0.1, 2))) == (0.0, 0.0)
        jittered = agree[:-1] + [Action(pos=v + [1e-9, 0, 0], gripper=g)]
        assert compute_k(jittered, 1.0)[0] > 0.0
    # exact beta linearity on power-of-two scalings
    checked = 0
    for _ in range(500):
        cands = [Action(pos=rng.uniform(-1, 1, 3), gripper=rng.uniform(0, 0.08))
                 for _ in range(int(rng.integers(2, 10)))]
        k1_p, k1_g = compute_k(cands, 1.0)
        for beta in (0.25, 0.5, 2.0):
            assert compute_k(cands, beta) == (beta * k1_p, beta * k1_g)
        # L-infinity selection against per-axis brute force
        per_axis = [statistics.pstdev([c.pos[i] - cands[0].pos[i] for c in cands])
                    for i in range(3)]
        assert k1_p == pytest.approx(max(per_axis), rel=1e-12, abs=1e-15)
        checked += 1
    _report("criterion 3 (spread algebra)",
            f"{checked} candidate sets: zero-iff-agree, exact beta scaling, L-inf oracle")


def _stream(cfg, xs):
    """Each step's action and, from ``state.stats``, its diagnostics."""
    state = EnsembleState(cfg)
    actions = []
    for t, x in enumerate(xs):
        state.submit(_chunk(t, [x, 0.0, 0.0], 0.04, length=cfg.chunk_len))
        actions.append(ensemble_action(state, t))
    return actions, state.stats


def test_criterion_4_suspension_contract():
    for mode in (EnsembleMode.COMBINED, EnsembleMode.RESET_ONLY):
        cfg = EnsembleConfig(mode=mode, beta=1.0, k_cutoff=0.01)
        n = cfg.chunk_len // 2   # a suspension replays half a chunk
        assert n == 10
        actions, diags = _stream(cfg, [0.0] * 5 + [1.0] * 30)
        assert len(diags) == len(actions)
        modes = [d.mode_used for d in diags]
        # warm-up: fixed temperature for the first five steps of the run
        assert modes[:5] == ["warmup"] * 5
        assert all(d.k_p == cfg.k_const for d in diags[:5])
        # trigger at the first post-warm-up disagreement, then exactly
        # n consecutive outputs verbatim from the chunk emitted then
        assert modes[5] == "trigger" and diags[5].k_p > cfg.k_cutoff
        for t in range(5, 5 + n):
            assert actions[t].pos[0] == 1.0
            assert diags[t].suspended_from == 5
        assert modes[6:5 + n] == ["suspended"] * (n - 1)
        # warm-up applies afresh to the post-suspension buffer epoch
        assert modes[5 + n:10 + n] == ["warmup"] * 5
        assert all(d.k_p == cfg.k_const for d in diags[5 + n:10 + n])
    _report("criterion 4 (suspension contract)",
            f"{n} verbatim actions, 5-step warm-up per epoch, both reset modes")


def test_criterion_5_bimodality_separation():
    rng = np.random.default_rng(5)
    jitter = lambda: float(rng.uniform(-0.005, 0.005))

    def clustered_state(cfg):
        st = EnsembleState(cfg)
        st.epoch_step = WARMUP_STEPS
        for t in range(10):
            st.submit(_chunk(t, [0.0 + jitter(), 0.0, 0.0], 0.04))
        for t in range(10, 20):
            st.submit(_chunk(t, [1.0 + jitter(), 0.0, 0.0], 0.04))
        return st

    base_cfg = EnsembleConfig(mode=EnsembleMode.BASELINE)
    base_out = ensemble_action(clustered_state(base_cfg), 19)
    assert 0.25 < base_out.pos[0] < 0.75, \
        f"baseline landed at {base_out.pos[0]:.3f}, between neither cluster"

    comb_cfg = EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0)
    comb_state = clustered_state(comb_cfg)
    comb_out = ensemble_action(comb_state, 19)
    assert comb_state.stats[-1].triggered
    assert abs(comb_out.pos[0] - 1.0) <= 0.01
    _report("criterion 5 (bimodality separation)",
            f"baseline mid-gap at {base_out.pos[0]:.3f}; "
            f"combined snapped to {comb_out.pos[0]:.4f}")


def test_criterion_6_filter_soundness_and_fidelity_floor():
    # fidelity floor: identity-augmented replay of every bundled demo succeeds
    for task in TaskKind:
        demo = reference_demo(task)
        scene = recorded_scene(demo)
        ep = replay(augment_segmentwise(demo, anchors_for_scene(task, demo, scene)), scene)
        assert ep.success, f"identity replay failed for {task.value}"

    # replay success rate over 200 pick-and-place scenes, floor pinned at 0.90
    demo = reference_demo(TaskKind.PICK_PLACE)
    probe = run_campaign(demo, TaskKind.PICK_PLACE, count=200, rng_seed=77, attempt_cap=200)
    rate = probe.successes / probe.attempts
    assert rate >= 0.90, f"pick-and-place replay success rate {rate:.3f} below 0.90"

    # filter soundness, rechecked from the records themselves, plus the
    # 400-episode runtime budget
    started = time.perf_counter()
    ds = run_campaign(demo, TaskKind.PICK_PLACE, count=400, rng_seed=123)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"400-episode campaign took {elapsed:.0f}s (limit 120s)"
    campaigns = [(TaskKind.PICK_PLACE, ds)]
    for task, count in ((TaskKind.PUSH, 40), (TaskKind.STACK, 40)):
        campaigns.append((task, run_campaign(reference_demo(task), task, count, rng_seed=5)))
    for task, dataset in campaigns:
        cutoff = THRESHOLDS[task.value]
        for ep in dataset.episodes:
            assert ep.success
            final = ep.states[-1]
            for pos, goal in zip(final.blocks, ep.goals):
                assert np.linalg.norm(np.subtract(pos, goal)) <= cutoff
    _report("criterion 6 (filter soundness + fidelity floor)",
            f"identity replays ok; 200-scene rate {rate:.3f} >= 0.90; "
            f"400 episodes in {elapsed:.0f}s; all stored episodes within cutoffs")


def test_criterion_7_directional_ablation():
    demo = reference_demo(TaskKind.STACK)
    suite = DisturbanceConfig(latency=3, bimodal_period=2)
    matrix = [EnsembleConfig(mode=EnsembleMode.BASELINE),
              EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0)]
    report = closed_loop_eval(TaskKind.STACK, demo, matrix, n_episodes=200,
                              disturbances=suite)
    baseline, combined = report.cells
    assert combined.rate >= baseline.rate, \
        f"combined {combined.rate:.3f} fell below baseline {baseline.rate:.3f}"
    _report("criterion 7 (directional ablation)",
            f"stack disturbance suite over {report.n_episodes} episodes: "
            f"baseline {baseline.rate:.3f} -> combined {combined.rate:.3f} "
            f"(gap {combined.rate - baseline.rate:+.3f})")


def test_criterion_8_determinism(tmp_path):
    demo_path = Path(__file__).resolve().parents[1] / "src" / "demoaug" / "demos" / "push.json"

    def tree_bytes(root: Path):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    assert cli_main(["augment", "--demo", str(demo_path), "--task", "push",
                     "--count", "5", "--seed", "31", "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["augment", "--from-manifest", str(tmp_path / "a" / "manifest.json"),
                     "--out", str(tmp_path / "b")]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    args = ["ensemble-eval", "--demo", str(demo_path), "--task", "push",
            "--episodes", "4", "--seed", "2", "--modes", "baseline,combined",
            "--betas", "1.0", "--latency", "3", "--bimodal-period", "2"]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(["ensemble-eval", "--from-manifest", str(tmp_path / "r1" / "report.json"),
                     "--out", str(tmp_path / "r2")]) == 0
    r1 = (tmp_path / "r1" / "report.json").read_bytes()
    assert r1 == (tmp_path / "r2" / "report.json").read_bytes()
    _report("criterion 8 (determinism)",
            "manifest reruns byte-identical for dataset and report")
