import math
import statistics
import sys

import numpy as np
import pytest

from demoaug import policy as policy_module
from demoaug.ensemble import Action, EnsembleConfig, EnsembleMode, compute_k
from demoaug.evaluation import SeedRun, prepare_episode
from demoaug.policy import DisturbanceConfig, ScriptedPolicy
from demoaug.sim import ControllerConfig, advance, replay, servo, track
from demoaug.tasks import Scene
from demoaug.trajectory import DemoTrajectory, Segment, ValidationError, Waypoint


def closed_loop(task, demo, seed, cfg, disturbances=DisturbanceConfig()):
    """One closed-loop episode of ``demo`` warped to the scene of ``seed``."""
    return SeedRun(task, demo, seed, [cfg], disturbances=disturbances).result(0)


def line_demo(spacing, n=60, gripper=0.08):
    """Straight line along x with uniform waypoint spacing."""
    wps = tuple(Waypoint(time=0.05 * i, pos=(i * spacing, 0.0, 0.05), gripper=gripper)
                for i in range(n))
    seg = Segment(label="line", start=0, stop=n,
                  anchor_start=wps[0].pos, anchor_goal=wps[-1].pos)
    return DemoTrajectory(waypoints=wps, segments=(seg,), task="push")


class TestTracking:
    def test_deterministic(self):
        demo = line_demo(0.008)
        a = ScriptedPolicy(demo, disturbances=DisturbanceConfig(noise=0.01, seed=4))
        b = ScriptedPolicy(demo, disturbances=DisturbanceConfig(noise=0.01, seed=4))
        for t in range(10):
            obs = demo.waypoints[min(t, 59)].pos
            ca, cb = a.predict(obs, t), b.predict(obs, t)
            for x, y in zip(ca.actions, cb.actions):
                np.testing.assert_array_equal(x.pos, y.pos)
                assert x.gripper == y.gripper

    def test_cursor_follows_observed_progress(self):
        demo = line_demo(0.008)
        policy = ScriptedPolicy(demo)
        for t in range(20):
            policy.predict(demo.waypoints[t].pos, t)
        # arrival every step advances the cursor one waypoint per emission
        assert policy.cursor == 19

    def test_finished_at_end(self):
        demo = line_demo(0.008, n=10)
        policy = ScriptedPolicy(demo)
        end = demo.waypoints[-1].pos
        assert not policy.finished(end)
        for t in range(30):
            policy.predict(end if t > 10 else demo.waypoints[min(t, 9)].pos, t)
        assert policy.finished(end)


class TestWaypointSchedules:
    """Which waypoint replay, rollout and cursor target, step by step.

    Waypoints 1 m apart are never reached within a 0.1 s timeout (T = 2
    control steps), so after the arrival at waypoint 0 every advance is a
    timeout.  Replay and rollout hold each waypoint T steps; the cursor
    holds it T + 1 queries.
    """

    CTRL = ControllerConfig(waypoint_timeout=0.1)
    N = 8

    def demo(self):
        assert self.CTRL.timeout_steps == 2
        return line_demo(1.0, n=self.N)

    def test_replay_holds_each_waypoint_t_steps(self):
        scene = Scene(block_starts=([0.5, 3.0, 0.02],), block_goals=([1.5, 3.0, 0.02],))
        ep = replay(self.demo(), scene, self.CTRL)
        targets = [round(a.pos[0]) for a in ep.actions]
        held = [k for k in range(1, self.N) for _ in range(2)]
        assert targets == [0] + held + [self.N - 1] * self.CTRL.settle_steps

    def test_rollout_holds_each_waypoint_t_steps(self):
        demo = self.demo()
        policy = ScriptedPolicy(demo, chunk_len=9, ctrl=self.CTRL)
        chunk = policy.predict(demo.waypoints[0].pos, 0)
        assert [round(a.pos[0]) for a in chunk.actions] == [0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_cursor_holds_each_waypoint_t_plus_one_queries(self):
        demo = self.demo()
        policy = ScriptedPolicy(demo, ctrl=self.CTRL)
        cursors = []
        for t in range(13):
            policy.predict(demo.waypoints[0].pos, t)
            cursors.append(policy.cursor)
        assert cursors == [0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]


class TestZeroDisturbance:
    def test_consecutive_chunks_time_consistent(self, pick_place_demo):
        # predictions for the same future step agree, so spread stays at zero
        ok, stats = closed_loop("pick_place", pick_place_demo, 99,
                                EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0))
        assert ok
        assert all(not s.triggered for s in stats)
        measured = [s.k_p for s in stats if s.mode_used == "dynamic_k"]
        assert measured and max(measured) < 1e-9


class TestBimodalSwitcher:
    def test_alternating_hypotheses_disagree_by_gap(self):
        spacing, gap = 0.05, 2
        demo = line_demo(spacing)
        policy = ScriptedPolicy(demo, disturbances=DisturbanceConfig(
            bimodal_period=1, bimodal_gap=gap))
        obs = demo.waypoints[0].pos
        chunks = [policy.predict(obs, t) for t in range(4)]
        # once the cursor settles, emissions alternate between plans offset
        # by exactly `gap` waypoints
        a, b = chunks[2].actions[0].pos, chunks[3].actions[0].pos
        assert abs(b[0] - a[0]) == pytest.approx(gap * spacing, abs=1e-12)

    def test_period_two_flips_every_other_emission(self):
        demo = line_demo(0.05)
        policy = ScriptedPolicy(demo, disturbances=DisturbanceConfig(
            bimodal_period=2, bimodal_gap=3))
        obs = demo.waypoints[0].pos
        starts = [policy.predict(obs, t).actions[0].pos[0] for t in range(8)]
        offsets = [round(x / 0.05) for x in starts]
        # once the cursor settles (emission 2 on), hypotheses alternate in
        # runs of two, exactly `gap` waypoints apart
        low, high = sorted(set(offsets[2:8]))
        assert high - low == 3
        assert offsets[2:8] in ([high, high, low, low, high, high],
                                [low, low, high, high, low, low])


class TestLatency:
    def test_cursor_lags_behind_stale_observations(self):
        # spacing inside the advance radius: the clean cursor advances every
        # emission (arrival each step), so it reads t; the d = 3 stale
        # observation is clamped to waypoint 0 for the first emissions,
        # stalling the cursor once at t = 3 before it settles one waypoint
        # behind (hand trace: 0,1,2,2,3,4,...,t-1)
        demo = line_demo(0.009)
        lagged = ScriptedPolicy(demo, disturbances=DisturbanceConfig(latency=3))
        clean = ScriptedPolicy(demo)
        for t in range(30):
            obs = demo.waypoints[t].pos
            lagged.predict(obs, t)
            clean.predict(obs, t)
        assert clean.cursor == 29
        assert lagged.cursor == 28

    def test_spread_arithmetic_over_latency_window(self):
        # candidates misaligned by one waypoint per chunk across a d=3 window
        # sit at 4 consecutive stations; population sigma of {0,1,2,3} is
        # sqrt(5)/2, so sigma_x = spacing * sqrt(5)/2
        spacing = 0.008
        cands = [Action(pos=[i * spacing, 0, 0], gripper=0.08) for i in range(4)]
        k_p, _ = compute_k(cands, 1.0)
        assert k_p == pytest.approx(spacing * math.sqrt(5) / 2, rel=1e-12)
        assert k_p == pytest.approx(statistics.pstdev([c.pos[0] for c in cands]), rel=1e-12)

    def test_history_holds_only_the_latency_window(self, stack_demo, monkeypatch):
        policies, real_init = [], ScriptedPolicy.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            policies.append(self)

        monkeypatch.setattr(ScriptedPolicy, "__init__", recording_init)
        closed_loop("stack", stack_demo, 5, EnsembleConfig(),
                    DisturbanceConfig(latency=3, bimodal_period=2))
        [policy] = policies
        assert policy._emissions > 100
        assert len(policy._obs_history) <= 4

    def test_latency_past_any_episode_holds_the_first_observation(self, push_demo):
        # a deque's maxlen stops at sys.maxsize; any window longer than the
        # episode acts on the first observation alone
        observations = [w.pos for w in push_demo.waypoints[:30]]
        chunks = []
        for latency in (sys.maxsize, 10 ** 6):
            policy = ScriptedPolicy(push_demo, 20, DisturbanceConfig(latency=latency))
            chunks.append(repr([policy.predict(obs, t) for t, obs in enumerate(observations)]))
        assert chunks[0] == chunks[1]

    def test_latency_creates_disagreement_in_closed_loop(self, pick_place_demo):
        ok, stats = closed_loop("pick_place", pick_place_demo, 3,
                                EnsembleConfig(mode=EnsembleMode.DYNAMIC_K, beta=1.0),
                                DisturbanceConfig(latency=3))
        measured = [s.k_p for s in stats if s.mode_used == "dynamic_k"]
        assert max(measured) > 0.0


class TestFork:
    """A fork and the policy it came from each go on as a fresh policy fed
    the same observations would, whatever the other is fed."""

    @staticmethod
    def observations(demo, shift, n=40):
        last = len(demo.waypoints) - 1
        return [tuple(x + shift for x in demo.waypoints[min(t, last)].pos)
                for t in range(n)]

    @pytest.mark.parametrize("disturbances", [
        DisturbanceConfig(latency=2, bimodal_period=2),
        DisturbanceConfig(latency=2, bimodal_period=2, noise=0.01, seed=7),
    ])
    def test_original_and_fork_predict_as_fresh_policies(self, push_demo, disturbances):
        head = self.observations(push_demo, 0.0)[:12]
        tails = self.observations(push_demo, 0.0)[12:], self.observations(push_demo, 0.003)[12:]
        original = ScriptedPolicy(push_demo, 20, disturbances)
        for t, obs in enumerate(head):
            original.predict(obs, t)
        fork = original.fork()
        got = [], []
        for t, (a, b) in enumerate(zip(*tails), len(head)):
            got[1].append(fork.predict(b, t))   # interleaved, the fork first
            got[0].append(original.predict(a, t))
        for tail, chunks, policy in zip(tails, got, (original, fork)):
            fresh = ScriptedPolicy(push_demo, 20, disturbances)
            want = [fresh.predict(obs, t) for t, obs in enumerate(head + tail)][len(head):]
            assert repr(chunks) == repr(want)
            assert (policy.cursor, policy.finished(tail[-1])) == \
                   (fresh.cursor, fresh.finished(tail[-1]))

    def test_noise_free_chunks_hold_the_warped_waypoints(self, stack_demo):
        disturbances = DisturbanceConfig(latency=3, bimodal_period=2)
        _, aug, seeded = prepare_episode("stack", stack_demo, 3, disturbances=disturbances)
        policy = ScriptedPolicy(aug, 20, seeded)
        waypoint_ids = {id(w) for w in aug.waypoints}
        for t, w in enumerate(aug.waypoints):
            assert {id(a) for a in policy.predict(w.pos, t).actions} <= waypoint_ids

    def test_fork_shares_what_it_never_changes(self, push_demo):
        clean = ScriptedPolicy(push_demo, disturbances=DisturbanceConfig(latency=3))
        twin = clean.fork()
        assert twin.reference is clean.reference and twin._rng is clean._rng
        assert twin._trail is not clean._trail and twin._obs_history is not clean._obs_history
        assert twin._obs_history.maxlen == clean._obs_history.maxlen == 4
        noisy = ScriptedPolicy(push_demo, disturbances=DisturbanceConfig(noise=0.01))
        assert noisy.fork()._rng is not noisy._rng


class TestDisturbanceConfig:
    @pytest.mark.parametrize("name, value", [
        ("latency", -1), ("bimodal_period", -1), ("bimodal_gap", -1),
        ("noise", -0.001), ("noise", math.nan), ("noise", math.inf),
        ("seed", -1), ("seed", sys.maxsize + 1),
    ])
    def test_bad_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            DisturbanceConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("latency", 1.5), ("bimodal_period", 1.5), ("bimodal_gap", 2.0), ("bimodal_gap", True),
        ("seed", 1.5), ("seed", "x"), ("seed", True),
    ])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            DisturbanceConfig(**{name: value})


class TestNoise:
    def test_amplitude_bound(self):
        demo = line_demo(0.008)
        eta = 0.004
        noisy = ScriptedPolicy(demo, disturbances=DisturbanceConfig(noise=eta, seed=8))
        clean = ScriptedPolicy(demo)
        for t in range(10):
            obs = demo.waypoints[t].pos
            cn = noisy.predict(obs, t)
            cc = clean.predict(obs, t)
            diffs = np.array([np.subtract(n.pos, c.pos) for n, c in zip(cn.actions, cc.actions)])
            assert np.all(np.abs(diffs) <= eta)
        assert np.any(diffs != 0)

    def test_noisy_targets_are_checked_actions(self, push_demo):
        policy = ScriptedPolicy(push_demo, disturbances=DisturbanceConfig(noise=0.01, seed=3))
        for a in policy.predict(push_demo.waypoints[0].pos, 0).actions:
            assert type(a) is Action and not hasattr(a, "__dict__") and type(a.pos) is tuple
            assert [type(v) for v in (*a.pos, a.gripper)] == [float] * 4
            assert a == Action(pos=list(a.pos), gripper=a.gripper)

    def test_noisy_target_that_overflows_is_refused(self):
        # a finite waypoint plus finite noise can leave the float range
        wps = (Waypoint(time=0.0, pos=(1.7e308, 0.0, 0.05), gripper=0.08),
               Waypoint(time=0.05, pos=(1.7e308, 0.1, 0.05), gripper=0.08))
        seg = Segment(label="line", start=0, stop=2, anchor_start=wps[0].pos,
                      anchor_goal=wps[1].pos)
        demo = DemoTrajectory(waypoints=wps, segments=(seg,), task="push")
        policy = ScriptedPolicy(demo, disturbances=DisturbanceConfig(noise=5e307, seed=1))
        with pytest.raises(ValueError, match="pos is not finite: inf"):
            policy.predict(wps[0].pos, 0)

    @pytest.mark.parametrize("task", ["push", "pick_place", "stack"])
    def test_first_cursor_is_the_first_nearest_waypoint(self, request, task):
        demo = request.getfixturevalue(f"{task}_demo")
        positions = np.array([w.pos for w in demo.waypoints])
        rng = np.random.default_rng(11)
        observations = [tuple(rng.uniform([-0.35, -0.35, 0.0], [0.35, 0.35, 0.3]).tolist())
                        for _ in range(50)] + [w.pos for w in demo.waypoints]
        for obs in observations:
            policy = ScriptedPolicy(demo)
            policy.predict(obs, 0)
            assert policy.cursor == int(np.argmin(np.linalg.norm(positions - obs, axis=1)))

    def test_predict_emits_full_chunk(self):
        demo = line_demo(0.008)
        policy = ScriptedPolicy(demo)
        chunk = policy.predict(demo.waypoints[0].pos, 0)
        assert chunk.emitted_at == 0
        assert len(chunk.actions) == policy.chunk_len

    @pytest.mark.parametrize("chunk_len", [0, -1, True, 2.5, "3"])
    def test_bad_chunk_len_rejected(self, chunk_len):
        # refused when the policy is built, not part-way through a rollout
        with pytest.raises(ValidationError, match="chunk_len must be an integer"):
            ScriptedPolicy(line_demo(0.008), chunk_len=chunk_len)


def scratch_rollout(policy, obs, start, steps_on):
    """Waypoint indices a chunk_len-step servo rollout targets, simulated from scratch."""
    positions = [w.pos for w in policy.reference.waypoints]
    ctrl, last = policy.ctrl, len(positions) - 1
    v, k = obs, start
    idx = []
    for _ in range(policy.chunk_len):
        idx.append(k)
        target = positions[k]
        v = servo(v, target, ctrl)
        k, steps_on = advance(k, steps_on, v, target, last, ctrl.timeout_steps,
                              ctrl.waypoint_advance_radius)
    return idx


class ScratchQueries:
    """A policy's query schedule modelled apart from it: each query's rollout
    start ``(obs, start, steps_on)``.  The observation is the one ``latency``
    queries old, the cursor the first nearest waypoint and then ``advance`` with
    T + 1, and the start the cursor plus the bimodal offset of the queries made
    so far, idle ones counted."""

    def __init__(self, policy):
        self.targets = [w.pos for w in policy.reference.waypoints]
        self.observations = []
        self.cursor = None
        self.steps_on = 0

    def query(self, policy, ee_pos):
        d, ctrl, last = policy.disturbances, policy.ctrl, len(self.targets) - 1
        self.observations.append(tuple(ee_pos))
        obs = self.observations[max(0, len(self.observations) - 1 - d.latency)]
        if self.cursor is None:
            self.cursor = int(np.argmin(np.linalg.norm(np.array(self.targets) - obs, axis=1)))
        else:
            self.cursor, self.steps_on = advance(
                self.cursor, self.steps_on, obs, self.targets[self.cursor],
                last, ctrl.timeout_steps + 1, ctrl.waypoint_advance_radius)
        queries_before = len(self.observations) - 1
        flipped = d.bimodal_period > 0 and (queries_before // d.bimodal_period) % 2
        start = min(self.cursor + (d.bimodal_gap if flipped else 0), last)
        return obs, start, self.steps_on


@pytest.fixture
def checked_chunks(monkeypatch):
    """Check every chunk ScriptedPolicy.predict emits against a scratch
    rollout from the start a :class:`ScratchQueries` model of the policy
    expects; returns the list of queries in call order, a predict's step or
    None for an idle query.  A noise-free chunk must also hold the reference's
    own Waypoint objects, which the ensembler's unanimity test relies on.  The
    scratch noise stream draws once per query, an idle one too."""
    real_rollout, real_predict, real_idle = (ScriptedPolicy._rollout, ScriptedPolicy.predict,
                                             ScriptedPolicy.idle)
    rollouts, rngs, models, queries = [], {}, {}, []

    def scratch_draw(self, shape):
        noise = self.disturbances.noise
        rng = rngs.setdefault(id(self), np.random.default_rng(self.disturbances.seed))
        return rng.uniform(-noise, noise, size=shape)

    def expected_start(self, ee_pos):
        return models.setdefault(id(self), ScratchQueries(self)).query(self, ee_pos)

    def spy_rollout(self, obs, start):
        rollouts.append(start)
        return real_rollout(self, obs, start)

    def checked_predict(self, ee_pos, t):
        chunk = real_predict(self, ee_pos, t)
        assert len(rollouts) == 1
        rollouts.clear()
        idx = scratch_rollout(self, *expected_start(self, ee_pos))
        waypoints = [self.reference.waypoints[k] for k in idx]
        pos = np.array([w.pos for w in waypoints])
        grip = np.array([w.gripper for w in waypoints])
        if self.disturbances.noise > 0:
            pos = pos + scratch_draw(self, pos.shape)
        else:
            assert all(a is w for a, w in zip(chunk.actions, waypoints))
        assert np.array_equal(np.array([a.pos for a in chunk.actions]), pos)
        assert np.array_equal(np.array([a.gripper for a in chunk.actions]), grip)
        queries.append(t)
        return chunk

    def checked_idle(self, ee_pos):
        real_idle(self, ee_pos)
        assert not rollouts   # no rollout
        expected_start(self, ee_pos)
        if self.disturbances.noise > 0:
            scratch_draw(self, (self.chunk_len, 3))
        queries.append(None)

    monkeypatch.setattr(ScriptedPolicy, "_rollout", spy_rollout)
    monkeypatch.setattr(ScriptedPolicy, "predict", checked_predict)
    monkeypatch.setattr(ScriptedPolicy, "idle", checked_idle)
    return queries


class TestIncrementalRollout:
    """The predictor extends the trail of its last rollout; its chunks must
    equal a from-scratch rollout bit for bit."""

    @pytest.mark.parametrize("task", ["push", "pick_place", "stack"])
    @pytest.mark.parametrize("disturbances", [
        DisturbanceConfig(), DisturbanceConfig(latency=3, bimodal_period=2),
        DisturbanceConfig(noise=0.01),
    ], ids=["clean", "latency_bimodal", "noise"])
    def test_chunks_equal_scratch_rollouts(self, request, checked_chunks, task, disturbances):
        demo = request.getfixturevalue(f"{task}_demo")
        _, stats = closed_loop(task, demo, 5, EnsembleConfig(), disturbances)
        # one query per step, and a chunk on every step but the suspended ones
        assert len(checked_chunks) == len(stats) > 100
        assert all(t in (None, i) for i, t in enumerate(checked_chunks))
        assert [i for i, t in enumerate(checked_chunks) if t is None] == \
               [d.t for d in stats if d.mode_used == "suspended"]

    def test_same_start_with_other_step_count_misses(self, checked_chunks):
        # waypoints 1 m apart time out after T = 2 steps; with hypotheses one
        # waypoint apart, a query can start on the trail's second position
        # and waypoint with the cursor's step count, not the rollout's
        ctrl = ControllerConfig(waypoint_timeout=0.1)
        demo = line_demo(1.0, n=12)
        policy = ScriptedPolicy(demo, chunk_len=6, ctrl=ctrl, disturbances=DisturbanceConfig(
            bimodal_period=1, bimodal_gap=1))
        pos = demo.waypoints[0].pos
        for t in range(30):
            pos = servo(pos, policy.predict(pos, t).actions[0].pos, ctrl)
        assert len(checked_chunks) == 30

    def test_clean_episode_steps_the_servo_about_once_per_query(self, push_demo, monkeypatch):
        # a fallback to full rollouts would make chunk_len = 20 kernel steps per query
        counts = {"steps": 0, "predict": 0}
        real_predict = ScriptedPolicy.predict

        def counting_track(trail, steps, *args):
            counts["steps"] += steps
            return track(trail, steps, *args)

        def counting_predict(self, ee_pos, t):
            counts["predict"] += 1
            return real_predict(self, ee_pos, t)

        monkeypatch.setattr(policy_module, "track", counting_track)
        monkeypatch.setattr(ScriptedPolicy, "predict", counting_predict)
        closed_loop("push", push_demo, 5, EnsembleConfig())
        assert counts["predict"] > 100
        assert 0 < counts["steps"] < 2 * counts["predict"]

    def test_predicted_positions_are_read_only(self):
        demo = line_demo(0.008)
        chunk = ScriptedPolicy(demo).predict(demo.waypoints[0].pos, 0)
        # a position is a tuple, so no Action sharing it can be written through
        with pytest.raises(TypeError):
            chunk.actions[0].pos[0] = 1.0
        assert type(demo.waypoints[0].pos) is tuple
