import math
import statistics

import numpy as np
import pytest

from demoaug.ensemble import Action, EnsembleConfig, EnsembleMode, compute_k
from demoaug.evaluation import run_closed_loop_episode
from demoaug.policy import DisturbanceConfig, ScriptedPolicy
from demoaug.sim import ControllerConfig, replay
from demoaug.tasks import Scene
from demoaug.trajectory import DemoTrajectory, Segment, Waypoint


def line_demo(spacing, n=60, gripper=0.08):
    """Straight line along x with uniform waypoint spacing."""
    wps = tuple(Waypoint(time=0.05 * i, position=np.array([i * spacing, 0.0, 0.05]),
                         gripper=gripper) for i in range(n))
    seg = Segment(label="line", start=0, stop=n,
                  anchor_start=wps[0].position, anchor_goal=wps[-1].position)
    return DemoTrajectory(waypoints=wps, segments=(seg,), task="push")


class TestTracking:
    def test_deterministic(self):
        demo = line_demo(0.008)
        a = ScriptedPolicy(demo, disturbances=DisturbanceConfig(noise=0.01, seed=4))
        b = ScriptedPolicy(demo, disturbances=DisturbanceConfig(noise=0.01, seed=4))
        for t in range(10):
            obs = demo.waypoints[min(t, 59)].position
            ca, cb = a.predict(obs, t), b.predict(obs, t)
            for x, y in zip(ca.actions, cb.actions):
                np.testing.assert_array_equal(x.pos, y.pos)
                assert x.gripper == y.gripper

    def test_cursor_follows_observed_progress(self):
        demo = line_demo(0.008)
        policy = ScriptedPolicy(demo)
        for t in range(20):
            policy.predict(demo.waypoints[t].position, t)
        # arrival every step advances the cursor one waypoint per emission
        assert policy.cursor == 19

    def test_finished_at_end(self):
        demo = line_demo(0.008, n=10)
        policy = ScriptedPolicy(demo)
        end = demo.waypoints[-1].position
        assert not policy.finished(end)
        for t in range(30):
            policy.predict(end if t > 10 else demo.waypoints[min(t, 9)].position, t)
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
        targets = [round(x) for x in ep.action_pos[:, 0]]
        held = [k for k in range(1, self.N) for _ in range(2)]
        assert targets == [0] + held + [self.N - 1] * self.CTRL.settle_steps

    def test_rollout_holds_each_waypoint_t_steps(self):
        demo = self.demo()
        policy = ScriptedPolicy(demo, chunk_len=9, ctrl=self.CTRL)
        chunk = policy.predict(demo.waypoints[0].position, 0)
        assert [round(a.pos[0]) for a in chunk.actions] == [0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_cursor_holds_each_waypoint_t_plus_one_queries(self):
        demo = self.demo()
        policy = ScriptedPolicy(demo, ctrl=self.CTRL)
        cursors = []
        for t in range(13):
            policy.predict(demo.waypoints[0].position, t)
            cursors.append(policy.cursor)
        assert cursors == [0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]


class TestZeroDisturbance:
    def test_consecutive_chunks_time_consistent(self, pick_place_demo):
        # predictions for the same future step agree, so spread stays at zero
        ok, stats = run_closed_loop_episode(
            "pick_place", pick_place_demo, seed=99,
            cfg=EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0),
            collect_diagnostics=True)
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
        obs = demo.waypoints[0].position
        chunks = [policy.predict(obs, t) for t in range(4)]
        # once the cursor settles, emissions alternate between plans offset
        # by exactly `gap` waypoints
        a, b = chunks[2].actions[0].pos, chunks[3].actions[0].pos
        assert abs(b[0] - a[0]) == pytest.approx(gap * spacing, abs=1e-12)

    def test_period_two_flips_every_other_emission(self):
        demo = line_demo(0.05)
        policy = ScriptedPolicy(demo, disturbances=DisturbanceConfig(
            bimodal_period=2, bimodal_gap=3))
        obs = demo.waypoints[0].position
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
            obs = demo.waypoints[t].position
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

    def test_latency_creates_disagreement_in_closed_loop(self, pick_place_demo):
        ok, stats = run_closed_loop_episode(
            "pick_place", pick_place_demo, seed=3,
            cfg=EnsembleConfig(mode=EnsembleMode.DYNAMIC_K, beta=1.0),
            disturbances=DisturbanceConfig(latency=3),
            collect_diagnostics=True)
        measured = [s.k_p for s in stats if s.mode_used == "dynamic_k"]
        assert max(measured) > 0.0


class TestDisturbanceConfig:
    @pytest.mark.parametrize("name, value", [
        ("latency", -1), ("bimodal_period", -1), ("bimodal_gap", -1),
        ("noise", -0.001), ("noise", math.nan), ("noise", math.inf),
    ])
    def test_bad_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            DisturbanceConfig(**{name: value})


class TestNoise:
    def test_amplitude_bound(self):
        demo = line_demo(0.008)
        eta = 0.004
        noisy = ScriptedPolicy(demo, disturbances=DisturbanceConfig(noise=eta, seed=8))
        clean = ScriptedPolicy(demo)
        for t in range(10):
            obs = demo.waypoints[t].position
            cn = noisy.predict(obs, t)
            cc = clean.predict(obs, t)
            diffs = np.array([n.pos - c.pos for n, c in zip(cn.actions, cc.actions)])
            assert np.all(np.abs(diffs) <= eta)
        assert np.any(diffs != 0)

    def test_predict_emits_full_chunk(self):
        demo = line_demo(0.008)
        policy = ScriptedPolicy(demo)
        chunk = policy.predict(demo.waypoints[0].position, 0)
        assert chunk.emitted_at == 0
        assert len(chunk.actions) == policy.chunk_len
