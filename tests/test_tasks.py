import math

import numpy as np
import pytest

from demoaug.sim import SimState
from demoaug.tasks import (
    BLOCK_SIZE, SamplingExhausted, Scene, SuccessSpec, TaskKind, Workspace,
    anchors_for_scene, recorded_scene, sample_scene, success,
)
from demoaug.trajectory import SegmentMismatch, ValidationError


def state_with_blocks(positions):
    return SimState(ee_pos=np.zeros(3), gripper=0.08, blocks=np.array(positions, float))


class TestConfig:
    @pytest.mark.parametrize("kwargs, field", [
        ({"side": math.nan}, "side"), ({"side": math.inf}, "side"),
        ({"side": 0.0}, "side"), ({"pick_goal_z": (0.0, math.nan)}, "pick_goal_z"),
        ({"pick_goal_z": (0.2, 0.0)}, "pick goal z"),
    ])
    def test_bad_workspace_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            Workspace(**kwargs)

    @pytest.mark.parametrize("name", ["push", "pick_place", "stack"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.05])
    def test_bad_success_cutoff_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SuccessSpec(**{name: value})


class TestSampling:
    @pytest.mark.parametrize("task", list(TaskKind))
    def test_same_seed_same_scene(self, task):
        a = sample_scene(task, Workspace(), 1234)
        b = sample_scene(task, Workspace(), 1234)
        for pa, pb in zip(a.block_starts + a.block_goals, b.block_starts + b.block_goals):
            np.testing.assert_array_equal(pa, pb)

    def test_push_goals_planar(self):
        for seed in range(200):
            scene = sample_scene(TaskKind.PUSH, Workspace(), seed)
            assert scene.block_goals[0][2] == pytest.approx(BLOCK_SIZE / 2)
            assert scene.block_starts[0][2] == pytest.approx(BLOCK_SIZE / 2)

    def test_pick_place_bulk_statistics(self):
        ws = Workspace()
        min_sep = 2 * BLOCK_SIZE
        xs, zs = [], []
        for seed in range(10_000):
            scene = sample_scene(TaskKind.PICK_PLACE, ws, seed)
            start, goal = scene.block_starts[0], scene.block_goals[0]
            assert np.all(np.abs(start[:2]) <= ws.half)
            assert np.all(np.abs(goal[:2]) <= ws.half)
            assert ws.pick_goal_z[0] <= goal[2] <= ws.pick_goal_z[1]
            assert np.linalg.norm(start - goal) >= min_sep
            xs.append(goal[0])
            zs.append(goal[2])
        # uniform coverage reaches near the extremes
        assert min(xs) < -0.85 * ws.half and max(xs) > 0.85 * ws.half
        assert min(zs) < 0.02 and max(zs) > 0.18

    def test_stack_geometry(self):
        for seed in range(300):
            scene = sample_scene(TaskKind.STACK, Workspace(), seed)
            s1, s2 = scene.block_starts
            g1, g2 = scene.block_goals
            assert np.linalg.norm(s1 - s2) >= 2 * BLOCK_SIZE
            np.testing.assert_array_equal(g1[:2], g2[:2])
            assert g1[2] == pytest.approx(0.02)
            assert g2[2] == pytest.approx(0.06)
            for s in (s1, s2):
                assert np.linalg.norm(s[:2] - g1[:2]) >= 2 * BLOCK_SIZE

    def test_exhaustion_on_tiny_workspace(self):
        with pytest.raises(SamplingExhausted):
            sample_scene(TaskKind.STACK, Workspace(side=0.01), 0)


class TestAnchors:
    def test_pick_place_pair(self, pick_place_demo):
        scene = sample_scene(TaskKind.PICK_PLACE, Workspace(), 5)
        pairs = anchors_for_scene(TaskKind.PICK_PLACE, pick_place_demo, scene)
        assert len(pairs) == 1
        np.testing.assert_array_equal(pairs[0].g_s, scene.block_starts[0])
        np.testing.assert_array_equal(pairs[0].g_g, scene.block_goals[0])
        np.testing.assert_array_equal(pairs[0].r_s, pick_place_demo.segments[0].anchor_start)

    def test_stack_second_pair_upper_goal(self, stack_demo):
        scene = sample_scene(TaskKind.STACK, Workspace(), 5)
        pairs = anchors_for_scene(TaskKind.STACK, stack_demo, scene)
        assert len(pairs) == 2
        assert pairs[1].g_g[2] == pytest.approx(0.06)

    def test_segment_mismatch(self, stack_demo):
        scene = sample_scene(TaskKind.PUSH, Workspace(), 5)
        with pytest.raises(SegmentMismatch):
            anchors_for_scene(TaskKind.PUSH, stack_demo, scene)

    def test_degenerate_scene_rejected(self, pick_place_demo):
        block = np.array([0.1, 0.1, 0.02])
        scene = Scene(block_starts=(block,), block_goals=(block.copy(),), seed=0)
        with pytest.raises(ValidationError):
            anchors_for_scene(TaskKind.PICK_PLACE, pick_place_demo, scene)

    def test_recorded_scene_matches_annotations(self, stack_demo):
        scene = recorded_scene(stack_demo)
        np.testing.assert_array_equal(scene.block_starts[0], stack_demo.segments[0].anchor_start)
        np.testing.assert_array_equal(scene.block_goals[1], stack_demo.segments[1].anchor_goal)


class TestSuccess:
    def test_exact_hit(self):
        scene = Scene(block_starts=([0, 0, 0.02],), block_goals=([0.1, 0.1, 0.02],), seed=0)
        assert success(TaskKind.PUSH, state_with_blocks([[0.1, 0.1, 0.02]]), scene)

    def test_cutoff_is_five_centimeters(self):
        goal = np.array([0.0, 0.0, 0.02])
        scene = Scene(block_starts=([0.2, 0, 0.02],), block_goals=(goal,), seed=0)
        just_inside = state_with_blocks([goal + [0.05, 0, 0]])
        just_outside = state_with_blocks([goal + [0.051, 0, 0]])
        assert success(TaskKind.PICK_PLACE, just_inside, scene)
        assert not success(TaskKind.PICK_PLACE, just_outside, scene)

    def test_stack_requires_both_blocks(self):
        goals = (np.array([0.0, 0.0, 0.02]), np.array([0.0, 0.0, 0.06]))
        scene = Scene(block_starts=([0.1, 0, 0.02], [0.2, 0, 0.02]),
                      block_goals=goals, seed=0)
        ok = state_with_blocks([goals[0] + [0.03, 0, 0], goals[1] + [0.039, 0, 0]])
        bad = state_with_blocks([goals[0] + [0.03, 0, 0], goals[1] + [0.05, 0, 0]])
        assert success(TaskKind.STACK, ok, scene)
        assert not success(TaskKind.STACK, bad, scene)

    def test_monotone_in_distance(self):
        # shrinking every block-to-goal distance never flips success off
        rng = np.random.default_rng(3)
        goals = (np.array([0.0, 0.0, 0.02]), np.array([0.0, 0.0, 0.06]))
        scene = Scene(block_starts=([0.1, 0, 0.02], [0.2, 0, 0.02]),
                      block_goals=goals, seed=0)
        for _ in range(200):
            offsets = rng.uniform(-0.08, 0.08, size=(2, 3))
            far = state_with_blocks([g + o for g, o in zip(goals, offsets)])
            near = state_with_blocks([g + 0.5 * o for g, o in zip(goals, offsets)])
            if success(TaskKind.STACK, far, scene):
                assert success(TaskKind.STACK, near, scene)

    def test_custom_spec_threshold(self):
        scene = Scene(block_starts=([0, 0, 0.02],), block_goals=([0.1, 0.0, 0.02],), seed=0)
        state = state_with_blocks([[0.13, 0.0, 0.02]])
        assert not success(TaskKind.PUSH, state, scene, SuccessSpec(push=0.02))
        assert success(TaskKind.PUSH, state, scene, SuccessSpec(push=0.04))
