import math
from fractions import Fraction

import numpy as np
import pytest

from demoaug.sim import SimState
from demoaug.tasks import (
    BLOCK_SIZE, SamplingExhausted, Scene, SuccessSpec, TaskKind, Workspace,
    anchors_for_scene, recorded_scene, sample_scene, success,
)
from demoaug.trajectory import SegmentMismatch, ValidationError


def state_with_blocks(positions):
    return SimState(ee_pos=(0.0, 0.0, 0.0), gripper=0.08,
                    blocks=tuple(tuple(map(float, p)) for p in positions))


class TestConfig:
    @pytest.mark.parametrize("kwargs, field", [
        ({"side": math.nan}, "side"), ({"side": math.inf}, "side"),
        ({"side": 0.0}, "side"), ({"pick_goal_z": (0.02, math.nan)}, "pick_goal_z"),
        ({"pick_goal_z": (0.2, 0.0)}, "pick_goal_z is inverted"),
    ])
    def test_bad_workspace_rejected(self, kwargs, field):
        with pytest.raises(ValidationError, match=field):
            Workspace(**kwargs)

    @pytest.mark.parametrize("band", [[0.02, 0.2], np.array([0.02, 0.2]),
                                      (np.float32(0.5), np.int64(1))],
                             ids=["list", "ndarray", "numpy_scalars"])
    def test_pick_goal_z_stored_as_a_float_pair(self, band):
        ws = Workspace(pick_goal_z=band)
        twin = Workspace(pick_goal_z=tuple(map(float, band)))
        assert ws == twin and hash(ws) == hash(twin)
        assert type(ws.pick_goal_z) is tuple and [type(z) for z in ws.pick_goal_z] == [float] * 2
        assert sample_scene(TaskKind.PICK_PLACE, ws, 7) == sample_scene(TaskKind.PICK_PLACE,
                                                                         twin, 7)

    @pytest.mark.parametrize("name", ["push", "pick_place", "stack"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.05])
    def test_bad_success_cutoff_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SuccessSpec(**{name: value})

    @pytest.mark.parametrize("starts, goals, match", [
        (([0.1, 0.2],), ([math.nan, 0.0, 0.02],), "block_starts row 0"),
        (([0.1, 0.2, 0.02],), ([math.nan, 0.0, 0.02],), "block_goals row 0"),
        (([0.1, 0.2, 0.02], [0.3, 0.2, math.inf]), ([0.0, 0.0, 0.02], [0.0, 0.0, 0.06]),
         "block_starts row 1"),
        (([0.1, 0.2, 0.02],), ([0.0, 0.0, 0.02, 0.0],), "block_goals row 0"),
        (([0.1, 0.2, 0.02],), ([0.0, "0.1", 0.02],), "block_goals row 0"),
        (([0.1, 0.2, 0.02],), (0.5,), "block_goals row 0"),
        (([0.1, 0.2, 0.02],), ([0.0, 0.0, 0.02], [0.0, 0.0, 0.06]),
         "1 block_starts but 2 block_goals"),
    ])
    def test_bad_scene_rejected(self, starts, goals, match):
        # sim.replay would fail part-way on each of these, or grade a block
        # against no goal
        with pytest.raises(ValueError, match=match):
            Scene(block_starts=starts, block_goals=goals)


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
            assert np.linalg.norm(np.subtract(start, goal)) >= min_sep
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
            assert np.linalg.norm(np.subtract(s1, s2)) >= 2 * BLOCK_SIZE
            np.testing.assert_array_equal(g1[:2], g2[:2])
            assert g1[2] == pytest.approx(0.02)
            assert g2[2] == pytest.approx(0.06)
            for s in (s1, s2):
                assert np.linalg.norm(np.subtract(s[:2], g1[:2])) >= 2 * BLOCK_SIZE

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

    def test_demo_of_another_task_rejected(self, pick_place_demo):
        scene = sample_scene(TaskKind.PUSH, Workspace(), 5)
        with pytest.raises(ValidationError, match="^demo task is 'pick_place', not 'push'$"):
            anchors_for_scene(TaskKind.PUSH, pick_place_demo, scene)

    def test_degenerate_scene_rejected(self, pick_place_demo):
        block = (0.1, 0.1, 0.02)
        scene = Scene(block_starts=(block,), block_goals=(block,))
        with pytest.raises(ValidationError):
            anchors_for_scene(TaskKind.PICK_PLACE, pick_place_demo, scene)

    def test_recorded_scene_matches_annotations(self, stack_demo):
        scene = recorded_scene(stack_demo)
        np.testing.assert_array_equal(scene.block_starts[0], stack_demo.segments[0].anchor_start)
        np.testing.assert_array_equal(scene.block_goals[1], stack_demo.segments[1].anchor_goal)


class TestSuccess:
    def test_exact_hit(self):
        scene = Scene(block_starts=([0, 0, 0.02],), block_goals=([0.1, 0.1, 0.02],))
        assert success(TaskKind.PUSH, state_with_blocks([[0.1, 0.1, 0.02]]), scene)

    def test_cutoff_is_five_centimeters(self):
        goal = (0.0, 0.0, 0.02)
        scene = Scene(block_starts=([0.2, 0, 0.02],), block_goals=(goal,))
        just_inside = state_with_blocks([np.add(goal, [0.05, 0, 0])])
        just_outside = state_with_blocks([np.add(goal, [0.051, 0, 0])])
        assert success(TaskKind.PICK_PLACE, just_inside, scene)
        assert not success(TaskKind.PICK_PLACE, just_outside, scene)

    def test_stack_requires_both_blocks(self):
        goals = (np.array([0.0, 0.0, 0.02]), np.array([0.0, 0.0, 0.06]))
        scene = Scene(block_starts=([0.1, 0, 0.02], [0.2, 0, 0.02]),
                      block_goals=goals)
        ok = state_with_blocks([goals[0] + [0.03, 0, 0], goals[1] + [0.039, 0, 0]])
        bad = state_with_blocks([goals[0] + [0.03, 0, 0], goals[1] + [0.05, 0, 0]])
        assert success(TaskKind.STACK, ok, scene)
        assert not success(TaskKind.STACK, bad, scene)

    def test_monotone_in_distance(self):
        # shrinking every block-to-goal distance never flips success off
        rng = np.random.default_rng(3)
        goals = (np.array([0.0, 0.0, 0.02]), np.array([0.0, 0.0, 0.06]))
        scene = Scene(block_starts=([0.1, 0, 0.02], [0.2, 0, 0.02]),
                      block_goals=goals)
        for _ in range(200):
            offsets = rng.uniform(-0.08, 0.08, size=(2, 3))
            far = state_with_blocks([g + o for g, o in zip(goals, offsets)])
            near = state_with_blocks([g + 0.5 * o for g, o in zip(goals, offsets)])
            if success(TaskKind.STACK, far, scene):
                assert success(TaskKind.STACK, near, scene)

    def test_cutoff_compares_the_left_to_right_distance(self):
        """The block-to-goal distance is ``math.sqrt(x*x + y*y + z*z)``, summed
        left to right as ``sim`` takes lengths.  Only pairs whose squared
        distance differs from the fused chain ``fma(z, z, fma(y, y, x*x))``
        (a BLAS ``ddot`` with FMA) are kept, so grading by ``np.linalg.norm``
        fails here on a machine whose BLAS fuses."""
        def fused(x, y, z):
            inner = float(Fraction(y) ** 2 + Fraction(x * x))  # each fma rounds once
            return float(Fraction(z) ** 2 + Fraction(inner))

        pairs = np.random.default_rng(4).uniform(-0.05, 0.05, size=(4000, 2, 3))
        checked = 0
        for block, goal in pairs:
            x, y, z = (block - goal).tolist()
            if x * x + y * y + z * z == fused(x, y, z):
                continue
            checked += 1
            d = math.sqrt(x * x + y * y + z * z)
            scene = Scene(block_starts=([0.3, 0.3, 0.02],), block_goals=(goal,))
            state = state_with_blocks([block])
            assert success(TaskKind.PUSH, state, scene, SuccessSpec(push=d))
            assert not success(TaskKind.PUSH, state, scene,
                               SuccessSpec(push=math.nextafter(d, 0.0)))
        assert checked > 100

    def test_custom_spec_threshold(self):
        scene = Scene(block_starts=([0, 0, 0.02],), block_goals=([0.1, 0.0, 0.02],))
        state = state_with_blocks([[0.13, 0.0, 0.02]])
        assert not success(TaskKind.PUSH, state, scene, SuccessSpec(push=0.02))
        assert success(TaskKind.PUSH, state, scene, SuccessSpec(push=0.04))
