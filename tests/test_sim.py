import copy
import math

import numpy as np
import pytest

from demoaug.dataset import episode_lines
from demoaug.sim import (
    AttemptCapExceeded, ControllerConfig, SimState,
    replay, run_campaign, scene_seed_for, step,
)
from demoaug.tasks import Scene, SuccessSpec, TaskKind, recorded_scene
from demoaug.trajectory import augment_segmentwise, identity_anchors

CFG = ControllerConfig()


def bare_state(ee=(0, 0, 0.1), gripper=0.08, blocks=(), held=None):
    return SimState(ee_pos=np.asarray(ee, float), gripper=gripper,
                    blocks=np.array(blocks, float).reshape(-1, 3), held=held,
                    grasp_offset=None if held is None else np.zeros(3))


class TestStep:
    def test_fixed_point(self):
        state = bare_state(blocks=[(0.2, 0.0, 0.02)])
        out = step(state, (state.ee_pos, state.gripper), CFG)
        np.testing.assert_array_equal(out.ee_pos, state.ee_pos)
        assert out.gripper == state.gripper
        np.testing.assert_array_equal(out.blocks, state.blocks)
        assert out.time == pytest.approx(CFG.dt)

    def test_speed_clamp(self):
        # clamp(5 * 1, 0.5) * 0.05 = 0.025 along x
        state = bare_state(ee=(0, 0, 0))
        out = step(state, (np.array([1.0, 0, 0]), 0.08), CFG)
        np.testing.assert_allclose(out.ee_pos, [0.025, 0, 0], atol=1e-12)

    def test_unclamped_proportional(self):
        state = bare_state(ee=(0, 0, 0))
        out = step(state, (np.array([0.04, 0, 0]), 0.08), CFG)
        np.testing.assert_allclose(out.ee_pos, [0.01, 0, 0], atol=1e-12)

    def test_gripper_slew_limit(self):
        state = bare_state()
        out = step(state, (state.ee_pos, 0.0), CFG)
        assert out.gripper == pytest.approx(0.08 - CFG.max_gripper_speed * CFG.dt)

    def test_stability_validation(self):
        with pytest.raises(ValueError, match="unstable"):
            ControllerConfig(gain=50.0, dt=0.05)

    @pytest.mark.parametrize("name", ["gain", "max_speed", "max_gripper_speed", "dt",
                                      "waypoint_advance_radius", "waypoint_timeout",
                                      "settle_time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            ControllerConfig(**{name: value})

    def test_grasp_on_close_crossing(self):
        state = bare_state(ee=(0.2, 0.0, 0.03), gripper=0.045, blocks=[(0.2, 0.0, 0.02)])
        out = step(state, (state.ee_pos, 0.0), CFG)
        assert out.held == 0
        # held block keeps a fixed offset from the end effector afterwards
        offset = out.blocks[0] - out.ee_pos
        np.testing.assert_array_equal(out.grasp_offset, offset)
        out2 = step(out, (np.array([0.3, 0.1, 0.10]), 0.0), CFG)
        np.testing.assert_allclose(out2.blocks[0] - out2.ee_pos, offset, atol=1e-12)

    def test_no_grasp_outside_capture(self):
        state = bare_state(ee=(0.2, 0.0, 0.03), gripper=0.045, blocks=[(0.26, 0.0, 0.02)])
        out = step(state, (state.ee_pos, 0.0), CFG)
        assert out.held is None

    def test_release_drops_to_table(self):
        held = bare_state(ee=(0.1, 0.1, 0.15), gripper=0.03, blocks=[(0.1, 0.1, 0.15)], held=0)
        out = step(held, (held.ee_pos, 0.08), CFG)
        assert out.held is None and out.grasp_offset is None
        assert out.blocks[0, 2] == pytest.approx(0.02)

    def test_release_stacks_on_support(self):
        held = bare_state(ee=(0.0, 0.0, 0.06), gripper=0.03,
                          blocks=[(0.0, 0.0, 0.06), (0.005, 0.0, 0.02)], held=0)
        out = step(held, (held.ee_pos, 0.08), CFG)
        assert out.blocks[0, 2] == pytest.approx(0.06)
        assert out.blocks[1, 2] == pytest.approx(0.02)

    def test_support_removed_drops_upper(self):
        # lower block held and carried away; the one resting on it falls
        state = bare_state(ee=(0.0, 0.0, 0.02), gripper=0.03,
                           blocks=[(0.0, 0.0, 0.02), (0.0, 0.0, 0.06)], held=0)
        out = state
        for _ in range(20):
            out = step(out, (np.array([0.3, 0.0, 0.02]), 0.03), CFG)
        assert out.blocks[1, 2] == pytest.approx(0.02)

    @pytest.mark.parametrize("state, action", [
        # grasp: closing past the block width binds the block
        (bare_state(ee=(0.2, 0.0, 0.03), gripper=0.045, blocks=[(0.2, 0.0, 0.02)]),
         ((0.2, 0.0, 0.03), 0.0)),
        # carry: the lower block moves with the end effector, the upper one falls
        (bare_state(ee=(0.0, 0.0, 0.02), gripper=0.03,
                    blocks=[(0.0, 0.0, 0.02), (0.0, 0.0, 0.06)], held=0),
         ((0.3, 0.0, 0.02), 0.03)),
        # release onto a support
        (bare_state(ee=(0.0, 0.0, 0.07), gripper=0.03,
                    blocks=[(0.0, 0.0, 0.07), (0.005, 0.0, 0.02)], held=0),
         ((0.0, 0.0, 0.07), 0.08)),
    ])
    def test_leaves_input_state_unchanged(self, state, action):
        # replay keeps every state it steps through as the episode record
        before = copy.deepcopy(state)
        step(state, (np.asarray(action[0], float), action[1]), CFG)
        for name in ("ee_pos", "blocks", "grasp_offset"):
            np.testing.assert_array_equal(getattr(state, name), getattr(before, name))
        assert (state.gripper, state.held, state.time) == \
            (before.gripper, before.held, before.time)


class TestReplay:
    @pytest.mark.parametrize("task", list(TaskKind))
    def test_identity_replay_succeeds(self, task, request):
        demo = request.getfixturevalue(f"{task.value}_demo")
        aug = augment_segmentwise(demo, identity_anchors(demo))
        ep = replay(aug, recorded_scene(demo))
        assert ep.success

    def test_displaced_grasp_fails_without_touching_block(self, pick_place_demo):
        demo = pick_place_demo
        scene = recorded_scene(demo)
        shifted = Scene(block_starts=(scene.block_starts[0] + np.array([0.10, 0, 0]),),
                        block_goals=scene.block_goals, seed=0)
        aug = augment_segmentwise(demo, identity_anchors(demo))
        ep = replay(aug, shifted)
        assert not ep.success
        assert all(s.held is None for s in ep.states)

    def test_deterministic(self, push_demo):
        aug = augment_segmentwise(push_demo, identity_anchors(push_demo))
        scene = recorded_scene(push_demo)
        a = replay(aug, scene)
        b = replay(aug, scene)
        assert episode_lines(a) == episode_lines(b)
        assert a.success == b.success

    def test_physical_sanity_and_boundedness(self, stack_demo):
        aug = augment_segmentwise(stack_demo, identity_anchors(stack_demo))
        ep = replay(aug, recorded_scene(stack_demo))
        prev = None
        for state in ep.states:
            for i, pos in enumerate(state.blocks):
                if i != state.held:
                    assert pos[2] >= 0.02 - 1e-9
            if prev is not None:
                moved = np.linalg.norm(state.ee_pos - prev.ee_pos)
                assert moved <= CFG.max_speed * CFG.dt + 1e-12
            prev = state

    def test_held_block_keeps_fixed_offset(self, pick_place_demo):
        aug = augment_segmentwise(pick_place_demo, identity_anchors(pick_place_demo))
        ep = replay(aug, recorded_scene(pick_place_demo))
        offsets = [s.blocks[0] - s.ee_pos for s in ep.states if s.held == 0]
        assert offsets, "block was never held"
        for off in offsets[1:]:
            np.testing.assert_allclose(off, offsets[0], atol=1e-12)


class TestCampaign:
    def test_exact_count_and_filter_soundness(self, push_demo):
        ds = run_campaign(push_demo, TaskKind.PUSH, count=8, rng_seed=11)
        assert ds.successes == 8
        assert all(ep.success for ep in ds.episodes)
        assert ds.complete

    def test_single_episode_reproducible(self, pick_place_demo):
        a = run_campaign(pick_place_demo, TaskKind.PICK_PLACE, count=1, rng_seed=42)
        b = run_campaign(pick_place_demo, TaskKind.PICK_PLACE, count=1, rng_seed=42)
        assert episode_lines(a.episodes[0]) == episode_lines(b.episodes[0])

    def test_count_validation(self, push_demo):
        with pytest.raises(ValueError):
            run_campaign(push_demo, TaskKind.PUSH, count=0, rng_seed=0)

    def test_attempt_cap_validation(self, push_demo):
        with pytest.raises(ValueError, match="attempt_cap"):
            run_campaign(push_demo, TaskKind.PUSH, count=1, rng_seed=0, attempt_cap=0)

    def test_attempt_cap_carries_partial_dataset(self, push_demo):
        impossible = SuccessSpec(push=1e-9, pick_place=1e-9, stack=1e-9)
        with pytest.raises(AttemptCapExceeded) as info:
            run_campaign(push_demo, TaskKind.PUSH, count=3, rng_seed=0,
                         spec=impossible, attempt_cap=5)
        partial = info.value.dataset
        assert not partial.complete
        assert partial.attempts == 5
        assert partial.successes == 0
        assert partial.discard_rate == 1.0

    def test_provenance_records_warp(self, pick_place_demo):
        ds = run_campaign(pick_place_demo, TaskKind.PICK_PLACE, count=2, rng_seed=9)
        for ep in ds.episodes:
            prov = ep.provenance
            assert set(prov) >= {"attempt", "scene_seed", "anchors", "transforms"}
            assert prov["transforms"][0]["scale"] > 0
            assert prov["scene_seed"] == scene_seed_for(9, prov["attempt"])
