import numpy as np
import pytest

from demoaug.sim import (
    AttemptCapExceeded, BlockState, ControllerConfig, GraspModel, SimState,
    initial_state, replay, run_campaign, scene_seed_for, step,
)
from demoaug.tasks import Scene, SuccessSpec, TaskKind, Workspace, recorded_scene
from demoaug.trajectory import augment_segmentwise, identity_anchors

CFG = ControllerConfig()
GRASP = GraspModel()


def bare_state(ee=(0, 0, 0.1), gripper=0.08, blocks=()):
    return SimState(ee_pos=np.asarray(ee, float), gripper=gripper,
                    blocks=tuple(BlockState(pos=np.asarray(p, float)) for p in blocks))


class TestStep:
    def test_fixed_point(self):
        state = bare_state(blocks=[(0.2, 0.0, 0.02)])
        out = step(state, (state.ee_pos, state.gripper), CFG, GRASP)
        np.testing.assert_array_equal(out.ee_pos, state.ee_pos)
        assert out.gripper == state.gripper
        np.testing.assert_array_equal(out.blocks[0].pos, state.blocks[0].pos)
        assert out.time == pytest.approx(CFG.dt)

    def test_speed_clamp(self):
        # clamp(5 * 1, 0.5) * 0.05 = 0.025 along x
        state = bare_state(ee=(0, 0, 0))
        out = step(state, (np.array([1.0, 0, 0]), 0.08), CFG, GRASP)
        np.testing.assert_allclose(out.ee_pos, [0.025, 0, 0], atol=1e-12)

    def test_unclamped_proportional(self):
        state = bare_state(ee=(0, 0, 0))
        out = step(state, (np.array([0.04, 0, 0]), 0.08), CFG, GRASP)
        np.testing.assert_allclose(out.ee_pos, [0.01, 0, 0], atol=1e-12)

    def test_gripper_slew_limit(self):
        state = bare_state()
        out = step(state, (state.ee_pos, 0.0), CFG, GRASP)
        assert out.gripper == pytest.approx(0.08 - CFG.max_gripper_speed * CFG.dt)

    def test_stability_validation(self):
        with pytest.raises(ValueError, match="unstable"):
            ControllerConfig(gain=50.0, dt=0.05)

    def test_grasp_on_close_crossing(self):
        state = bare_state(ee=(0.2, 0.0, 0.03), gripper=0.045, blocks=[(0.2, 0.0, 0.02)])
        out = step(state, (state.ee_pos, 0.0), CFG, GRASP)
        assert out.blocks[0].held
        # held block keeps a fixed offset from the end effector afterwards
        offset = out.blocks[0].pos - out.ee_pos
        out2 = step(out, (np.array([0.3, 0.1, 0.10]), 0.0), CFG, GRASP)
        np.testing.assert_allclose(out2.blocks[0].pos - out2.ee_pos, offset, atol=1e-12)

    def test_no_grasp_outside_capture(self):
        state = bare_state(ee=(0.2, 0.0, 0.03), gripper=0.045, blocks=[(0.26, 0.0, 0.02)])
        out = step(state, (state.ee_pos, 0.0), CFG, GRASP)
        assert not out.blocks[0].held

    def test_release_drops_to_table(self):
        held = SimState(ee_pos=np.array([0.1, 0.1, 0.15]), gripper=0.03,
                        blocks=(BlockState(pos=np.array([0.1, 0.1, 0.15]), held=True,
                                           grasp_offset=np.zeros(3)),))
        out = step(held, (held.ee_pos, 0.08), CFG, GRASP)
        assert not out.blocks[0].held
        assert out.blocks[0].pos[2] == pytest.approx(0.02)

    def test_release_stacks_on_support(self):
        held = SimState(ee_pos=np.array([0.0, 0.0, 0.06]), gripper=0.03,
                        blocks=(BlockState(pos=np.array([0.0, 0.0, 0.06]), held=True,
                                           grasp_offset=np.zeros(3)),
                                BlockState(pos=np.array([0.005, 0.0, 0.02]))))
        out = step(held, (held.ee_pos, 0.08), CFG, GRASP)
        assert out.blocks[0].pos[2] == pytest.approx(0.06)
        assert out.blocks[1].pos[2] == pytest.approx(0.02)

    def test_support_removed_drops_upper(self):
        # lower block held and carried away; the one resting on it falls
        state = SimState(ee_pos=np.array([0.0, 0.0, 0.02]), gripper=0.03,
                         blocks=(BlockState(pos=np.array([0.0, 0.0, 0.02]), held=True,
                                            grasp_offset=np.zeros(3)),
                                 BlockState(pos=np.array([0.0, 0.0, 0.06]))))
        out = state
        for _ in range(20):
            out = step(out, (np.array([0.3, 0.0, 0.02]), 0.03), CFG, GRASP)
        assert out.blocks[1].pos[2] == pytest.approx(0.02)


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
        assert not any(any(h) for h in (s.block_held for s in ep.steps))

    def test_deterministic(self, push_demo):
        aug = augment_segmentwise(push_demo, identity_anchors(push_demo))
        scene = recorded_scene(push_demo)
        a = replay(aug, scene)
        b = replay(aug, scene)
        assert a.steps == b.steps
        assert a.success == b.success

    def test_physical_sanity_and_boundedness(self, stack_demo):
        aug = augment_segmentwise(stack_demo, identity_anchors(stack_demo))
        ep = replay(aug, recorded_scene(stack_demo))
        prev = None
        for rec in ep.steps:
            for pos, held in zip(rec.block_positions, rec.block_held):
                if not held:
                    assert pos[2] >= 0.02 - 1e-9
            if prev is not None:
                moved = np.linalg.norm(np.array(rec.ee_pos) - np.array(prev.ee_pos))
                assert moved <= CFG.max_speed * CFG.dt + 1e-12
            prev = rec

    def test_held_block_keeps_fixed_offset(self, pick_place_demo):
        aug = augment_segmentwise(pick_place_demo, identity_anchors(pick_place_demo))
        ep = replay(aug, recorded_scene(pick_place_demo))
        offsets = [np.array(r.block_positions[0]) - np.array(r.ee_pos)
                   for r in ep.steps if r.block_held[0]]
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
        assert a.episodes[0].steps == b.episodes[0].steps

    def test_count_validation(self, push_demo):
        with pytest.raises(ValueError):
            run_campaign(push_demo, TaskKind.PUSH, count=0, rng_seed=0)

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
