import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoaug import sim, trajectory
from demoaug.dataset import episode_lines, write_dataset
from demoaug.sim import (
    ControllerConfig, SimState,
    advance, initial_state, replay, run_campaign, scene_seed_for, servo, step, track,
)
from demoaug.tasks import (Scene, SuccessSpec, TaskKind, Workspace, anchors_for_scene,
                           recorded_scene, sample_scene)
from demoaug.trajectory import Action, ValidationError, augment_segmentwise

CFG = ControllerConfig()


def bare_state(ee=(0, 0, 0.1), gripper=0.08, blocks=(), held=None):
    return SimState(ee_pos=tuple(map(float, ee)), gripper=gripper,
                    blocks=tuple(tuple(map(float, b)) for b in blocks), held=held,
                    grasp_offset=None if held is None else (0.0, 0.0, 0.0))


class TestStep:
    def test_fixed_point(self):
        state = bare_state(blocks=[(0.2, 0.0, 0.02)])
        out = step(state, Action(state.ee_pos, state.gripper), CFG)
        np.testing.assert_array_equal(out.ee_pos, state.ee_pos)
        assert out.gripper == state.gripper
        np.testing.assert_array_equal(out.blocks, state.blocks)
        assert out.blocks[0] is state.blocks[0]  # a block that did not move keeps its row
        assert out.time == pytest.approx(CFG.dt)

    def test_speed_clamp(self):
        # clamp(5 * 1, 0.5) * 0.05 = 0.025 along x
        state = bare_state(ee=(0, 0, 0))
        out = step(state, Action((1.0, 0.0, 0.0), 0.08), CFG)
        np.testing.assert_allclose(out.ee_pos, [0.025, 0, 0], atol=1e-12)

    def test_unclamped_proportional(self):
        state = bare_state(ee=(0, 0, 0))
        out = step(state, Action((0.04, 0.0, 0.0), 0.08), CFG)
        np.testing.assert_allclose(out.ee_pos, [0.01, 0, 0], atol=1e-12)

    def test_gripper_slew_limit(self):
        state = bare_state()
        out = step(state, Action(state.ee_pos, 0.0), CFG)
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
        out = step(state, Action(state.ee_pos, 0.0), CFG)
        assert out.held == 0
        # held block keeps a fixed offset from the end effector afterwards
        offset = np.subtract(out.blocks[0], out.ee_pos)
        np.testing.assert_array_equal(out.grasp_offset, offset)
        out2 = step(out, Action((0.3, 0.1, 0.10), 0.0), CFG)
        np.testing.assert_allclose(np.subtract(out2.blocks[0], out2.ee_pos), offset, atol=1e-12)

    def test_no_grasp_outside_capture(self):
        state = bare_state(ee=(0.2, 0.0, 0.03), gripper=0.045, blocks=[(0.26, 0.0, 0.02)])
        out = step(state, Action(state.ee_pos, 0.0), CFG)
        assert out.held is None

    def test_release_drops_to_table(self):
        held = bare_state(ee=(0.1, 0.1, 0.15), gripper=0.03, blocks=[(0.1, 0.1, 0.15)], held=0)
        out = step(held, Action(held.ee_pos, 0.08), CFG)
        assert out.held is None and out.grasp_offset is None
        assert out.blocks[0][2] == pytest.approx(0.02)

    def test_release_stacks_on_support(self):
        held = bare_state(ee=(0.0, 0.0, 0.06), gripper=0.03,
                          blocks=[(0.0, 0.0, 0.06), (0.005, 0.0, 0.02)], held=0)
        out = step(held, Action(held.ee_pos, 0.08), CFG)
        assert out.blocks[0][2] == pytest.approx(0.06)
        assert out.blocks[1][2] == pytest.approx(0.02)

    def test_support_removed_drops_upper(self):
        # lower block held and carried away; the one resting on it falls
        state = bare_state(ee=(0.0, 0.0, 0.02), gripper=0.03,
                           blocks=[(0.0, 0.0, 0.02), (0.0, 0.0, 0.06)], held=0)
        out = state
        for _ in range(20):
            out = step(out, Action((0.3, 0.0, 0.02), 0.03), CFG)
        assert out.blocks[1][2] == pytest.approx(0.02)

    @pytest.mark.parametrize("state, action", [
        # grasp: closing past the block width binds the block
        (bare_state(ee=(0.2, 0.0, 0.03), gripper=0.045, blocks=[(0.2, 0.0, 0.02)]),
         Action((0.2, 0.0, 0.03), 0.0)),
        # carry: the lower block moves with the end effector, the upper one falls
        (bare_state(ee=(0.0, 0.0, 0.02), gripper=0.03,
                    blocks=[(0.0, 0.0, 0.02), (0.0, 0.0, 0.06)], held=0),
         Action((0.3, 0.0, 0.02), 0.03)),
        # release onto a support
        (bare_state(ee=(0.0, 0.0, 0.07), gripper=0.03,
                    blocks=[(0.0, 0.0, 0.07), (0.005, 0.0, 0.02)], held=0),
         Action((0.0, 0.0, 0.07), 0.08)),
    ])
    def test_leaves_input_state_unchanged(self, state, action):
        # replay keeps every state it steps through as the episode record
        before = copy.deepcopy(state)
        step(state, action, CFG)
        for name in ("ee_pos", "blocks", "grasp_offset"):
            np.testing.assert_array_equal(getattr(state, name), getattr(before, name))
        assert (state.gripper, state.held, state.time) == \
            (before.gripper, before.held, before.time)


def at_rest(blocks) -> bool:
    """Whether settling leaves every block row the very object it was."""
    rows = list(blocks)
    sim._settle(rows, None)
    return all(a is b for a, b in zip(rows, blocks))


class TestSettling:
    """Blocks at rest stay at rest until one is held, so a step settles only
    when a block is held before or after it, and every state the module
    produces without a held block is at rest."""

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_sampled_initial_states_are_at_rest(self, task, request):
        demo = request.getfixturevalue(f"{task.value}_demo")
        for seed in range(200):
            scene = sample_scene(task, Workspace(), seed)
            state = initial_state(demo, scene)
            assert state.blocks == scene.block_starts
            assert at_rest(state.blocks), seed

    def test_initial_state_settles_a_floating_block(self, push_demo):
        scene = Scene(block_starts=([0.1, 0.0, 0.3],), block_goals=([0.2, 0.0, 0.02],))
        assert initial_state(push_demo, scene).blocks == ((0.1, 0.0, 0.02),)

    def test_step_with_nothing_held_keeps_block_rows(self):
        # two stacked blocks and a third on the table; the gripper stays open
        state = bare_state(ee=(0.3, 0.3, 0.2),
                           blocks=[(0.0, 0.0, 0.02), (0.0, 0.0, 0.06), (0.2, 0.1, 0.02)])
        out = step(state, Action((0.0, 0.0, 0.1), 0.08), CFG)
        assert out.held is None
        assert out.ee_pos != state.ee_pos
        assert all(a is b for a, b in zip(out.blocks, state.blocks))

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_replayed_states_without_a_held_block_are_at_rest(self, task, request):
        demo = request.getfixturevalue(f"{task.value}_demo")
        ds = run_campaign(demo, task, count=3, rng_seed=5)
        states = [s for ep in ds.episodes for s in ep.states if s.held is None]
        assert any(s.held is not None for ep in ds.episodes for s in ep.states)
        assert len(states) > 50
        assert all(at_rest(s.blocks) for s in states)


def fma(a, b, c):
    """``a*b + c`` rounded once, as a fused multiply-add computes it."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def sum_of_squares(x, y, z):
    return x * x + y * y + z * z


def fused_sum_of_squares(x, y, z):
    return fma(z, z, fma(y, y, x * x))


def servo_by_hand(pos, target, ctrl, norm2=sum_of_squares):
    v = [ctrl.gain * (t - p) for p, t in zip(pos, target)]
    speed = math.sqrt(norm2(*v))
    if speed > ctrl.max_speed:
        scale = ctrl.max_speed / speed
        v = [c * scale for c in v]
    return tuple(p + c * ctrl.dt for p, c in zip(pos, v))


class TestPortableNorm:
    """Lengths on the simulated path are the left-to-right sum of squares.

    A BLAS dot product rounds as the machine's kernel does; with FMA it is
    the fused chain.  Only point pairs whose vector (the servo's velocity,
    the advance rule's offset) has a different squared length by the two
    are kept, so a servo or advance rule that takes its length another way
    fails here on a machine whose BLAS fuses.
    """

    POINTS = np.random.default_rng(0).uniform(-1, 1, size=(20000, 2, 3)).tolist()

    def telling(self, vector):
        return [(p, t) for p, t in self.POINTS
                if sum_of_squares(*vector(p, t)) != fused_sum_of_squares(*vector(p, t))]

    def test_servo_is_the_left_to_right_formula(self):
        pairs = self.telling(lambda p, t: [CFG.gain * (b - a) for a, b in zip(p, t)])
        assert len(pairs) > 1000
        for p, t in pairs:
            expected = servo_by_hand(p, t, CFG)
            assert servo(p, t, CFG) == expected
            trail = [(p, 0, 0, Action(t, 0.08))]
            track(trail, 1, [trail[0][3]], 0, 1, CFG)
            assert trail[1][0] == tuple(expected)
            assert step(bare_state(ee=p), Action(t, 0.08), CFG).ee_pos == tuple(expected)
        # the kept pairs tell the two formulas apart
        assert any(servo_by_hand(p, t, CFG, fused_sum_of_squares) != servo_by_hand(p, t, CFG)
                   for p, t in pairs)

    def test_advance_uses_the_same_distance(self):
        def offset(p, t):
            return [a - b for a, b in zip(p, t)]

        pairs = self.telling(offset)
        assert len(pairs) > 1000
        for p, t in pairs:
            r = math.sqrt(sum_of_squares(*offset(p, t)))
            assert advance(0, 0, p, t, 1, 10**9, r) == (1, 0)
            assert advance(0, 0, p, t, 1, 10**9, math.nextafter(r, 0.0)) == (0, 1)
        assert any(math.sqrt(fused_sum_of_squares(*offset(p, t)))
                   != math.sqrt(sum_of_squares(*offset(p, t))) for p, t in pairs)


def stepped_trail(head, steps, waypoints, last, timeout_steps, ctrl):
    """The reference for ``track``: one ``servo`` and one ``advance`` call per step."""
    v, k, steps_on, _ = head
    trail = [head]
    for _ in range(steps):
        target = waypoints[k].pos
        v = servo(v, target, ctrl)
        k, steps_on = advance(k, steps_on, v, target, last, timeout_steps,
                              ctrl.waypoint_advance_radius)
        trail.append((v, k, steps_on, waypoints[k]))
    return trail


def trail_bits(trail):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(tuple(map(float.hex, v)), k, steps_on, w) for v, k, steps_on, w in trail]


COORD = st.one_of(st.floats(-0.5, 0.5), st.sampled_from([0.0, -0.0]))
TRIPLE = st.tuples(COORD, COORD, COORD)


@st.composite
def track_cases(draw):
    """(case, (head, steps, waypoints, last, timeout_steps, ctrl)) for one kernel run.

    ``case`` forces the edges: ``radius`` sets the advance radius to the exact
    distance after the first step, ``timeout`` starts one step before the
    timeout T, ``last`` starts on the final waypoint.
    """
    case = draw(st.sampled_from(["random", "radius", "timeout", "last"]))
    waypoints = [Action(p, 0.08) for p in draw(st.lists(TRIPLE, min_size=1, max_size=6))]
    last = len(waypoints) - 1
    k = last if case == "last" else draw(st.integers(0, last))
    timeout_steps = draw(st.integers(1, 8))
    steps_on = timeout_steps - 1 if case == "timeout" else draw(st.integers(0, timeout_steps))
    pos = draw(TRIPLE)
    gain = draw(st.floats(0.5, 30.0))
    max_speed = draw(st.floats(0.01, 2.0))
    radius = draw(st.floats(1e-6, 0.2))
    if case == "radius":
        q = servo(pos, waypoints[k].pos, ControllerConfig(gain=gain, max_speed=max_speed))
        # 0.0 (arrival on the target) is no valid radius; any positive one then arrives
        radius = math.sqrt(sum_of_squares(*(a - b for a, b in zip(q, waypoints[k].pos)))) \
            or radius
    ctrl = ControllerConfig(gain=gain, max_speed=max_speed, waypoint_advance_radius=radius)
    steps = draw(st.integers(1, 30))
    return case, ((pos, k, steps_on, waypoints[k]), steps, waypoints, last, timeout_steps, ctrl)


class TestTrack:
    @settings(max_examples=400, deadline=None)
    @given(track_cases())
    def test_trail_equals_stepped_servo_and_advance(self, drawn):
        case, (head, steps, waypoints, last, timeout_steps, ctrl) = drawn
        trail = [head]
        track(trail, steps, waypoints, last, timeout_steps, ctrl)
        assert trail_bits(trail) == trail_bits(
            stepped_trail(head, steps, waypoints, last, timeout_steps, ctrl))
        k = head[1]
        if case == "last":
            assert all(entry[1] == last for entry in trail)
        elif case != "random" and k < last:
            assert trail[1][1:3] == (k + 1, 0)   # the edge moved past the waypoint


class TestReplay:
    @pytest.mark.parametrize("task", list(TaskKind))
    def test_identity_replay_succeeds(self, task, request):
        demo = request.getfixturevalue(f"{task.value}_demo")
        scene = recorded_scene(demo)
        ep = replay(augment_segmentwise(demo, anchors_for_scene(task, demo, scene)), scene)
        assert ep.success

    def test_displaced_grasp_fails_without_touching_block(self, pick_place_demo):
        demo = pick_place_demo
        scene = recorded_scene(demo)
        shifted = Scene(block_starts=(np.add(scene.block_starts[0], [0.10, 0, 0]),),
                        block_goals=scene.block_goals)
        aug = augment_segmentwise(demo, anchors_for_scene(demo.task, demo, scene))
        ep = replay(aug, shifted)
        assert not ep.success
        assert all(s.held is None for s in ep.states)

    def test_deterministic(self, push_demo):
        scene = recorded_scene(push_demo)
        aug = augment_segmentwise(push_demo, anchors_for_scene("push", push_demo, scene))
        a = replay(aug, scene)
        b = replay(aug, scene)
        assert episode_lines(a) == episode_lines(b)
        assert a.success == b.success

    def test_physical_sanity_and_boundedness(self, stack_demo):
        scene = recorded_scene(stack_demo)
        ep = replay(augment_segmentwise(stack_demo, anchors_for_scene("stack", stack_demo, scene)),
                    scene)
        prev = None
        for state in ep.states:
            for i, pos in enumerate(state.blocks):
                if i != state.held:
                    assert pos[2] >= 0.02 - 1e-9
            if prev is not None:
                moved = np.linalg.norm(np.subtract(state.ee_pos, prev.ee_pos))
                assert moved <= CFG.max_speed * CFG.dt + 1e-12
            prev = state

    def test_held_block_keeps_fixed_offset(self, pick_place_demo):
        scene = recorded_scene(pick_place_demo)
        aug = augment_segmentwise(pick_place_demo,
                                  anchors_for_scene("pick_place", pick_place_demo, scene))
        ep = replay(aug, scene)
        offsets = [np.subtract(s.blocks[0], s.ee_pos) for s in ep.states if s.held == 0]
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

    def test_numpy_settings_write_the_default_bytes(self, push_demo, tmp_path):
        for name, count, cfg, seed in (
                ("python", 1, ControllerConfig(), 0),
                ("numpy", np.int64(1), ControllerConfig(gain=np.int64(5)), np.int64(0))):
            write_dataset(run_campaign(push_demo, "push", count, cfg=cfg, rng_seed=seed),
                          tmp_path / name)
        trees = [{p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
                  if p.is_file()} for root in (tmp_path / "python", tmp_path / "numpy")]
        assert trees[0] and trees[0] == trees[1]

    def test_demo_of_another_task_rejected(self, pick_place_demo):
        with pytest.raises(ValidationError, match="^demo task is 'pick_place', not 'push'$"):
            run_campaign(pick_place_demo, TaskKind.PUSH, count=1)

    def test_count_validation(self, push_demo):
        with pytest.raises(ValueError):
            run_campaign(push_demo, TaskKind.PUSH, count=0, rng_seed=0)

    @pytest.mark.parametrize("root_seed", [-1, 2 ** 63, 10 ** 23, 1.5, True, "7"])
    def test_root_seed_must_be_a_seed(self, push_demo, root_seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer from 0 to \d+, got "):
            scene_seed_for(root_seed, 0)
        with pytest.raises(ValueError, match="^seed must be an integer from 0"):
            run_campaign(push_demo, TaskKind.PUSH, count=1, rng_seed=root_seed)

    def test_attempt_cap_validation(self, push_demo):
        with pytest.raises(ValueError, match="attempt_cap"):
            run_campaign(push_demo, TaskKind.PUSH, count=1, rng_seed=0, attempt_cap=0)

    def test_attempt_cap_returns_partial_dataset(self, push_demo):
        impossible = SuccessSpec(push=1e-9, pick_place=1e-9, stack=1e-9)
        partial = run_campaign(push_demo, TaskKind.PUSH, count=3, rng_seed=0,
                               spec=impossible, attempt_cap=5)
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

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_each_segment_transform_fitted_once(self, task, request, monkeypatch):
        demo = request.getfixturevalue(f"{task.value}_demo")
        fits = []
        fit = trajectory.transform_from_anchors
        monkeypatch.setattr(trajectory, "transform_from_anchors",
                            lambda *a: fits.append(a) or fit(*a))
        ds = run_campaign(demo, task, count=1, rng_seed=3)
        assert len(fits) == ds.attempts * len(demo.segments)
