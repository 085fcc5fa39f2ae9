import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoaug.demos import fixture_manifest, reference_demo
from demoaug.geometry import transform_from_anchors
from demoaug.trajectory import (
    AnchorPair, DemoTrajectory, ParseError, Segment, SegmentMismatch, ValidationError,
    Waypoint, augment_segmentwise, default_position_bounds, demo_to_document,
    identity_anchors, parse_demo,
)


def minimal_doc(**overrides):
    doc = {
        "format_version": 1,
        "task": "push",
        "g_max": 0.08,
        "segments": [{"label": "move", "count": 2,
                      "anchor_start": [0.0, 0.0, 0.02], "anchor_goal": [0.1, 0.0, 0.02]}],
        "waypoints": [
            {"t": 0.0, "p": [0.0, 0.0, 0.02], "g": 0.08},
            {"t": 0.05, "p": [0.1, 0.0, 0.02], "g": 0.08},
        ],
    }
    doc.update(overrides)
    return doc


def two_segment_demo():
    waypoints = []
    t = 0.0
    for x in np.linspace(0.0, 0.1, 6):
        waypoints.append({"t": round(t, 3), "p": [round(x, 4), 0.0, 0.02], "g": 0.08})
        t += 0.05
    for y in np.linspace(0.0, 0.1, 6):
        waypoints.append({"t": round(t, 3), "p": [0.1, round(y, 4), 0.02], "g": 0.02})
        t += 0.05
    doc = {
        "format_version": 1,
        "task": "stack",
        "g_max": 0.08,
        "segments": [
            {"label": "a", "count": 6,
             "anchor_start": [0.0, 0.0, 0.02], "anchor_goal": [0.1, 0.0, 0.02]},
            {"label": "b", "count": 6,
             "anchor_start": [0.1, 0.0, 0.02], "anchor_goal": [0.1, 0.1, 0.02]},
        ],
        "waypoints": waypoints,
    }
    return parse_demo(doc)


class TestParse:
    def test_minimal_document(self):
        demo = parse_demo(minimal_doc())
        assert len(demo.segments) == 1
        assert len(demo.waypoints) == 2
        assert demo.task == "push"

    def test_json_text_input(self):
        demo = parse_demo(json.dumps(minimal_doc()))
        assert len(demo.waypoints) == 2

    def test_unknown_format_version(self):
        with pytest.raises(ParseError, match="format_version"):
            parse_demo(minimal_doc(format_version=99))

    def test_missing_key(self):
        doc = minimal_doc()
        del doc["g_max"]
        with pytest.raises(ParseError, match="g_max"):
            parse_demo(doc)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_demo("{not json")

    def test_decreasing_timestamps_name_the_index(self):
        doc = minimal_doc()
        doc["waypoints"][1]["t"] = -1.0
        with pytest.raises(ValidationError, match="waypoint 1"):
            parse_demo(doc)

    def test_gripper_out_of_range(self):
        doc = minimal_doc()
        doc["waypoints"][0]["g"] = 0.09
        with pytest.raises(ValidationError, match="gripper"):
            parse_demo(doc)

    def test_position_out_of_bounds(self):
        doc = minimal_doc()
        doc["waypoints"][1]["p"] = [2.0, 0.0, 0.02]
        with pytest.raises(ValidationError, match="bounds"):
            parse_demo(doc)

    def test_segment_count_mismatch(self):
        doc = minimal_doc()
        doc["segments"][0]["count"] = 3
        with pytest.raises(ValidationError, match="cover"):
            parse_demo(doc)

    def test_single_waypoint_segment_rejected(self):
        doc = minimal_doc()
        doc["segments"][0]["count"] = 1
        doc["waypoints"] = doc["waypoints"][:1]
        with pytest.raises(ValidationError, match="fewer than 2"):
            parse_demo(doc)

    def test_round_trip(self):
        demo = parse_demo(minimal_doc())
        assert parse_demo(demo_to_document(demo)).times().tolist() == demo.times().tolist()


@st.composite
def demo_strategy(draw):
    """Valid demos: 1-2 segments of >= 2 waypoints, strictly increasing
    times, every position inside the default parse bounds."""
    lo, hi = default_position_bounds()

    def point():
        return np.array([draw(st.floats(lo[i], hi[i])) for i in range(3)])

    g_max = draw(st.floats(0.01, 0.2))
    counts = draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))
    t = draw(st.floats(0.0, 10.0))
    waypoints, segments = [], []
    for count in counts:
        start = len(waypoints)
        for _ in range(count):
            waypoints.append(Waypoint(time=t, position=point(),
                                      gripper=draw(st.floats(0.0, g_max))))
            t += draw(st.floats(1e-3, 1.0))
        segments.append(Segment(label=draw(st.text(max_size=8)), start=start,
                                stop=len(waypoints), anchor_start=point(),
                                anchor_goal=point()))
    return DemoTrajectory(waypoints=tuple(waypoints), segments=tuple(segments),
                          task=draw(st.sampled_from(["push", "pick_place", "stack"])),
                          source_id=draw(st.text(max_size=8)), g_max=g_max)


@settings(max_examples=100, deadline=None)
@given(demo_strategy())
def test_document_round_trip_property(demo):
    # documents, not demos, are compared: dataclass == on numpy fields raises
    doc = demo_to_document(demo)
    assert demo_to_document(parse_demo(doc)) == doc
    assert demo_to_document(parse_demo(json.dumps(doc))) == doc


class TestFixtures:
    @pytest.mark.parametrize("task", ["push", "pick_place", "stack"])
    def test_fixture_matches_manifest(self, task):
        demo = reference_demo(task)
        pinned = fixture_manifest()[task]
        assert len(demo.waypoints) == pinned["waypoints"]
        assert len(demo.segments) == pinned["segments"]
        assert [s.stop - s.start for s in demo.segments] == pinned["segment_counts"]

    def test_pick_place_single_segment(self):
        demo = reference_demo("pick_place")
        assert len(demo.segments) == 1


class TestAnchorPair:
    def test_degenerate_recorded(self):
        with pytest.raises(ValidationError, match="recorded"):
            AnchorPair(r_s=[0, 0, 0], r_g=[0, 0, 0], g_s=[0, 0, 0], g_g=[1, 0, 0])

    def test_degenerate_generated(self):
        with pytest.raises(ValidationError, match="generated"):
            AnchorPair(r_s=[0, 0, 0], r_g=[1, 0, 0], g_s=[0.2, 0, 0], g_g=[0.2, 0, 0])


class TestAugment:
    def test_identity_returns_input(self, pick_place_demo):
        aug = augment_segmentwise(pick_place_demo, identity_anchors(pick_place_demo))
        np.testing.assert_allclose(aug.positions(), pick_place_demo.positions(), atol=1e-9)
        assert aug.grippers().tolist() == pick_place_demo.grippers().tolist()
        assert aug.times().tolist() == pick_place_demo.times().tolist()

    def test_anchor_count_mismatch(self, pick_place_demo):
        with pytest.raises(SegmentMismatch):
            augment_segmentwise(pick_place_demo, [])

    def test_rotated_endpoints_land_on_generated_anchors(self):
        demo = parse_demo(minimal_doc())
        seg = demo.segments[0]
        # rotate the anchor line a quarter turn about vertical
        pair = AnchorPair(r_s=seg.anchor_start, r_g=seg.anchor_goal,
                          g_s=[0.0, 0.0, 0.02], g_g=[0.0, 0.1, 0.02])
        aug = augment_segmentwise(demo, [pair])
        np.testing.assert_allclose(aug.waypoints[0].position, [0.0, 0.0, 0.02], atol=1e-9)
        np.testing.assert_allclose(aug.waypoints[-1].position, [0.0, 0.1, 0.02], atol=1e-9)

    def test_piecewise_boundary_uses_own_segment_transform(self):
        demo = two_segment_demo()
        pairs = [
            AnchorPair(r_s=demo.segments[0].anchor_start, r_g=demo.segments[0].anchor_goal,
                       g_s=[-0.1, -0.1, 0.02], g_g=[-0.1, 0.1, 0.02]),
            AnchorPair(r_s=demo.segments[1].anchor_start, r_g=demo.segments[1].anchor_goal,
                       g_s=[0.2, 0.2, 0.02], g_g=[0.3, 0.3, 0.06]),
        ]
        aug = augment_segmentwise(demo, pairs)
        tf_0 = transform_from_anchors(pairs[0].r_s, pairs[0].r_g, pairs[0].g_s, pairs[0].g_g)
        tf_1 = transform_from_anchors(pairs[1].r_s, pairs[1].r_g, pairs[1].g_s, pairs[1].g_g)
        boundary = demo.segments[0].stop - 1
        np.testing.assert_allclose(aug.waypoints[boundary].position,
                                   tf_0.apply(demo.waypoints[boundary].position), atol=1e-9)
        first_of_next = demo.segments[1].start
        np.testing.assert_allclose(aug.waypoints[first_of_next].position,
                                   tf_1.apply(demo.waypoints[first_of_next].position), atol=1e-9)

    def test_structure_preserved(self, stack_demo):
        pairs = [
            AnchorPair(r_s=s.anchor_start, r_g=s.anchor_goal,
                       g_s=s.anchor_start + np.array([0.05, -0.02, 0.0]),
                       g_g=s.anchor_goal + np.array([-0.03, 0.04, 0.0]))
            for s in stack_demo.segments
        ]
        aug = augment_segmentwise(stack_demo, pairs)
        assert len(aug.waypoints) == len(stack_demo.waypoints)
        assert [(s.start, s.stop, s.label) for s in aug.segments] == \
               [(s.start, s.stop, s.label) for s in stack_demo.segments]
        assert aug.grippers().tolist() == stack_demo.grippers().tolist()
        np.testing.assert_array_equal(np.diff(aug.times()), np.diff(stack_demo.times()))
        # augmented annotations describe the generated scene
        np.testing.assert_allclose(aug.segments[0].anchor_start, pairs[0].g_s)
        np.testing.assert_allclose(aug.segments[1].anchor_goal, pairs[1].g_g)

    def test_within_segment_distances_scale(self, pick_place_demo):
        seg = pick_place_demo.segments[0]
        pair = AnchorPair(r_s=seg.anchor_start, r_g=seg.anchor_goal,
                          g_s=[0.0, 0.0, 0.02], g_g=[0.05, 0.04, 0.02])
        tf = transform_from_anchors(pair.r_s, pair.r_g, pair.g_s, pair.g_g)
        aug = augment_segmentwise(pick_place_demo, [pair])
        orig, warped = pick_place_demo.positions(), aug.positions()
        rng = np.random.default_rng(1)
        for _ in range(50):
            i, j = rng.integers(0, len(orig), size=2)
            expected = tf.scale * np.linalg.norm(orig[i] - orig[j])
            assert np.linalg.norm(warped[i] - warped[j]) == pytest.approx(expected, abs=1e-9)

    def test_geometry_error_tagged_with_segment(self):
        demo = two_segment_demo()
        bad = [
            AnchorPair(r_s=demo.segments[0].anchor_start, r_g=demo.segments[0].anchor_goal,
                       g_s=[0.0, 0.0, 0.02], g_g=[0.1, 0.0, 0.02]),
            # generated displacement of the second segment is purely vertical,
            # which is fine; use a *recorded* degenerate instead via tampering
            AnchorPair(r_s=demo.segments[1].anchor_start, r_g=demo.segments[1].anchor_goal,
                       g_s=[0.0, 0.0, 0.02], g_g=[0.1, 0.0, 0.02]),
        ]
        # tamper one pair past validation to force a geometry failure downstream
        object.__setattr__(bad[1], "r_g", np.asarray(bad[1].r_s) + [0.0, 0.0, 0.0])
        with pytest.raises(Exception, match="segment 1"):
            augment_segmentwise(demo, bad)
