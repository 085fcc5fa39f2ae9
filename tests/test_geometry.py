import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoaug.geometry import (
    AffineTransform, DegenerateLength, DegenerateVertical, GeometryError,
    frame_with_up, is_rotation, scale_from_anchors, transform_from_anchors,
    translation_from_anchors,
)

TOL = 1e-9


def project_onto_plane(v, normal):
    """Independent oracle: v minus its component along the plane normal."""
    n = np.asarray(normal, float)
    n = n / np.linalg.norm(n)
    v = np.asarray(v, float)
    return v - np.dot(v, n) * n


def anchored_rotation(r_delta, g_delta):
    """Rotation of the warp pinned at the origin with these displacements."""
    return transform_from_anchors(np.zeros(3), r_delta, np.zeros(3), g_delta).rotation


def rot90z():
    return np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


class TestFrameWithUp:
    def test_axis_aligned(self):
        f = frame_with_up(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(f[:, 0], [1, 0, 0], atol=TOL)
        np.testing.assert_allclose(f[:, 1], [0, 0, 1], atol=TOL)
        np.testing.assert_allclose(f[:, 2], [0, -1, 0], atol=TOL)
        assert is_rotation(f)

    def test_vertical_rejected(self):
        with pytest.raises(DegenerateVertical):
            frame_with_up(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateVertical):
            frame_with_up(np.array([0.0, 0.0, -2.5]))

    def test_short_rejected(self):
        with pytest.raises(DegenerateLength):
            frame_with_up(np.zeros(3))
        with pytest.raises(DegenerateLength):
            frame_with_up(np.array([1e-7, 0.0, 0.0]))

    def test_diagonal_second_column(self):
        # hand Gram-Schmidt: z minus its component along (1,0,1)/sqrt(2)
        f = frame_with_up(np.array([1.0, 0.0, 1.0]))
        expected = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(f[:, 1], expected, atol=TOL)


class TestRotationFromAnchors:
    def test_planar_quarter_turn(self):
        r = anchored_rotation(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        np.testing.assert_allclose(r, rot90z(), atol=TOL)
        np.testing.assert_allclose(r @ [0, 0, 1], [0, 0, 1], atol=TOL)

    def test_identical_vectors_give_identity(self):
        v = np.array([0.3, -0.2, 0.1])
        np.testing.assert_allclose(anchored_rotation(v, v), np.eye(3), atol=TOL)

    def test_both_constraints_on_tilted_goal(self):
        r_delta = np.array([1.0, 0.0, 0.0])
        g_delta = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        rot = anchored_rotation(r_delta, g_delta)
        # constraint 1: rotated recorded direction equals generated direction
        np.testing.assert_allclose(rot @ r_delta, g_delta, atol=TOL)
        # constraint 2: projection of rotated vertical onto the plane normal
        # to the goal displacement keeps the direction of the vertical's own
        # projection
        lhs = project_onto_plane(rot @ [0, 0, 1], g_delta)
        rhs = project_onto_plane([0, 0, 1], g_delta)
        np.testing.assert_allclose(lhs / np.linalg.norm(lhs),
                                   rhs / np.linalg.norm(rhs), atol=TOL)


class TestScaleAndTranslation:
    def test_scale_examples(self):
        assert scale_from_anchors([2.0, 0, 0], [0, 1.0, 0]) == pytest.approx(0.5)
        v = [0.3, -0.2, 0.1]
        assert scale_from_anchors(v, v) == pytest.approx(1.0)
        assert scale_from_anchors([0.1, 0, 0], [0, 0.3, 0.4]) == pytest.approx(5.0)

    def test_scale_degenerate(self):
        with pytest.raises(DegenerateLength):
            scale_from_anchors([0, 0, 0], [1, 0, 0])

    def test_translation_trivials(self):
        np.testing.assert_allclose(
            translation_from_anchors([0, 0, 0], 1.0, np.eye(3), [0, 0, 0]), [0, 0, 0])
        np.testing.assert_allclose(
            translation_from_anchors([2, 2, 3], 1.0, np.eye(3), [1, 2, 3]), [1, 0, 0])

    def test_translation_scaled_rotated(self):
        # hand product: -0.5 * R90z @ (1,0,0) = (0, -0.5, 0)
        t = translation_from_anchors([0, 0, 0], 0.5, rot90z(), [1, 0, 0])
        np.testing.assert_allclose(t, [0, -0.5, 0], atol=TOL)


class TestAffineTransform:
    def test_identity(self):
        tf = AffineTransform(scale=1.0, rotation=np.eye(3), translation=[0, 0, 0])
        p = np.array([0.3, -0.1, 0.7])
        np.testing.assert_allclose(tf.apply(p), p, atol=TOL)

    def test_scale_translate(self):
        tf = AffineTransform(scale=2.0, rotation=np.eye(3), translation=[1, 0, 0])
        np.testing.assert_allclose(tf.apply([1, 1, 1]), [3, 2, 2], atol=TOL)

    def test_rejects_bad_rotation(self):
        with pytest.raises(GeometryError):
            AffineTransform(scale=1.0, rotation=np.eye(3) * 2.0, translation=np.zeros(3))
        with pytest.raises(GeometryError):
            AffineTransform(scale=-1.0, rotation=np.eye(3), translation=np.zeros(3))

    def test_batch_apply_matches_single(self):
        tf = transform_from_anchors([0, 0, 0.02], [0.2, 0, 0.02],
                                    [0.1, 0.1, 0.02], [0.1, 0.4, 0.02])
        pts = np.random.default_rng(0).uniform(-0.3, 0.3, size=(5, 3))
        batch = tf.apply(pts)
        for i in range(5):
            np.testing.assert_allclose(batch[i], tf.apply(pts[i]), atol=0)


def anchor_strategy():
    coord = st.floats(-0.35, 0.35, allow_nan=False, allow_infinity=False)
    height = st.floats(0.0, 0.25, allow_nan=False, allow_infinity=False)
    point = st.tuples(coord, coord, height).map(np.array)
    return st.tuples(point, point, point, point).filter(
        lambda ps: np.linalg.norm(ps[1] - ps[0]) > 1e-2
        and np.linalg.norm(ps[3] - ps[2]) > 1e-2)


@settings(max_examples=200, deadline=None)
@given(anchor_strategy())
def test_anchor_exactness_property(anchors):
    r_s, r_g, g_s, g_g = anchors
    tf = transform_from_anchors(r_s, r_g, g_s, g_g)
    assert np.linalg.norm(tf.apply(r_s) - g_s) < TOL
    assert np.linalg.norm(tf.apply(r_g) - g_g) < TOL


@settings(max_examples=200, deadline=None)
@given(anchor_strategy(), st.integers(0, 2 ** 31))
def test_distance_law_property(anchors, seed):
    tf = transform_from_anchors(*anchors)
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-0.5, 0.5, size=(2, 3))
    lhs = np.linalg.norm(tf.apply(a) - tf.apply(b))
    assert lhs == pytest.approx(tf.scale * np.linalg.norm(a - b), abs=TOL)


@settings(max_examples=200, deadline=None)
@given(anchor_strategy())
def test_up_preservation_property(anchors):
    r_s, r_g, g_s, g_g = anchors
    r_delta, g_delta = r_g - r_s, g_g - g_s
    z = np.array([0.0, 0.0, 1.0])
    # stay clear of the vertical fallback window
    for delta in (r_delta, g_delta):
        sin_angle = np.linalg.norm(project_onto_plane(z, delta))
        if sin_angle < 1e-3:
            return
    tf = transform_from_anchors(r_s, r_g, g_s, g_g)
    assert not tf.vertical_fallback
    lhs = project_onto_plane(tf.rotation @ z, g_delta)
    rhs = project_onto_plane(z, g_delta)
    np.testing.assert_allclose(lhs / np.linalg.norm(lhs),
                               rhs / np.linalg.norm(rhs), atol=TOL)
    assert is_rotation(tf.rotation)


@settings(max_examples=100, deadline=None)
@given(anchor_strategy())
def test_identity_anchors_property(anchors):
    r_s, r_g, _, _ = anchors
    tf = transform_from_anchors(r_s, r_g, r_s, r_g)
    assert tf.scale == pytest.approx(1.0, abs=TOL)
    np.testing.assert_allclose(tf.rotation, np.eye(3), atol=TOL)
    np.testing.assert_allclose(tf.translation, np.zeros(3), atol=TOL)


class TestVerticalFallback:
    def test_vertical_goal_displacement(self):
        tf = transform_from_anchors([0.1, 0.0, 0.02], [0.3, 0.1, 0.02],
                                    [0.2, 0.2, 0.02], [0.2, 0.2, 0.18])
        assert tf.vertical_fallback
        np.testing.assert_allclose(tf.apply([0.1, 0.0, 0.02]), [0.2, 0.2, 0.02], atol=TOL)
        np.testing.assert_allclose(tf.apply([0.3, 0.1, 0.02]), [0.2, 0.2, 0.18], atol=TOL)
        assert is_rotation(tf.rotation)

    def test_vertical_both_is_deterministic_identity_when_equal(self):
        tf = transform_from_anchors([0, 0, 0], [0, 0, 0.2], [0, 0, 0], [0, 0, 0.2])
        assert tf.vertical_fallback
        np.testing.assert_allclose(tf.rotation, np.eye(3), atol=TOL)
