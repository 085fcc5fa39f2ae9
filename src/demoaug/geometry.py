"""Anchor-pinned similarity transforms.

The augmentation warp is a uniform-scale rigid motion synthesized from two
anchor pairs: a recorded (start, goal) and a generated (start, goal).  The
rotation aligns the recorded displacement with the generated one while
keeping the world vertical as stable as that alignment allows, the scale is
the ratio of displacement lengths, and the translation pins the recorded
start onto the generated start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EPS_LEN = 1e-6    # m; displacements at or below this have no usable direction
EPS_VERT = 1e-4   # rad; angular window around +/-z where "up" is unconstrained
ROT_TOL = 1e-9    # per-entry orthonormality / determinant tolerance

Z_AXIS = np.array([0.0, 0.0, 1.0])
X_AXIS = np.array([1.0, 0.0, 0.0])


class GeometryError(ValueError):
    """Base class for transform-synthesis failures."""


class DegenerateLength(GeometryError):
    """Displacement too short to define a direction."""


class DegenerateVertical(GeometryError):
    """Vector is (anti)parallel to the up reference; roll is unconstrained."""


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    return a


def frame_with_up(v, *, up: np.ndarray = Z_AXIS) -> np.ndarray:
    """Right-handed orthonormal frame adapted to ``v`` and an up reference.

    Columns are: ``v`` normalized; the unit projection of ``up`` onto the
    plane orthogonal to ``v``; and their cross product.  ``up`` must be a
    unit vector.

    Raises DegenerateLength if ``v`` is too short, DegenerateVertical if
    ``v`` is within ``EPS_VERT`` radians of +/-``up`` (the projection that
    would define the second column vanishes).
    """
    v = _as_vec3(v)
    n = float(np.linalg.norm(v))
    if not math.isfinite(n) or n <= EPS_LEN:
        raise DegenerateLength(f"|v| = {n:.3e} <= {EPS_LEN:.1e}")
    vhat = v / n
    resid = up - (up @ vhat) * vhat
    rn = float(np.linalg.norm(resid))
    # |resid| is the sine of the angle between v and the up axis
    if rn < math.sin(EPS_VERT):
        raise DegenerateVertical(
            f"vector within {EPS_VERT:.1e} rad of the up axis")
    u = resid / rn
    return np.column_stack([vhat, u, np.cross(vhat, u)])


def is_rotation(matrix: np.ndarray) -> bool:
    """True if ``matrix`` is orthonormal with determinant +1 within ``ROT_TOL``."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    if np.max(np.abs(m.T @ m - np.eye(3))) > ROT_TOL:
        return False
    return abs(float(np.linalg.det(m)) - 1.0) <= ROT_TOL


@dataclass(frozen=True)
class AffineTransform:
    """Uniform scale, rotation, translation; acts on a point as s*R*p + t.

    ``vertical_fallback`` is a warning flag: it is set when an anchor
    displacement was so close to vertical that the up constraint was
    replaced by an x-axis reference to keep the frame well defined.
    """

    scale: float
    rotation: np.ndarray
    translation: np.ndarray
    vertical_fallback: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise GeometryError(f"scale must be positive, got {self.scale}")
        if not is_rotation(self.rotation):
            raise GeometryError("rotation is not orthonormal with det +1")
        object.__setattr__(self, "translation", _as_vec3(self.translation))

    def apply(self, points) -> np.ndarray:
        """Transform a point (3,) or an array of points (N, 3)."""
        p = np.asarray(points, dtype=float)
        return self.scale * (p @ self.rotation.T) + self.translation


def _frame_allowing_vertical(v) -> tuple[np.ndarray, bool]:
    """Frame for ``v``; falls back to an x-axis up reference near +/-z.

    Any roll is equally valid for a near-vertical displacement, so a fixed
    substitute axis keeps the result deterministic.  Returns (frame, fell_back).
    """
    try:
        return frame_with_up(v), False
    except DegenerateVertical:
        return frame_with_up(v, up=X_AXIS), True


def transform_from_anchors(r_s, r_g, g_s, g_g) -> AffineTransform:
    """Synthesize the full warp for one anchor pair.

    Maps r_s to g_s and r_g to g_g exactly; scales all distances by
    |g_g - g_s| / |r_g - r_s|.  The rotation F(g_delta) @ F(r_delta).T,
    with F = :func:`frame_with_up`, takes the recorded displacement
    direction onto the generated one and keeps the direction of the
    vertical's projection onto the plane normal to ``g_delta``, because the
    vertical lies in the span of each frame's first two columns.
    """
    r_s, r_g = _as_vec3(r_s), _as_vec3(r_g)
    g_s, g_g = _as_vec3(g_s), _as_vec3(g_g)
    r_delta = r_g - r_s
    g_delta = g_g - g_s
    # each frame raises DegenerateLength for a short or non-finite displacement
    frame_r, fell_back_r = _frame_allowing_vertical(r_delta)
    frame_g, fell_back_g = _frame_allowing_vertical(g_delta)
    s = float(np.linalg.norm(g_delta)) / float(np.linalg.norm(r_delta))
    rotation = frame_g @ frame_r.T
    return AffineTransform(scale=s, rotation=rotation, translation=g_s - s * (rotation @ r_s),
                           vertical_fallback=fell_back_r or fell_back_g)
