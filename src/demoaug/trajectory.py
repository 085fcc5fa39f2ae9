"""Demonstration trajectories: ingestion, validation, piecewise warping.

A demonstration is an ordered list of timestamped end-effector waypoints
partitioned into contiguous sub-task segments.  Each segment carries the
annotated manipulation endpoints (pickup point and object goal) recorded with
the demo; those endpoints are the recorded half of the anchor pair that pins
the segment's warp.

One target type: a :class:`Waypoint` is an :class:`Action`, a target position
and gripper width, with a time.  The warped demo's own waypoints are what the
replay records and the predictor's noise-free chunks hold, so the ensembler,
simulator and dataset writer read them as they stand.  Every position is an
(x, y, z) tuple of Python floats, taken as it stands: action positions,
segment anchors, :class:`AnchorPair` fields and ``Scene`` rows.  NumPy stays
in :mod:`~demoaug.geometry`; :func:`augment_segmentwise` feeds it one
segment's rows at a time.

Input rule.  Three checks here are the one place that says which numbers from
outside the program are valid; each failure raises :class:`ValidationError`
naming the field.  :func:`require_real`: a ``numbers.Real``, NumPy's included,
not a ``bool``, finite as a float.  :func:`require_integer`: a count, an
integer from a lower bound to ``sys.maxsize``.  :func:`require_triple`: a
position, exactly three reals, as an (x, y, z) float triple, not a copy of one.
Each returns what it accepted as a Python ``float``, ``int`` or float triple,
and every config stores what its checks return, so a NumPy scalar goes no
further than the boundary it came in at.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from numbers import Integral, Real

from .geometry import EPS_LEN, GeometryError, transform_from_anchors

DEMO_FORMAT_VERSION = 1
G_MAX_DEFAULT = 0.08      # m; parallel-plate gripper fully open
WORKSPACE_SIDE = 0.70     # m; default square workspace centered at the origin
PICK_GOAL_Z = (0.0, 0.20)  # m; default height band of pick-and-place goals
POSITION_MARGIN = 0.2     # m; slack around the nominal workspace at parse time

Vec3 = tuple[float, float, float]


class ParseError(ValueError):
    """Demo document is structurally malformed."""


class ValidationError(ValueError):
    """An input (a demo document, an anchor pair, a scene, a config field or
    an action) that breaks an invariant; the message names the field."""


class SegmentMismatch(ValueError):
    """Segment count does not match what the task or anchors require."""


def require_real(name: str, value, sign: str = "") -> float:
    """``value`` as a float, or ValidationError naming ``name`` unless it is a real
    that is, for ``sign`` "positive" or "non-negative", > 0 or >= 0."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:   # an integer past the float range
            raise ValidationError(f"{name} is too large for a float") from None
    if not math.isfinite(value) or (sign == "positive" and value <= 0) \
            or (sign == "non-negative" and value < 0):
        raise ValidationError(f"{name} must be {sign} and finite, got {value}" if sign
                              else f"{name} is not finite: {value}")
    return value


def require_integer(name: str, value, low: int) -> int:
    """``value`` as an int, or ValidationError naming ``name`` unless a count from ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= value <= sys.maxsize:
        raise ValidationError(f"{name} must be an integer from {low} to {sys.maxsize}, got {value!r}")
    return int(value)


def require_triple(name: str, value) -> Vec3:
    """``value`` as an (x, y, z) float triple, itself if a ``tuple`` of three
    finite floats, or ValidationError naming ``name`` unless three reals."""
    try:
        x, y, z = value
    except (TypeError, ValueError):
        raise ValidationError(f"{name} is not three reals: {value!r}") from None
    if type(x) is float and type(y) is float and type(z) is float \
            and math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
        return value if type(value) is tuple else (x, y, z)
    return (require_real(name, x), require_real(name, y), require_real(name, z))


def default_position_bounds() -> tuple[Vec3, Vec3]:
    """Axis-aligned box accepted for recorded waypoints: the default workspace
    (``tasks.Workspace()``), padded by POSITION_MARGIN on every side."""
    half = WORKSPACE_SIDE / 2.0
    lo = tuple(x - POSITION_MARGIN for x in (-half, -half, PICK_GOAL_Z[0]))
    hi = tuple(x + POSITION_MARGIN for x in (half, half, PICK_GOAL_Z[1]))
    return lo, hi


@dataclass(frozen=True, slots=True)
class Action:
    """A target position, an (x, y, z) float triple, and a gripper width, a float."""

    pos: Vec3
    gripper: float

    def __post_init__(self):
        object.__setattr__(self, "pos", require_triple("Action pos", self.pos))
        object.__setattr__(self, "gripper", require_real("Action gripper", self.gripper))


@dataclass(frozen=True, slots=True)
class Waypoint(Action):
    """A demo's target from ``time`` on, an :class:`Action` as it stands."""

    time: float


@dataclass(frozen=True)
class Segment:
    """Half-open waypoint index range [start, stop) plus its annotated
    manipulation endpoints."""

    label: str
    start: int
    stop: int
    anchor_start: Vec3
    anchor_goal: Vec3


@dataclass(frozen=True)
class AnchorPair:
    """Recorded and generated (start, goal) pinning one segment's warp, as triples."""

    r_s: Vec3
    r_g: Vec3
    g_s: Vec3
    g_g: Vec3

    def __post_init__(self):
        for name in ("r_s", "r_g", "g_s", "g_g"):
            object.__setattr__(self, name, require_triple(f"anchor {name}", getattr(self, name)))
        if math.dist(self.r_g, self.r_s) <= EPS_LEN:
            raise ValidationError("recorded start and goal coincide")
        if math.dist(self.g_g, self.g_s) <= EPS_LEN:
            raise ValidationError("generated start and goal coincide")


@dataclass(frozen=True)
class DemoTrajectory:
    """Immutable demonstration: waypoints, segments, and recording metadata.
    Every gripper width lies in [0, ``g_max``]."""

    waypoints: tuple[Waypoint, ...]
    segments: tuple[Segment, ...]
    task: str
    source_id: str = "unnamed"
    g_max: float = G_MAX_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "g_max", require_real("g_max", self.g_max, "positive"))
        if not self.segments:
            raise ValidationError("trajectory has no segments")
        expected_start = 0
        for i, seg in enumerate(self.segments):
            if seg.start != expected_start:
                raise ValidationError(f"segment {i} starts at {seg.start}, expected {expected_start}")
            if seg.stop - seg.start < 2:
                raise ValidationError(f"segment {i} ({seg.label!r}) has fewer than 2 waypoints")
            expected_start = seg.stop
        if expected_start != len(self.waypoints):
            raise ValidationError(
                f"segments cover {expected_start} waypoints, trajectory has {len(self.waypoints)}")
        times = [require_real(f"waypoint {i} time", w.time) for i, w in enumerate(self.waypoints)]
        for i in range(1, len(times)):
            if not times[i] > times[i - 1]:
                raise ValidationError(f"timestamps not strictly increasing at waypoint {i}")
        for i, w in enumerate(self.waypoints):
            if not (0.0 <= w.gripper <= self.g_max):
                raise ValidationError(f"waypoint {i} gripper {w.gripper} outside [0, {self.g_max}]")


def _require(doc: dict, key, kind, where: str = "document"):
    if key not in doc:
        raise ParseError(f"{where} missing key {key!r}")
    value = doc[key]
    # JSON true and false load as bools, which isinstance counts as ints
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ParseError(f"{where} key {key!r} has type {type(value).__name__}")
    try:  # kind float takes any JSON number, and an integer may lie past the float range
        return float(value) if kind is float else value
    except OverflowError:
        raise ParseError(f"{where} key {key!r} is too large for a float") from None


def _vec3(doc: dict, key: str, where: str) -> Vec3:
    coords = dict(enumerate(_require(doc, key, (list, tuple), where)))
    if len(coords) != 3:
        raise ParseError(f"{where} key {key!r} is not a 3-number list")
    return require_triple(f"{where} key {key!r}", [
        _require(coords, j, float, f"{where} key {key!r} entry") for j in range(3)])


def parse_demo(document) -> DemoTrajectory:
    """Parse and validate a demo document (dict, or JSON text/bytes).

    Rejects unknown format versions.  Structural problems raise ParseError;
    invariant breaches, positions outside :func:`default_position_bounds`
    included, raise ValidationError naming the first offending waypoint
    index.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(document, dict):
        raise ParseError(f"demo document must be an object, got {type(document).__name__}")

    version = _require(document, "format_version", int)
    if version != DEMO_FORMAT_VERSION:
        raise ParseError(f"unknown format_version {version} (supported: {DEMO_FORMAT_VERSION})")
    task = _require(document, "task", str)
    g_max = _require(document, "g_max", float)
    source_id = _require(document, "source_id", str) if "source_id" in document else "unnamed"

    raw_waypoints = _require(document, "waypoints", list)
    waypoints = []
    for i, entry in enumerate(raw_waypoints):
        if not isinstance(entry, dict):
            raise ParseError(f"waypoint {i} is not an object")
        where = f"waypoint {i}"
        t, g = (require_real(f"{where} key {key!r}", _require(entry, key, float, where))
                for key in ("t", "g"))
        waypoints.append(Waypoint(pos=_vec3(entry, "p", where), gripper=g, time=t))

    raw_segments = _require(document, "segments", list)
    segments = []
    cursor = 0
    for i, entry in enumerate(raw_segments):
        if not isinstance(entry, dict):
            raise ParseError(f"segment {i} is not an object")
        label = _require(entry, "label", str, f"segment {i}")
        count = _require(entry, "count", int, f"segment {i}")
        segments.append(Segment(label=label, start=cursor, stop=cursor + count,
                                anchor_start=_vec3(entry, "anchor_start", f"segment {i}"),
                                anchor_goal=_vec3(entry, "anchor_goal", f"segment {i}")))
        cursor += count

    demo = DemoTrajectory(waypoints=tuple(waypoints), segments=tuple(segments),
                          task=task, source_id=source_id, g_max=g_max)

    lo, hi = default_position_bounds()
    for i, w in enumerate(demo.waypoints):
        if not all(l <= x <= h for x, l, h in zip(w.pos, lo, hi)):
            raise ValidationError(f"waypoint {i} position {list(w.pos)} outside bounds")
    return demo


def load_demo(path) -> DemoTrajectory:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_demo(fh.read())


def demo_to_document(demo: DemoTrajectory) -> dict:
    """Inverse of :func:`parse_demo`, for writing fixtures and round trips."""
    return {
        "format_version": DEMO_FORMAT_VERSION,
        "task": demo.task,
        "source_id": demo.source_id,
        "g_max": demo.g_max,
        "segments": [
            {"label": s.label, "count": s.stop - s.start,
             "anchor_start": list(s.anchor_start), "anchor_goal": list(s.anchor_goal)}
            for s in demo.segments
        ],
        "waypoints": [
            {"t": w.time, "p": list(w.pos), "g": w.gripper} for w in demo.waypoints
        ],
    }


def segment_transforms(demo: DemoTrajectory, anchors) -> list:
    """Per-segment warps for the given anchor pairs (one per segment)."""
    if len(anchors) != len(demo.segments):
        raise SegmentMismatch(
            f"{len(anchors)} anchor pairs for {len(demo.segments)} segments")
    transforms = []
    for i, (seg, pair) in enumerate(zip(demo.segments, anchors)):
        try:
            transforms.append(transform_from_anchors(pair.r_s, pair.r_g, pair.g_s, pair.g_g))
        except GeometryError as e:
            raise type(e)(f"segment {i} ({seg.label!r}): {e}") from e
    return transforms


def augment_segmentwise(demo: DemoTrajectory, anchors, transforms=None) -> DemoTrajectory:
    """Warp each segment independently by the transform its anchor pair pins.

    Gripper widths and timestamps are copied unchanged; segment boundaries
    are preserved.  The output's segment annotations are rewritten to the
    generated anchors so the augmented demo describes its own scene.
    ``transforms``, if given, must be ``segment_transforms(demo, anchors)``,
    for a caller that already fitted them.
    """
    if transforms is None:
        transforms = segment_transforms(demo, anchors)
    new_waypoints = []
    new_segments = []
    for seg, pair, tf in zip(demo.segments, anchors, transforms):
        recorded = demo.waypoints[seg.start:seg.stop]
        warped = tf.apply([w.pos for w in recorded]).tolist()
        new_waypoints += [Waypoint(pos=(x, y, z), gripper=w.gripper, time=w.time)
                          for w, (x, y, z) in zip(recorded, warped)]
        new_segments.append(replace(seg, anchor_start=pair.g_s, anchor_goal=pair.g_g))
    return DemoTrajectory(waypoints=tuple(new_waypoints), segments=tuple(new_segments),
                          task=demo.task, source_id=demo.source_id, g_max=demo.g_max)
