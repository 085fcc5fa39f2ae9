"""Demonstration trajectories: ingestion, validation, piecewise warping.

A demonstration is an ordered list of timestamped end-effector waypoints
(position + gripper width) partitioned into contiguous sub-task segments.
Each segment carries the annotated manipulation endpoints (pickup point and
object goal) recorded with the demo; those endpoints are the recorded half
of the anchor pair that pins the segment's warp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import EPS_LEN, GeometryError, transform_from_anchors

DEMO_FORMAT_VERSION = 1
G_MAX_DEFAULT = 0.08      # m; parallel-plate gripper fully open
POSITION_MARGIN = 0.2     # m; slack around the nominal workspace at parse time


class ParseError(ValueError):
    """Demo document is structurally malformed."""


class ValidationError(ValueError):
    """Demo document parsed but violates a trajectory invariant."""


class SegmentMismatch(ValueError):
    """Segment count does not match what the task or anchors require."""


def default_position_bounds() -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box accepted for recorded waypoints.

    The default 0.70 m square workspace around the origin with goals up to
    0.20 m, padded by POSITION_MARGIN on every side.
    """
    lo = np.array([-0.35, -0.35, 0.0]) - POSITION_MARGIN
    hi = np.array([0.35, 0.35, 0.20]) + POSITION_MARGIN
    return lo, hi


@dataclass(frozen=True)
class Waypoint:
    time: float
    position: np.ndarray
    gripper: float


@dataclass(frozen=True)
class Segment:
    """Half-open waypoint index range [start, stop) plus its annotated
    manipulation endpoints."""

    label: str
    start: int
    stop: int
    anchor_start: np.ndarray
    anchor_goal: np.ndarray


@dataclass(frozen=True)
class AnchorPair:
    """Recorded and generated (start, goal) pinning one segment's warp."""

    r_s: np.ndarray
    r_g: np.ndarray
    g_s: np.ndarray
    g_g: np.ndarray

    def __post_init__(self):
        for name in ("r_s", "r_g", "g_s", "g_g"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.linalg.norm(self.r_g - self.r_s) <= EPS_LEN:
            raise ValidationError("recorded start and goal coincide")
        if np.linalg.norm(self.g_g - self.g_s) <= EPS_LEN:
            raise ValidationError("generated start and goal coincide")


@dataclass(frozen=True)
class DemoTrajectory:
    """Immutable demonstration: waypoints, segments, and recording metadata."""

    waypoints: tuple[Waypoint, ...]
    segments: tuple[Segment, ...]
    task: str
    source_id: str = "unnamed"
    g_max: float = G_MAX_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        object.__setattr__(self, "segments", tuple(self.segments))
        self._check_structure()

    def _check_structure(self):
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
        times = self.times()
        bad = np.nonzero(np.diff(times) <= 0)[0]
        if bad.size:
            raise ValidationError(f"timestamps not strictly increasing at waypoint {bad[0] + 1}")

    def times(self) -> np.ndarray:
        return np.array([w.time for w in self.waypoints])

    def positions(self) -> np.ndarray:
        return np.array([w.position for w in self.waypoints])

    def grippers(self) -> np.ndarray:
        return np.array([w.gripper for w in self.waypoints])


def _require(doc: dict, key: str, kind, where: str = "document"):
    if key not in doc:
        raise ParseError(f"{where} missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ParseError(f"{where} key {key!r} has type {type(value).__name__}")
    return value


def _vec3(value, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3 or \
            not all(isinstance(x, (int, float)) for x in value):
        raise ParseError(f"{where} is not a 3-number list")
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{where} has non-finite components")
    return v


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
    g_max = float(_require(document, "g_max", (int, float)))
    if g_max <= 0:
        raise ValidationError(f"g_max must be positive, got {g_max}")
    source_id = document.get("source_id", "unnamed")

    raw_waypoints = _require(document, "waypoints", list)
    waypoints = []
    for i, entry in enumerate(raw_waypoints):
        if not isinstance(entry, dict):
            raise ParseError(f"waypoint {i} is not an object")
        t = _require(entry, "t", (int, float), f"waypoint {i}")
        g = _require(entry, "g", (int, float), f"waypoint {i}")
        p = _vec3(_require(entry, "p", (list, tuple), f"waypoint {i}"), f"waypoint {i} position")
        waypoints.append(Waypoint(time=float(t), position=p, gripper=float(g)))

    raw_segments = _require(document, "segments", list)
    segments = []
    cursor = 0
    for i, entry in enumerate(raw_segments):
        if not isinstance(entry, dict):
            raise ParseError(f"segment {i} is not an object")
        label = _require(entry, "label", str, f"segment {i}")
        count = _require(entry, "count", int, f"segment {i}")
        anchor_start = _vec3(_require(entry, "anchor_start", (list, tuple), f"segment {i}"),
                             f"segment {i} anchor_start")
        anchor_goal = _vec3(_require(entry, "anchor_goal", (list, tuple), f"segment {i}"),
                            f"segment {i} anchor_goal")
        segments.append(Segment(label=label, start=cursor, stop=cursor + count,
                                anchor_start=anchor_start, anchor_goal=anchor_goal))
        cursor += count

    demo = DemoTrajectory(waypoints=tuple(waypoints), segments=tuple(segments),
                          task=task, source_id=source_id, g_max=g_max)

    lo, hi = default_position_bounds()
    for i, w in enumerate(demo.waypoints):
        if not np.all(np.isfinite(w.position)) or not np.isfinite(w.time) or not np.isfinite(w.gripper):
            raise ValidationError(f"waypoint {i} has non-finite values")
        if not (0.0 <= w.gripper <= g_max):
            raise ValidationError(f"waypoint {i} gripper {w.gripper} outside [0, {g_max}]")
        if np.any(w.position < lo) or np.any(w.position > hi):
            raise ValidationError(f"waypoint {i} position {w.position.tolist()} outside bounds")
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
             "anchor_start": s.anchor_start.tolist(), "anchor_goal": s.anchor_goal.tolist()}
            for s in demo.segments
        ],
        "waypoints": [
            {"t": w.time, "p": w.position.tolist(), "g": w.gripper} for w in demo.waypoints
        ],
    }


def identity_anchors(demo: DemoTrajectory) -> list[AnchorPair]:
    """Anchor pairs whose generated half equals the recorded half."""
    return [AnchorPair(r_s=s.anchor_start, r_g=s.anchor_goal,
                       g_s=s.anchor_start, g_g=s.anchor_goal) for s in demo.segments]


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


def augment_segmentwise(demo: DemoTrajectory, anchors) -> DemoTrajectory:
    """Warp each segment independently by the transform its anchor pair pins.

    Gripper widths and timestamps are copied unchanged; segment boundaries
    are preserved.  The output's segment annotations are rewritten to the
    generated anchors so the augmented demo describes its own scene.
    """
    transforms = segment_transforms(demo, anchors)
    positions = demo.positions()
    new_waypoints = list(demo.waypoints)
    new_segments = []
    for seg, pair, tf in zip(demo.segments, anchors, transforms):
        warped = tf.apply(positions[seg.start:seg.stop])
        for offset, idx in enumerate(range(seg.start, seg.stop)):
            w = demo.waypoints[idx]
            new_waypoints[idx] = Waypoint(time=w.time, position=warped[offset], gripper=w.gripper)
        new_segments.append(replace(seg, anchor_start=np.asarray(pair.g_s, dtype=float),
                                    anchor_goal=np.asarray(pair.g_g, dtype=float)))
    return DemoTrajectory(waypoints=tuple(new_waypoints), segments=tuple(new_segments),
                          task=demo.task, source_id=demo.source_id, g_max=demo.g_max)
