#!/usr/bin/env python3
"""Generate the bundled reference demonstrations.

Run once; outputs are committed under src/demoaug/demos/.  Geometry is
hand-chosen: approach from a hover, descend onto the block, dwell while the
gripper closes, carry, place (or hold, for the elevated pick-and-place
goal), dwell while it opens, retreat.  Waypoints are spaced ~1.2 cm apart
at 20 Hz, which is the texture a teleoperated recording has.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from demoaug.trajectory import DemoTrajectory, Segment, Waypoint, demo_to_document, parse_demo

SPACING = 0.012   # m between interpolated waypoints
DT = 0.05         # s between waypoints
OPEN = 0.08
CLOSED = 0.03
CLOSE_DWELL = 12  # waypoints held at the grasp point while closing
OPEN_DWELL = 10
HOLD = 8          # waypoints held at an aerial goal


def leg(path: list, frm, to):
    """Append evenly spaced points from frm (exclusive) to to (inclusive)."""
    frm, to = np.asarray(frm, float), np.asarray(to, float)
    n = max(1, int(np.ceil(np.linalg.norm(to - frm) / SPACING)))
    for i in range(1, n + 1):
        path.append(frm + (to - frm) * (i / n))
    return path


def dwell(path: list, n: int):
    for _ in range(n):
        path.append(np.array(path[-1]))
    return path


def pick_segment(start_hover, block, lift_z):
    """Approach, grasp, and lift one block; returns (points, grippers)."""
    pts: list = [np.asarray(start_hover, float)]
    leg(pts, pts[-1], block)
    n_approach = len(pts)
    dwell(pts, CLOSE_DWELL)
    leg(pts, pts[-1], np.asarray(block, float) + [0, 0, lift_z])
    grips = [OPEN] * n_approach + [CLOSED] * (len(pts) - n_approach)
    return pts, grips


def place_tail(pts, grips, goal, approach_z, release: bool, retreat_z):
    """Carry to the goal and either release there or hold."""
    goal = np.asarray(goal, float)
    leg(pts, pts[-1], goal + [0, 0, approach_z])
    leg(pts, pts[-1], goal)
    grips += [CLOSED] * (len(pts) - len(grips))
    if release:
        dwell(pts, OPEN_DWELL)
        leg(pts, pts[-1], goal + [0, 0, retreat_z])
        grips += [OPEN] * (len(pts) - len(grips))
    else:
        dwell(pts, HOLD)
        grips += [CLOSED] * (len(pts) - len(grips))
    return pts, grips


def build_push():
    block = [0.08, 0.06, 0.02]
    goal = [-0.15, -0.10, 0.02]
    pts, grips = pick_segment([0.08, 0.06, 0.10], block, 0.04)
    pts, grips = place_tail(pts, grips, goal, 0.04, release=True, retreat_z=0.08)
    return {"task": "push", "source_id": "reference-push",
            "segments": [("move-block", block, goal, len(pts))]}, pts, grips


def build_pick_place():
    block = [0.10, -0.05, 0.02]
    goal = [-0.12, 0.14, 0.12]
    pts, grips = pick_segment([0.10, -0.05, 0.12], block, 0.12)
    pts, grips = place_tail(pts, grips, goal, 0.06, release=False, retreat_z=0.0)
    return {"task": "pick_place", "source_id": "reference-pick-place",
            "segments": [("move-block", block, goal, len(pts))]}, pts, grips


def build_stack():
    b1, b2 = [0.10, 0.10, 0.02], [-0.10, 0.08, 0.02]
    g1, g2 = [0.02, -0.12, 0.02], [0.02, -0.12, 0.06]
    pts, grips = pick_segment([0.10, 0.10, 0.10], b1, 0.12)
    pts, grips = place_tail(pts, grips, g1, 0.08, release=True, retreat_z=0.10)
    n1 = len(pts)
    pts2, grips2 = pick_segment([-0.10, 0.08, 0.10], b2, 0.12)
    pts2, grips2 = place_tail(pts2, grips2, g2, 0.08, release=True, retreat_z=0.10)
    return {"task": "stack", "source_id": "reference-stack",
            "segments": [("move-block-1", b1, g1, n1),
                         ("move-block-2", b2, g2, len(pts2))]}, pts + pts2, grips + grips2


def rounded(point):
    return tuple(round(float(x), 6) for x in point)


def to_demo(meta, pts, grips) -> DemoTrajectory:
    """The fixture as a demo, every coordinate and time rounded to 1e-6."""
    segments, start = [], 0
    for label, anchor_start, anchor_goal, count in meta["segments"]:
        segments.append(Segment(label, start, start + count, rounded(anchor_start),
                                rounded(anchor_goal)))
        start += count
    waypoints = [Waypoint(pos=rounded(p), gripper=g, time=round(i * DT, 6))
                 for i, (p, g) in enumerate(zip(pts, grips))]
    return DemoTrajectory(waypoints, segments, meta["task"], meta["source_id"], OPEN)


def main():
    out_dir = Path(__file__).resolve().parents[1] / "src" / "demoaug" / "demos"
    for builder in (build_push, build_pick_place, build_stack):
        demo = to_demo(*builder())
        doc = demo_to_document(demo)
        parse_demo(doc)  # validate before writing
        path = out_dir / f"{demo.task}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"{demo.task}: {len(demo.waypoints)} waypoints, "
              f"{len(demo.segments)} segment(s)")


if __name__ == "__main__":
    main()
