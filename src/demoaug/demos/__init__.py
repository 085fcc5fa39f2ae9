"""Bundled reference demonstrations, one per task.

The fixtures were generated once by tools/make_fixtures.py with hand-chosen
geometry and committed.  Each segment begins with an approach (hover above
the pickup, then descend) and holds a dwell while the gripper closes or
opens, which is what a teleoperated recording of these tasks looks like at
20 Hz.
"""

from __future__ import annotations

from importlib import resources

from ..tasks import as_task
from ..trajectory import DemoTrajectory, parse_demo


def _read(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text(encoding="utf-8")


def reference_demo(task) -> DemoTrajectory:
    """Load the bundled demo for a task."""
    return parse_demo(_read(f"{as_task(task).value}.json"))

