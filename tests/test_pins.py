"""Pinned outputs: closed-loop outcomes and step counts, campaign and replay
bytes, and the shapes of the bundled demos.

The recorded values are in ``pins.json``.  ``tools/regenerate_golden.py``
computes them with the functions these tests call and lists every value that
changed.  The pins guard the simulated trajectory, the predictor's chunks,
the ensembler's actions and the serialised records: a change to any of them
by even one step or one float shows up here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    path = ROOT / "tools" / "regenerate_golden.py"
    spec = importlib.util.spec_from_file_location("regenerate_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()
PINS = json.loads(TOOL.PINS.read_text(encoding="utf-8"))


def test_stack_disturbed_outcomes_and_steps():
    outcomes, steps = TOOL.stack_outcomes_and_steps()
    assert outcomes == PINS["stack_outcomes"]
    assert steps == PINS["stack_steps"]


def test_pick_place_campaign_bytes():
    assert TOOL.campaign_digest("pick_place") == (3, PINS["campaign_sha256"]["pick_place"])


# two-block settling and the held flags show only in stack and push records
@pytest.mark.parametrize("task", ["stack", "push"])
def test_campaign_bytes(task):
    assert TOOL.campaign_digest(task) == (3, PINS["campaign_sha256"][task])


def test_replay_command_output():
    assert TOOL.replay_output() == (PINS["replay_stdout"], PINS["replay_sha256"])


@pytest.mark.parametrize("task", ["push", "pick_place", "stack"])
def test_fixture_shapes(task):
    assert TOOL.fixture_shape(task) == PINS["fixture_shapes"][task]


def test_regenerate_golden_lists_each_flipped_pin():
    pins = TOOL.current_pins()
    assert TOOL.pin_flips(PINS, pins) == []
    doctored = json.loads(json.dumps(PINS))
    doctored["campaign_sha256"]["push"] = "0" * 64
    assert TOOL.pin_flips(doctored, pins) == [
        f'campaign_sha256.push: "{"0" * 64}" -> "{PINS["campaign_sha256"]["push"]}"']
