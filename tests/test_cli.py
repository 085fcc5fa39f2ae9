import argparse
import filecmp
import json
import re
from pathlib import Path

import pytest

from demoaug import cli, evaluation, sim
from demoaug.cli import AUGMENT_SECTIONS, build_parser, main
from demoaug.dataset import canonical_json, episode_lines, write_dataset
from demoaug.demos import reference_demo
from demoaug.sim import EpisodeRecord, SimState, run_campaign
from demoaug.tasks import Scene, TaskKind
from demoaug.trajectory import Action, ValidationError

DEMO_DIR = Path(__file__).resolve().parents[1] / "src" / "demoaug" / "demos"
PUSH = str(DEMO_DIR / "push.json")
PICK_PLACE = str(DEMO_DIR / "pick_place.json")
STACK = str(DEMO_DIR / "stack.json")
MISSING = object()  # a key deleted from a document
DIRECTORY = object()  # a document path that is a directory


def assert_trees_identical(a: Path, b: Path):
    cmp = filecmp.dircmp(a, b)
    assert not cmp.left_only and not cmp.right_only and not cmp.diff_files
    for sub in cmp.common_dirs:
        assert_trees_identical(a / sub, b / sub)
    for name in cmp.common_files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def tree_bytes(root: Path) -> dict:
    """Every file under ``root`` by its relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def forbid_episodes(monkeypatch):
    """Make any closed-loop episode from here on fail the test."""
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(evaluation, "run_closed_loop_episode", no_episode)


def forbid_replays(monkeypatch):
    """Make any campaign, replay or closed-loop episode from here on fail the test."""
    def spy(*args, **kwargs):
        raise AssertionError("a replay ran")

    monkeypatch.setattr(sim, "run_campaign", spy)
    monkeypatch.setattr(sim, "attempt_episode", spy)
    forbid_episodes(monkeypatch)


def oracle_lines(episode: EpisodeRecord) -> list[str]:
    """The step records as a nested dict through ``canonical_json``: the
    reference that ``episode_lines`` must match byte for byte."""
    goals = [list(row) for row in episode.goals]
    return [canonical_json({
        "t": s.time,
        "obs": {
            "ee": list(s.ee_pos),
            "gripper": s.gripper,
            "blocks": [list(row) for row in s.blocks],
            "held": [i == s.held for i in range(len(s.blocks))],
            "goals": goals,
        },
        "action": {"pos": list(a.pos), "gripper": a.gripper},
    }) for s, a in zip(episode.states, episode.actions)]


def oracle_diagnostics_line(s) -> str:
    """One ensembler step as the diagnostics record, every field listed by hand."""
    return canonical_json({
        "t": s.t, "mode_used": s.mode_used,
        "candidate_count": s.candidate_count,
        "k_p": None if s.k_p != s.k_p else s.k_p,
        "k_g": None if s.k_g != s.k_g else s.k_g,
        "triggered": s.triggered, "suspended_from": s.suspended_from,
    })


def handmade_episode(zero: float = 0.0, other: float = -0.0) -> EpisodeRecord:
    """Two blocks, signed zeros that flip between steps in every reused
    value, a held index that switches on and off, and action rows that
    repeat and change.  Every step has its own Action and block rows,
    so a value that only flips its zero's sign is a new object."""
    rows = [
        ([[zero, 0.1, 0.02], [0.3, -0.2, 0.02]], None, 0.08, zero),
        ([[other, 0.1, 0.02], [0.3, -0.2, 0.02]], 0, zero, other),
        ([[other, 0.1, 0.02], [0.3, -0.2, 0.02]], 0, other, 0.05),
        ([[0.25, 0.1, zero], [0.3, -0.2, 0.02]], None, other, 0.1),
        ([[0.25, 0.1, other], [0.3, -0.2, other]], 1, 0.08, 0.15),
        ([[0.25, 0.1, other], [0.3, -0.2, zero]], 1, 0.08, 0.2),
        ([[0.25, 0.1, 0.02], [0.3, -0.2, 0.02]], None, 0.08, 0.25),
    ]
    states = tuple(SimState(ee_pos=(0.1 * k, zero if k % 2 else other, 0.2),
                            gripper=gripper, blocks=tuple(map(tuple, blocks)), held=held,
                            time=t)
                   for k, (blocks, held, gripper, t) in enumerate(rows))
    action_pos = [(zero, 0.1, 0.12), (other, 0.1, 0.12), (other, 0.1, 0.12),
                  (0.1, 0.1, 0.12), (0.1, 0.1, 0.12), (0.2, zero, 0.12),
                  (0.2, other, 0.12)]
    action_gripper = [zero, other, other, 0.08, 0.08, zero, zero]
    actions = tuple(map(Action, action_pos, action_gripper))
    return EpisodeRecord(states=states, actions=actions, success=True,
                         goals=((zero, 0.1, 0.02), (other, 0.1, 0.06)))


def nonfinite_episode(field: str, bad: float) -> EpisodeRecord:
    """``handmade_episode`` with ``bad`` put into one value of its last step."""
    ep = handmade_episode()
    last = ep.states[-1]
    if field == "ee_pos":
        last = SimState(ee_pos=(0.1, bad, 0.2), gripper=last.gripper,
                        blocks=last.blocks, time=last.time)
    elif field == "blocks":
        x, y, _ = last.blocks[1]
        last = SimState(ee_pos=last.ee_pos, gripper=last.gripper,
                        blocks=(last.blocks[0], (x, y, bad)), time=last.time)
    elif field == "gripper":
        last = SimState(ee_pos=last.ee_pos, gripper=bad, blocks=last.blocks, time=last.time)
    action = ep.actions[-1]
    if field == "action_pos":
        action = Action((bad, *action.pos[1:]), action.gripper)
    elif field == "action_gripper":
        action = Action(action.pos, bad)
    return EpisodeRecord(states=ep.states[:-1] + (last,), actions=ep.actions[:-1] + (action,),
                         success=True, goals=ep.goals)


class TestDatasetIO:
    @pytest.mark.parametrize("task", ["stack", "push", "pick_place"])
    def test_episode_lines_match_nested_dict_encoding(self, task):
        ds = run_campaign(reference_demo(task), task, count=3, rng_seed=7)
        times = {}
        for ep in ds.episodes:
            assert episode_lines(ep, times) == oracle_lines(ep)

    @pytest.mark.parametrize("zero, other", [(0.0, -0.0), (-0.0, 0.0)])
    def test_episode_lines_keep_signed_zeros(self, zero, other):
        ep = handmade_episode(zero, other)
        assert "-0.0" in "".join(oracle_lines(ep))
        times = {}
        assert episode_lines(ep, times) == oracle_lines(ep)
        # the times dict carries text from one episode to the next
        flipped = handmade_episode(other, zero)
        assert episode_lines(flipped, times) == oracle_lines(flipped)

    def test_episode_without_blocks(self, push_demo):
        ep = sim.replay(push_demo, Scene(block_starts=(), block_goals=()))
        assert ep.states[0].blocks == ()
        assert episode_lines(ep) == oracle_lines(ep)

    @pytest.mark.parametrize("field", ["ee_pos", "blocks", "action_pos", "gripper",
                                       "action_gripper"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_raise(self, field, bad):
        if field.startswith("action_"):
            # an Action holds no NaN or inf, so no episode's action can
            with pytest.raises(ValidationError, match="Action"):
                nonfinite_episode(field, bad)
            return
        ep = nonfinite_episode(field, bad)
        with pytest.raises(ValueError):
            oracle_lines(ep)
        with pytest.raises(ValueError):
            episode_lines(ep)

    def test_round_trip(self, tmp_path, push_demo):
        ds = run_campaign(push_demo, TaskKind.PUSH, count=3, rng_seed=5)
        write_dataset(ds, tmp_path / "ds", run_config={"command": "augment"})
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["task"] == "push"
        assert manifest["successes"] == 3
        assert manifest["discard_rate"] == ds.discard_rate
        lines = (tmp_path / "ds" / manifest["episodes"][0]["file"]).read_text().splitlines()
        steps = [json.loads(line) for line in lines]
        assert len(steps) == len(ds.episodes[0].states)
        first = steps[0]
        assert set(first) == {"t", "obs", "action"}
        assert set(first["obs"]) == {"ee", "gripper", "blocks", "held", "goals"}
        assert set(first["action"]) == {"pos", "gripper"}

    def test_canonical_json_is_stable(self):
        doc = {"b": 1.5, "a": [0.1, 0.2], "c": {"y": True, "x": None}}
        assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))

    def test_write_is_deterministic(self, tmp_path, push_demo):
        ds = run_campaign(push_demo, TaskKind.PUSH, count=2, rng_seed=5)
        write_dataset(ds, tmp_path / "a", run_config={"k": 1})
        write_dataset(ds, tmp_path / "b", run_config={"k": 1})
        assert_trees_identical(tmp_path / "a", tmp_path / "b")


class TestAugmentCommand:
    def test_happy_path(self, tmp_path, capsys):
        code = main(["augment", "--demo", PUSH, "--task", "push", "--count", "3",
                     "--seed", "2", "--out", str(tmp_path / "ds")])
        assert code == 0
        out = capsys.readouterr().out
        assert "successes=3" in out and "discard_rate" in out
        assert (tmp_path / "ds" / "manifest.json").exists()
        assert (tmp_path / "ds" / "episodes" / "ep_00000.jsonl").exists()

    def test_missing_demo_file(self, tmp_path, capsys):
        code = main(["augment", "--demo", "nope.json", "--task", "push",
                     "--count", "1", "--out", str(tmp_path / "ds")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_zero_count_rejected(self, tmp_path, capsys):
        code = main(["augment", "--demo", PUSH, "--task", "push",
                     "--count", "0", "--out", str(tmp_path / "ds")])
        assert code == 1

    @pytest.mark.parametrize("flag, value, field", [
        ("--gain", "nan", "gain"), ("--dt", "nan", "dt"),
        ("--side", "inf", "side"), ("--attempt-cap", "0", "attempt_cap"),
    ])
    def test_bad_value_rejected_before_any_replay(self, tmp_path, capsys, flag, value, field):
        code = main(["augment", "--demo", PUSH, "--task", "push", "--count", "2",
                     flag, value, "--out", str(tmp_path / "ds")])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_attempt_cap_gives_partial_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"success": {"push": 1e-9, "pick_place": 1e-9,
                                               "stack": 1e-9}}))
        code = main(["augment", "--demo", PUSH, "--task", "push", "--count", "2",
                     "--attempt-cap", "4", "--config", str(cfg),
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert manifest["attempts"] == 4

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        assert main(["augment", "--demo", PUSH, "--task", "push", "--count", "3",
                     "--seed", "9", "--out", str(tmp_path / "a")]) == 0
        assert main(["augment", "--from-manifest", str(tmp_path / "a" / "manifest.json"),
                     "--out", str(tmp_path / "b")]) == 0
        assert_trees_identical(tmp_path / "a", tmp_path / "b")

    def test_used_out_rejected_before_any_replay(self, tmp_path, capsys, monkeypatch):
        # a second, smaller run would leave the first run's later episode files in place
        ds = tmp_path / "ds"
        assert main(["augment", "--demo", PUSH, "--task", "push", "--count", "3",
                     "--out", str(ds)]) == 0
        before = tree_bytes(ds)
        capsys.readouterr()

        def no_campaign(*args, **kwargs):
            raise AssertionError("a replay ran")

        monkeypatch.setattr(sim, "run_campaign", no_campaign)
        assert main(["augment", "--demo", PUSH, "--task", "push", "--count", "2",
                     "--out", str(ds)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ds / "episodes") in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert tree_bytes(ds) == before


class TestReplayCommand:
    def test_debug_replay(self, tmp_path, capsys):
        code = main(["replay", "--demo", STACK, "--task", "stack", "--seed", "4",
                     "--out", str(tmp_path / "ep.jsonl")])
        assert code == 0
        assert "success=" in capsys.readouterr().out
        assert (tmp_path / "ep.jsonl").exists()

    def test_non_finite_episode_writes_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "attempt_episode",
                            lambda *args: nonfinite_episode("blocks", float("nan")))
        code = main(["replay", "--demo", STACK, "--task", "stack", "--seed", "4",
                     "--out", str(tmp_path / "ep.jsonl")])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "ep.jsonl").exists()

    @pytest.mark.parametrize("time", ["equal", "nan"])
    def test_demo_whose_times_do_not_increase_is_refused(self, tmp_path, capsys, time):
        # Python's json reads NaN; DemoTrajectory refuses it, naming the waypoint
        doc = json.loads(Path(PUSH).read_text())
        wps = doc["waypoints"]
        wps[1]["t"] = wps[0]["t"] if time == "equal" else float("nan")
        demo = tmp_path / "demo.json"
        demo.write_text(json.dumps(doc))
        code = main(["replay", "--demo", str(demo), "--task", "push",
                     "--out", str(tmp_path / "ep.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
        assert re.search(r"waypoint 1\b", err) and "Traceback" not in err
        assert not (tmp_path / "ep.jsonl").exists()


class TestEnsembleEvalCommand:
    def test_single_cell_and_rerun(self, tmp_path, capsys):
        args = ["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "3",
                "--seed", "1", "--modes", "baseline", "--betas", "1.0",
                "--out", str(tmp_path / "a")]
        assert main(args) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert len(report["cells"]) == 1
        assert report["cells"][0]["mode"] == "baseline"
        assert main(["ensemble-eval", "--from-manifest", str(tmp_path / "a" / "report.json"),
                     "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
               (tmp_path / "b" / "report.json").read_bytes()

    def test_full_matrix_has_eight_cells(self, tmp_path):
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "0",
                     "--out", str(tmp_path / "r")]) == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["run_config"]["matrix"] == [
            {"mode": c.mode.value, "beta": c.beta, "k_cutoff": c.k_cutoff}
            for c in evaluation.default_matrix()]
        assert len(report["cells"]) == 8  # baseline, reset, 3x dynamic, 3x combined
        assert report["n_episodes"] == 0

    def test_diagnostics_stream(self, tmp_path):
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "1",
                     "--modes", "combined", "--betas", "1.0", "--latency", "3",
                     "--diagnostics", "--out", str(tmp_path / "r")]) == 0
        diag_dir = tmp_path / "r" / "diagnostics" / "combined_beta1_kcutoff0.01"
        files = sorted(diag_dir.glob("*.jsonl"))
        assert files
        rec = json.loads(files[0].read_text().splitlines()[0])
        assert set(rec) >= {"t", "mode_used", "candidate_count", "k_p", "k_g"}

    def test_bad_mode_rejected(self, tmp_path):
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "1",
                     "--modes", "nonsense"]) == 1

    def test_negative_k_const_rejected(self, tmp_path, capsys):
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "1",
                     "--k-const", "-1", "--out", str(tmp_path / "r")]) == 1
        assert "k_const" in capsys.readouterr().err
        assert not (tmp_path / "r" / "report.json").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--betas", "nan", "beta"), ("--k-cutoffs", "nan", "k_cutoff"),
    ])
    def test_nan_rejected_before_any_episode(self, tmp_path, capsys, monkeypatch,
                                             flag, value, field):
        forbid_episodes(monkeypatch)
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "1",
                     "--modes", "combined", flag, value, "--out", str(tmp_path / "r")]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_diagnostics_without_out_rejected_before_any_episode(self, capsys, monkeypatch):
        forbid_episodes(monkeypatch)
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "1",
                     "--modes", "combined", "--diagnostics"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--diagnostics" in err

    @pytest.mark.parametrize("betas", ["1,1.0000001", "1,1"])
    def test_diagnostics_dir_clash_rejected_before_any_episode(self, tmp_path, capsys,
                                                               monkeypatch, betas):
        # beta is named with 6 significant digits, so these two cells share one directory
        forbid_episodes(monkeypatch)
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "2",
                     "--modes", "dynamic_k", "--betas", betas, "--diagnostics",
                     "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dynamic_k_beta1_kcutoff0.01" in err
        assert not (tmp_path / "r").exists()

    def test_used_diagnostics_dir_rejected_before_any_episode(self, tmp_path, capsys,
                                                              monkeypatch):
        args = ["ensemble-eval", "--demo", PUSH, "--task", "push", "--modes", "baseline",
                "--betas", "1.0", "--diagnostics", "--out", str(tmp_path / "r")]
        assert main([*args, "--episodes", "2"]) == 0
        before = tree_bytes(tmp_path / "r")
        capsys.readouterr()
        forbid_episodes(monkeypatch)
        assert main([*args, "--episodes", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "r" / "diagnostics") in err
        assert tree_bytes(tmp_path / "r") == before

    def test_empty_manifest_matrix_rejected_before_any_episode(self, tmp_path, capsys,
                                                               monkeypatch):
        forbid_episodes(monkeypatch)
        rc = {"command": "ensemble-eval", "version": "0.1.0", "demo": PUSH, "task": "push",
              "episodes": 1, "seed": 0, "matrix": [], "ensemble": {}, "disturbance": {},
              "workspace": {}, "controller": {}, "success": {}}
        (tmp_path / "m.json").write_text(json.dumps({"run_config": rc}))
        assert main(["ensemble-eval", "--from-manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "r")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "run_config.matrix" in captured.err
        assert not captured.out and not (tmp_path / "r").exists()

    def test_diagnostics_lines_match_hand_listed_encoder(self, tmp_path, monkeypatch):
        seen = []

        def recording_eval(*args, diagnostics_sink, **kwargs):
            def sink(cfg, episode_index, seed, stats):
                seen.append(list(stats))
                diagnostics_sink(cfg, episode_index, seed, stats)
            return evaluation.closed_loop_eval(*args, diagnostics_sink=sink, **kwargs)

        monkeypatch.setattr(cli, "closed_loop_eval", recording_eval)
        assert main(["ensemble-eval", "--demo", STACK, "--task", "stack", "--episodes", "1",
                     "--latency", "3", "--bimodal-period", "2", "--modes", "combined",
                     "--betas", "1.0", "--diagnostics", "--out", str(tmp_path / "r")]) == 0
        [stats] = seen
        # a disturbed stack episode fills every field: warm-up NaNs, triggers, replays
        assert any(s.k_p != s.k_p for s in stats) and any(s.triggered for s in stats)
        assert any(s.suspended_from is not None for s in stats)
        path = tmp_path / "r" / "diagnostics" / "combined_beta1_kcutoff0.01" / "ep_00000.jsonl"
        assert path.read_text().splitlines() == [oracle_diagnostics_line(s) for s in stats]

    @pytest.mark.parametrize("sweep, flag", [
        (["--modes", "combined", "--k-cutoffs", ""], "--k-cutoffs"),
        (["--modes", "baseline,combined", "--betas", ""], "--betas"),
        (["--modes", " , "], "--modes"),
    ], ids=["k_cutoffs", "betas", "modes"])
    def test_empty_sweep_rejected(self, tmp_path, capsys, sweep, flag):
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "0",
                     *sweep, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("entry, key", [
        ({"beta": 1.0}, "mode"), ({"mode": "combined"}, "beta"),
    ])
    def test_matrix_entry_without_mode_or_beta_rejected(self, tmp_path, capsys, entry, key):
        rc = {"command": "ensemble-eval", "version": "0.1.0", "demo": PUSH, "task": "push",
              "episodes": 0, "seed": 0, "matrix": [{"mode": "baseline", "beta": 1.0}, entry],
              "ensemble": {}, "disturbance": {}, "workspace": {}, "controller": {},
              "success": {}}
        (tmp_path / "m.json").write_text(json.dumps({"run_config": rc}))
        assert main(["ensemble-eval", "--from-manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"matrix.1 lacks {key}" in err
        assert not (tmp_path / "r").exists()


class TestStatsCommand:
    def test_dataset_summary(self, tmp_path, capsys):
        main(["augment", "--demo", PUSH, "--task", "push", "--count", "2",
              "--out", str(tmp_path / "ds")])
        capsys.readouterr()
        assert main(["stats", str(tmp_path / "ds")]) == 0
        out = capsys.readouterr().out
        assert "episodes=2" in out

    def test_invalid_path(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nothing")]) == 1

    @pytest.mark.parametrize("doc, key", [
        ({"cells": [{"x": 1}], "task": "push", "n_episodes": 1}, "cells.0 lacks mode"),
        ({"cells": [{"mode": "baseline", "beta": 1.0}], "task": "push", "n_episodes": 1},
         "cells.0 lacks rate"),
        ({"cells": [], "n_episodes": 1}, "lacks task"),
        ({"cells": [5], "task": "push", "n_episodes": 1}, "cells.0 must be a JSON object"),
        ({"cells": [{"mode": "baseline", "beta": 1.0, "rate": None}], "task": "push",
          "n_episodes": 1}, "report cells.0.rate must be a number"),
        ({"cells": [{"mode": "baseline", "beta": "x", "rate": 0.5}], "task": "push",
          "n_episodes": 1}, "report cells.0.beta must be a number"),
        ({"cells": {}, "task": "push", "n_episodes": 1}, "report.cells must be a list"),
    ], ids=["cell_without_mode", "cell_without_rate", "no_task", "cell_not_object",
            "rate_null", "beta_string", "cells_not_list"])
    def test_malformed_report_rejected(self, tmp_path, capsys, doc, key):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert main(["stats", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and key in captured.err
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("key, value, message", [
        *[pytest.param(key, MISSING, f"manifest lacks {key}", id=key)
          for key in ("episodes", "task", "attempts", "discard_rate", "complete")],
        pytest.param("steps", MISSING, "manifest episodes.0 lacks steps", id="steps"),
        pytest.param("steps", "3", "manifest episodes.0.steps must be an integer",
                     id="steps_string"),
        pytest.param("discard_rate", None, "manifest.discard_rate must be a number",
                     id="discard_rate_null"),
        pytest.param("complete", 1, "manifest.complete must be true or false",
                     id="complete_integer"),
        pytest.param(None, [], "manifest must be a JSON object", id="not_object"),
        pytest.param("format_version", 2, "manifest.format_version must be 1, got 2",
                     id="format_version_2"),
        pytest.param(None, DIRECTORY, "cannot read manifest ", id="manifest_is_directory"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, capsys, key, value, message):
        manifest = {"format_version": 1, "task": "push", "attempts": 2, "discard_rate": 0.5,
                    "complete": True, "episodes": [{"file": "episodes/ep_00000.jsonl",
                                                    "steps": 3}]}
        owner = manifest["episodes"][0] if key == "steps" else manifest
        if key is None:
            manifest = value
        elif value is MISSING:
            del owner[key]
        else:
            owner[key] = value
        (tmp_path / "ds").mkdir()
        if manifest is DIRECTORY:
            (tmp_path / "ds" / "manifest.json").mkdir()
        else:
            (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
        assert main(["stats", str(tmp_path / "ds")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err and not captured.out


class TestCalibrateCommand:
    """Calibrating the suspension cutoff is an ensemble-eval sweep over k_cutoff."""

    def test_short_sweep(self, tmp_path):
        assert main(["ensemble-eval", "--demo", STACK, "--task", "stack", "--episodes", "4",
                     "--modes", "combined", "--betas", "1.0", "--k-cutoffs", "0.01,0.5",
                     "--latency", "3", "--bimodal-period", "2",
                     "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        # the counts the former calibrate-cutoff command gave for this sweep
        assert [(c["mode"], c["k_cutoff"], c["successes"]) for c in report["cells"]] == \
               [("combined", 0.01, 4), ("combined", 0.5, 0)]
        assert main(["ensemble-eval", "--from-manifest", str(tmp_path / "a" / "report.json"),
                     "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
               (tmp_path / "b" / "report.json").read_bytes()

    def test_report_without_cutoff_axis_reruns(self, tmp_path):
        # matrix entries written before k_cutoff was an axis carry mode and beta only
        rc = {"command": "ensemble-eval", "version": "0.1.0", "demo": STACK, "task": "stack",
              "episodes": 2, "seed": 0, "matrix": [{"mode": "combined", "beta": 1.0}],
              "ensemble": {"k_cutoff": 0.5}, "disturbance": {"latency": 3, "bimodal_period": 2},
              "workspace": {}, "controller": {}, "success": {}}
        (tmp_path / "v1.json").write_text(json.dumps({"run_config": rc}))
        assert main(["ensemble-eval", "--from-manifest", str(tmp_path / "v1.json"),
                     "--out", str(tmp_path / "r")]) == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["run_config"] == rc
        assert [(c["k_cutoff"], c["successes"]) for c in report["cells"]] == [(0.5, 0)]


AUGMENT_RC = {"command": "augment", "version": "0.1.0", "demo": PUSH, "task": "push",
              "count": 1, "seed": 0, "attempt_cap": None,
              "workspace": {}, "controller": {}, "success": {}}


# the ensemble keys every report of the version before replay length, warm-up and
# the clear after a suspension were fixed holds, at the values it wrote by default
RETIRED_KEYS = {"replay_n": None, "warmup_steps": 5, "clear_after_suspend": True}


def stack_report(tmp_path, name="a") -> Path:
    """A disturbed stack run, whose suspensions replay, clear and re-warm, with diagnostics."""
    out = tmp_path / name
    assert main(["ensemble-eval", "--demo", STACK, "--task", "stack", "--episodes", "2",
                 "--latency", "3", "--bimodal-period", "2", "--modes", "baseline,combined",
                 "--betas", "1.0", "--diagnostics", "--out", str(out)]) == 0
    return out


def with_ensemble_keys(report: Path, path: Path, keys: dict) -> Path:
    """The report at ``report`` with ``keys`` added to its run_config.ensemble,
    written to ``path`` as a report is written."""
    doc = json.loads(report.read_text())
    doc["run_config"]["ensemble"].update(keys)
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    return path


class TestRerunRules:
    def test_report_with_retired_keys_reruns_byte_identical(self, tmp_path):
        fresh = stack_report(tmp_path)
        assert not set(RETIRED_KEYS) & set(
            json.loads((fresh / "report.json").read_text())["run_config"]["ensemble"])
        old = with_ensemble_keys(fresh / "report.json", tmp_path / "old.json", RETIRED_KEYS)
        assert main(["ensemble-eval", "--from-manifest", str(old), "--diagnostics",
                     "--out", str(tmp_path / "rerun")]) == 0
        # run_config is echoed as read, and the run is the fresh one
        assert (tmp_path / "rerun" / "report.json").read_bytes() == old.read_bytes()
        assert_trees_identical(fresh / "diagnostics", tmp_path / "rerun" / "diagnostics")

    @pytest.mark.parametrize("key, value", [
        ("replay_n", 6), ("replay_n", 10), ("warmup_steps", 3), ("warmup_steps", True),
        ("clear_after_suspend", False), ("clear_after_suspend", 1),
    ])
    def test_retired_key_at_another_value_refused_before_any_episode(
            self, tmp_path, capsys, monkeypatch, key, value):
        fresh = stack_report(tmp_path)
        old = with_ensemble_keys(fresh / "report.json", tmp_path / "old.json",
                                 {**RETIRED_KEYS, key: value})
        capsys.readouterr()
        forbid_episodes(monkeypatch)
        assert main(["ensemble-eval", "--from-manifest", str(old),
                     "--out", str(tmp_path / "rerun")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and f"ensemble.{key}" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not captured.out and not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("flags", [
        ["--replay-n", "6"], ["--warmup-steps", "3"], ["--no-clear-after-suspend"],
    ], ids=["replay_n", "warmup_steps", "clear_after_suspend"])
    def test_retired_flag_does_not_parse(self, capsys, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ensemble-eval", "--demo", PUSH, "--task", "push",
                                       "--episodes", "1", *flags])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_chunk_len_below_two_rejected_before_any_episode(self, tmp_path, capsys,
                                                             monkeypatch):
        forbid_episodes(monkeypatch)
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "1",
                     "--chunk-len", "1", "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: chunk_len ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("cmd, flags", [
        ("ensemble-eval", ["--episodes", "1", "--latency", "0", "--modes", "baseline"]),
        ("ensemble-eval", ["--seed", "0"]),
        ("ensemble-eval", ["--demo", PUSH, "--task", "push"]),
        ("ensemble-eval", ["--betas", "1.0", "--k-cutoffs", "0.5"]),
        ("ensemble-eval", ["--chunk-len", "16", "--config", "c.json"]),
        ("augment", ["--count", "2"]),
        ("augment", ["--seed", "0", "--attempt-cap", "3"]),
        ("augment", ["--config", "c.json", "--gain", "4"]),
    ], ids=["episodes_latency_modes", "seed", "demo_task", "sweeps", "chunk_len_config",
            "count", "seed_attempt_cap", "config_gain"])
    def test_run_flag_with_manifest_rejected_before_any_work(self, tmp_path, capsys,
                                                             monkeypatch, cmd, flags):
        if cmd == "augment":
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"run_config": AUGMENT_RC}))
        else:
            manifest = stack_report(tmp_path) / "report.json"
            capsys.readouterr()
        forbid_replays(monkeypatch)
        assert main([cmd, "--from-manifest", str(manifest), *flags,
                     "--out", str(tmp_path / "rerun")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert all(f in captured.err for f in flags if f.startswith("--"))
        assert not captured.out and not (tmp_path / "rerun").exists()


@pytest.mark.parametrize("cmd, source, doc, key", [
    ("ensemble-eval", "--from-manifest", {"run_config": AUGMENT_RC}, "command"),
    ("ensemble-eval", "--config", {"controller": {"gian": 3}}, "controller.gian"),
    ("ensemble-eval", "--config", {"controller": 5}, "controller"),
    ("augment", "--config", {"workspace": {"pick_goal_z": 3}}, "workspace.pick_goal_z"),
    ("augment", "--from-manifest", {"run_config": {**AUGMENT_RC, "count": "3"}}, "count"),
    ("ensemble-eval", "--config", {"ensemble": {"replay_n": None}}, "ensemble.replay_n"),
], ids=["wrong_command", "unknown_key", "section_not_object", "pair_not_list",
        "count_not_integer", "retired_key_in_config"])
def test_malformed_run_config_rejected(tmp_path, capsys, cmd, source, doc, key):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = [cmd, source, str(path), "--out", str(tmp_path / "out")]
    if source == "--config":
        argv += ["--demo", PUSH, "--task", "push",
                 "--count" if cmd == "augment" else "--episodes", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, role", [
    (["stats", "{path}"], "report"),
    (["augment", "--config", "{path}", "--demo", PUSH, "--task", "push", "--count", "1",
      "--out", "{out}"], "config file"),
    (["ensemble-eval", "--from-manifest", "{path}", "--out", "{out}"], "manifest"),
    (["stats", "{dir}"], "manifest"),
], ids=["stats_report", "config_file", "manifest", "stats_dataset"])
def test_truncated_json_names_its_role(tmp_path, capsys, argv, role):
    path = tmp_path / "ds" / "manifest.json"
    path.parent.mkdir()
    path.write_text('{"cells": [')
    out = tmp_path / "out"
    assert main([a.format(path=path, dir=path.parent, out=out) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {role} {path}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("cmd, out", [
    ("augment", "{file}"), ("ensemble-eval", "{file}"), ("replay", "{file}/ep.jsonl"),
], ids=["augment", "ensemble_eval", "replay"])
def test_out_under_a_file_rejected_before_any_work(tmp_path, capsys, monkeypatch, cmd, out):
    forbid_replays(monkeypatch)
    file = tmp_path / "afile"
    file.write_text("kept")
    argv = [cmd, "--demo", PUSH, "--task", "push", "--out", out.format(file=file)]
    argv += {"augment": ["--count", "2"], "ensemble-eval": ["--episodes", "1"]}.get(cmd, [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"{file} is a regular file" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not captured.out and file.read_text() == "kept"


@pytest.mark.parametrize("argv, made", [
    (["replay", "--out", "emptyd"], "emptyd/"),
    (["ensemble-eval", "--episodes", "1", "--out", "r"], "r/report.json/"),
    (["augment", "--count", "2", "--out", "ds"], "ds/episodes"),
    (["ensemble-eval", "--episodes", "1", "--diagnostics", "--out", "r"], "r/diagnostics"),
], ids=["replay_into_directory", "report_is_directory", "episodes_is_file",
        "diagnostics_is_file"])
def test_out_of_the_wrong_kind_rejected_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                         made):
    # a file the command writes is a directory (``made`` ends in /), or a
    # directory it writes is a regular file
    forbid_replays(monkeypatch)
    target = tmp_path / made
    if made.endswith("/"):
        target.mkdir(parents=True)
    else:
        target.parent.mkdir()
        target.write_text("kept")
    before = sorted(tmp_path.rglob("*"))
    argv = [*argv[:-1], str(tmp_path / argv[-1]), "--demo", PUSH, "--task", "push"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not captured.out and sorted(tmp_path.rglob("*")) == before


OVERSIZED = 10 ** 400


@pytest.mark.parametrize("cmd, config, flags, field", [
    ("augment", {"controller": {"gain": OVERSIZED}}, [], "gain"),
    ("augment", {"workspace": {"pick_goal_z": [0.02, OVERSIZED]}}, [], "pick_goal_z"),
    ("ensemble-eval", None, ["--latency", "100000000000000000000"], "latency"),
    ("ensemble-eval", None, ["--chunk-len", "1000000000000000000000"], "chunk_len"),
    ("augment", None, ["--seed", "-1"], "seed"),
    ("ensemble-eval", None, ["--seed", "-1"], "seed"),
], ids=["config_gain", "config_pick_goal_z", "latency_flag", "chunk_len_flag",
        "augment_negative_seed", "ensemble_eval_negative_seed"])
def test_oversized_number_rejected_before_any_work(tmp_path, capsys, monkeypatch, cmd, config,
                                                   flags, field):
    forbid_replays(monkeypatch)
    argv = [cmd, "--demo", PUSH, "--task", "push", "--out", str(tmp_path / "out"), *flags,
            "--count" if cmd == "augment" else "--episodes", "1"]
    if config:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field} ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not captured.out and not (tmp_path / "out").exists()


def test_negative_seed_rejected_when_no_episode_runs(tmp_path, capsys):
    # no scene seed is drawn for zero episodes, so the report would record the seed
    argv = ["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "0",
            "--seed", "-1", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: seed must be an integer from 0 ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd", ["augment", "ensemble-eval"])
@pytest.mark.parametrize("args, problem", [
    (["--demo", STACK], "push expects 1 segment(s), demo has 2"),
    (["--demo", PUSH, "--side", "0.05"], "no valid push scene"),
    (["--demo", PICK_PLACE], "demo task is 'pick_place', not 'push'"),
], ids=["segment_mismatch", "sampling_exhausted", "task_mismatch"])
def test_input_error_raised_in_library_exits_1(tmp_path, capsys, cmd, args, problem):
    argv = [cmd, *args, "--task", "push", "--count" if cmd == "augment" else "--episodes",
            "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_replay_of_a_demo_of_another_task_exits_1(tmp_path, capsys):
    out = tmp_path / "episode.jsonl"
    assert main(["replay", "--demo", PICK_PLACE, "--task", "push", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: demo task is 'pick_place', not 'push'\n"
    assert not captured.out and not out.exists()


# every subcommand's options and the type each parses its value with, as the
# hand-written parser had them; None for an option that keeps its text or takes none
OVERRIDE_OPTIONS = {
    "--config": None, "--side": float, "--gain": float, "--max-speed": float,
    "--max-gripper-speed": float, "--dt": float, "--waypoint-advance-radius": float,
    "--waypoint-timeout": float, "--settle-time": float,
}
EVAL_OVERRIDE_OPTIONS = {
    "--k-const": float, "--chunk-len": int, "--latency": int, "--bimodal-period": int,
    "--bimodal-gap": int, "--noise": float,
}
OPTIONS = {
    "augment": {"--demo": None, "--task": None, "--count": int, "--seed": int, "--out": None,
                "--attempt-cap": int, "--from-manifest": None, **OVERRIDE_OPTIONS},
    "replay": {"--demo": None, "--task": None, "--seed": int, "--out": None,
               **OVERRIDE_OPTIONS},
    "ensemble-eval": {"--demo": None, "--task": None, "--episodes": int, "--seed": int,
                      "--out": None, "--modes": None, "--betas": None, "--k-cutoffs": None,
                      "--diagnostics": None, "--from-manifest": None,
                      **OVERRIDE_OPTIONS, **EVAL_OVERRIDE_OPTIONS},
    "stats": {"path": None},
}
# each override flag, the text given to it, and the section, field and value it sets
OVERRIDES = [
    ("--side", "0.6", "workspace", "side", 0.6),
    ("--gain", "4", "controller", "gain", 4.0),
    ("--max-speed", "0.4", "controller", "max_speed", 0.4),
    ("--max-gripper-speed", "0.3", "controller", "max_gripper_speed", 0.3),
    ("--dt", "0.04", "controller", "dt", 0.04),
    ("--waypoint-advance-radius", "0.02", "controller", "waypoint_advance_radius", 0.02),
    ("--waypoint-timeout", "1.5", "controller", "waypoint_timeout", 1.5),
    ("--settle-time", "0.25", "controller", "settle_time", 0.25),
    ("--k-const", "0.02", "ensemble", "k_const", 0.02),
    ("--chunk-len", "16", "ensemble", "chunk_len", 16),
    ("--latency", "3", "disturbance", "latency", 3),
    ("--bimodal-period", "2", "disturbance", "bimodal_period", 2),
    ("--bimodal-gap", "4", "disturbance", "bimodal_gap", 4),
    ("--noise", "0.01", "disturbance", "noise", 0.01),
]


class TestOverrideFlags:
    def test_options_and_types_match_hand_written_parser(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(OPTIONS)
        for cmd, parser in subparsers.choices.items():
            options = {name: action.type for action in parser._actions
                       for name in action.option_strings or [action.dest]
                       if name not in ("-h", "--help")}
            assert options == OPTIONS[cmd], cmd

    def test_every_override_flag_is_listed(self):
        assert {flag for flag, *_ in OVERRIDES} == \
               (set(OVERRIDE_OPTIONS) | set(EVAL_OVERRIDE_OPTIONS)) - {"--config"}

    @pytest.mark.parametrize("cmd, flag, text, section, field, value", [
        pytest.param(cmd, *override, id=f"{cmd}{override[0]}")
        for cmd in ("augment", "replay", "ensemble-eval") for override in OVERRIDES
        if cmd == "ensemble-eval" or override[2] in AUGMENT_SECTIONS])
    def test_flag_sets_its_field(self, cmd, flag, text, section, field, value):
        names = AUGMENT_SECTIONS if cmd != "ensemble-eval" else tuple(cli.SECTIONS)
        required = ["--demo", PUSH, "--task", "push", "--out", "o"]
        parse = build_parser().parse_args
        defaults = cli._build_sections(parse([cmd, *required]), names)
        args = parse([cmd, *required, flag, text])
        sections = cli._build_sections(args, names)
        assert sections == {**defaults, section: {**defaults[section], field: value}}
        assert type(sections[section][field]) is type(value)
