import filecmp
import json
from pathlib import Path

import pytest

from demoaug import evaluation
from demoaug.cli import main
from demoaug.dataset import canonical_json, read_episode_steps, read_manifest, write_dataset
from demoaug.demos import reference_demo
from demoaug.sim import run_campaign
from demoaug.tasks import TaskKind

DEMO_DIR = Path(__file__).resolve().parents[1] / "src" / "demoaug" / "demos"
PUSH = str(DEMO_DIR / "push.json")
STACK = str(DEMO_DIR / "stack.json")


def assert_trees_identical(a: Path, b: Path):
    cmp = filecmp.dircmp(a, b)
    assert not cmp.left_only and not cmp.right_only and not cmp.diff_files
    for sub in cmp.common_dirs:
        assert_trees_identical(a / sub, b / sub)
    for name in cmp.common_files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


class TestDatasetIO:
    def test_round_trip(self, tmp_path, push_demo):
        ds = run_campaign(push_demo, TaskKind.PUSH, count=3, rng_seed=5)
        write_dataset(ds, tmp_path / "ds", run_config={"command": "augment"})
        manifest = read_manifest(tmp_path / "ds")
        assert manifest["task"] == "push"
        assert manifest["successes"] == 3
        assert manifest["discard_rate"] == ds.discard_rate
        steps = read_episode_steps(tmp_path / "ds", manifest["episodes"][0])
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
        manifest = read_manifest(tmp_path / "ds")
        assert manifest["complete"] is False
        assert manifest["attempts"] == 4

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        assert main(["augment", "--demo", PUSH, "--task", "push", "--count", "3",
                     "--seed", "9", "--out", str(tmp_path / "a")]) == 0
        assert main(["augment", "--from-manifest", str(tmp_path / "a" / "manifest.json"),
                     "--out", str(tmp_path / "b")]) == 0
        assert_trees_identical(tmp_path / "a", tmp_path / "b")

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEMOAUG_OUT_ROOT", str(tmp_path))
        assert main(["augment", "--demo", PUSH, "--task", "push", "--count", "1",
                     "--out", "nested/ds"]) == 0
        assert (tmp_path / "nested" / "ds" / "manifest.json").exists()


class TestReplayCommand:
    def test_debug_replay(self, tmp_path, capsys):
        code = main(["replay", "--demo", STACK, "--task", "stack", "--seed", "4",
                     "--out", str(tmp_path / "ep.jsonl")])
        assert code == 0
        assert "success=" in capsys.readouterr().out
        assert (tmp_path / "ep.jsonl").exists()


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
        assert len(report["cells"]) == 8  # baseline, reset, 3x dynamic, 3x combined
        assert report["n_episodes"] == 0

    def test_diagnostics_stream(self, tmp_path):
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "1",
                     "--modes", "combined", "--betas", "1.0", "--latency", "3",
                     "--diagnostics", "--out", str(tmp_path / "r")]) == 0
        diag_dir = tmp_path / "r" / "diagnostics" / "combined_beta1"
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
        ("--betas", "nan", "beta"), ("--k-cutoff", "nan", "k_cutoff"),
    ])
    def test_nan_rejected_before_any_episode(self, tmp_path, capsys, monkeypatch,
                                             flag, value, field):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(evaluation, "run_closed_loop_episode", no_episode)
        assert main(["ensemble-eval", "--demo", PUSH, "--task", "push", "--episodes", "1",
                     "--modes", "combined", flag, value, "--out", str(tmp_path / "r")]) == 1
        assert field in capsys.readouterr().err
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


class TestCalibrateCommand:
    def test_short_sweep(self, tmp_path, capsys):
        code = main(["calibrate-cutoff", "--demo", PUSH, "--task", "push",
                     "--episodes", "2", "--cutoffs", "0.01,0.5",
                     "--out", str(tmp_path / "cal")])
        assert code == 0
        doc = json.loads((tmp_path / "cal" / "calibration.json").read_text())
        assert [c["k_cutoff"] for c in doc["curve"]] == [0.01, 0.5]
        assert doc["disturbance"]["latency"] == 3
