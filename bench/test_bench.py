"""Self-tests of the benchmark: tiny workloads, tracer hygiene and the gate.

Run with ``PYTHONPATH=src python -m pytest bench`` from the repository root
(the repository's own test command collects them too).
"""

import contextlib
import json
import shutil
import subprocess
import sys

import pytest

import run
from tracer import Target, Tracer
from workloads import WORKLOADS, make_workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _demoaug_modules():
    return {k: v for k, v in sys.modules.items() if k == "demoaug" or k.startswith("demoaug.")}


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    """The benchmark re-imports demoaug; give the rest of the test run back
    the module objects it imported."""
    saved = _demoaug_modules()
    monkeypatch.chdir(run.ROOT)
    yield
    for name in _demoaug_modules():
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_at_tiny_size(tmp_path, workload, trace):
    result = run.run(workload, seed=5, seconds=0.0, trace=trace, small=True,
                     workdir=tmp_path / "work")
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 2
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_split_on_campaign(tmp_path):
    result = run.run("campaign_pick_place", seed=5, seconds=0.0, trace=True, small=True,
                     workdir=tmp_path / "work")
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["policy.predict.calls"] == 0 and m["ensemble.ensemble_action.calls"] == 0
    assert m["ensemble.compute_k.calls"] == 0


def _attribute_snapshot():
    return {(name, attr): value for name, module in _demoaug_modules().items()
            for attr, value in vars(module).items()}


@pytest.mark.parametrize("raises", [False, True], ids=["clean_exit", "workload_raises"])
def test_tracer_restores_every_patched_attribute(raises):
    demoaug = run.fresh_import()
    policy_cls = demoaug.ScriptedPolicy
    before = _attribute_snapshot()
    predict = vars(policy_cls)["predict"]
    tracer = Tracer([Target(*layer) for layer in run.LAYERS])
    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        with tracer:
            patched = tracer.patched
            sites = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in patched}
            # the bindings a call actually goes through, not just the definitions
            for site in [("demoaug.evaluation", "ensemble_action"),
                         ("demoaug.trajectory", "transform_from_anchors"),
                         ("demoaug.sim", "augment_segmentwise"),
                         ("demoaug.cli", "write_dataset"),
                         ("ScriptedPolicy", "predict")]:
                assert site in sites
            assert vars(policy_cls)["predict"] is not predict
            if raises:
                raise RuntimeError("workload failed")
    for owner, attr, original in patched:
        current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
    assert vars(policy_cls)["predict"] is predict
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_missing_layer_reports_zero_instead_of_failing():
    run.fresh_import()
    with Tracer([Target("gone", "demoaug.sim", "no_such_function")]) as tracer:
        assert tracer.patched == []
    assert tracer.missing == ["gone"]


def test_injected_campaign_mismatch_counts_in_error_ratio(tmp_path):
    workload = make_workload("campaign_pick_place", 5, tmp_path / "truth", small=True)
    workload.setup(run.fresh_import())
    truth = run.Runner(workload, None).unit(0).signature
    good = run.run("campaign_pick_place", 5, 0.0, False, small=True,
                   reference={0: truth}, workdir=tmp_path / "a")
    assert good["correct"] and good["failed"] == 0
    bad = run.run("campaign_pick_place", 5, 0.0, False, small=True,
                  reference={0: {**truth, "sha256": "0" * 64}}, workdir=tmp_path / "b")
    assert not bad["correct"] and bad["failed"] == 1


def test_injected_outcome_mismatch_counts_in_error_ratio(tmp_path):
    workload = make_workload("ablation_push_clean", 5, tmp_path, small=True)
    workload.setup(run.fresh_import())
    truth = run.Runner(workload, None).unit(0).signature
    # one episode per cell, so each cell's outcome vector is its success count
    outcomes = [str(s) for s in truth["successes"]]
    good = run.run("ablation_push_clean", 5, 0.0, True, small=True,
                   reference={0: {**truth, "outcomes": outcomes}}, workdir=tmp_path / "a")
    assert good["correct"] and good["failed"] == 0
    flipped = ["1" if o == "0" else "0" for o in outcomes]
    bad = run.run("ablation_push_clean", 5, 0.0, True, small=True,
                  reference={0: {**truth, "outcomes": flipped}}, workdir=tmp_path / "b")
    assert not bad["correct"] and bad["failed"] >= 1
    assert bad["failed"] / bad["attempted"] > 0


def test_reference_covers_both_seeds_at_the_benchmark_unit_size(tmp_path):
    doc = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for name in WORKLOADS:
        entry = doc["workloads"][name]
        assert entry["unit"] == make_workload(name, 0, tmp_path).unit_params()
        for seed in (doc["default_seed"], doc["held_out_seed"]):
            assert len(entry["seeds"][str(seed)]) > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
