import ast
import importlib.util
import re
import subprocess
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def load_tool():
    path = ROOT / "tools" / "run_workflow.py"
    spec = importlib.util.spec_from_file_location("run_workflow", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_blocks():
    """(job, step name, script) of every ``run:`` step in the CI workflow."""
    doc = yaml.safe_load(WORKFLOW.read_text())
    return [(job, step.get("name", ""), step["run"])
            for job, spec in doc["jobs"].items() for step in spec["steps"] if "run" in step]


def test_every_run_block_parses_as_bash():
    blocks = run_blocks()
    assert blocks
    for job, name, script in blocks:
        result = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
        assert result.returncode == 0, f"{job} / {name}: {result.stderr}"


def test_reference_matrix_expands_every_combination():
    tool = load_tool()
    cells = tool.matrix_cells()
    workloads = ["campaign_pick_place", "ablation_stack_disturbed", "ablation_push_clean"]
    assert cells == [{"workload": w, "seed": s} for w in workloads for s in (0, 1009)]
    scripts = [tool.expand(script, cell) for cell in cells
               for _, script in tool.run_steps(job="reference")]
    assert len(scripts) == 12 and not any("${{" in s for s in scripts)
    assert scripts[0] == ("python3 bench/run.py --workload campaign_pick_place --seed 0 "
                          "--seconds 10 --trace 1")
    assert tool.expand("v${{ matrix.python-version }}", {"python-version": "3.12"}) == "v3.12"


def test_every_python_file_parses_under_the_oldest_supported_python():
    # read with a regex: tomllib is new in 3.11, and the floor may be older
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    version = (int(floor[1]), int(floor[2]))
    paths = sorted(p for d in ("src", "tests", "bench", "tools") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
