import subprocess
from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


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
