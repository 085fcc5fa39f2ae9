#!/usr/bin/env python3
"""Run the console-script steps of the CI workflow's ``tier1`` job locally.

Loads ``.github/workflows/tier1.yml`` with ``yaml.safe_load`` and runs each
``run:`` step of the ``tier1`` job, in order, under ``bash -eo pipefail`` from
the repository root, as a hosted runner would.  The install step (``pip
install``) and the pytest step are skipped.  In their place a ``demoaug``
shim that runs ``python -m demoaug.cli``, and ``python`` itself (this
interpreter), go first on ``PATH``, with ``src`` first on ``PYTHONPATH``.
``RUNNER_TEMP`` is a fresh temporary directory, removed afterwards; every
console-script step writes under it.

Prints one line per step, ``exit <code>  <seconds> s  <step name>``, and the
step's output only when it fails.  Stops at the first failing step, as the
runner does, and exits 1 then.

Usage: python tools/run_workflow.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def run_steps(workflow: Path = WORKFLOW, job: str = "tier1") -> list[tuple[str, str]]:
    """(name, script) of each ``run:`` step of ``job`` but the install and pytest steps."""
    steps = yaml.safe_load(workflow.read_text())["jobs"][job]["steps"]
    return [(step.get("name", ""), step["run"]) for step in steps
            if "run" in step and "pip install" not in step["run"]
            and "-m pytest" not in step["run"]]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tier1-") as scratch:
        runner_temp = os.path.join(scratch, "runner_temp")
        # every step writes "$RUNNER_TEMP/...": an empty value would put its trees at /
        if not os.path.isabs(runner_temp):
            raise SystemExit(f"refusing to run: RUNNER_TEMP would be {runner_temp!r}")
        os.mkdir(runner_temp)
        bin_dir = Path(scratch, "bin")
        bin_dir.mkdir()
        shim = bin_dir / "demoaug"
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m demoaug.cli "$@"\n')
        shim.chmod(0o755)
        (bin_dir / "python").symlink_to(sys.executable)
        env = {**os.environ, "RUNNER_TEMP": runner_temp,
               "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
        for name, script in run_steps():
            start = time.perf_counter()
            result = subprocess.run(["bash", "-eo", "pipefail", "-c", script], cwd=ROOT,
                                    env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                    text=True)
            print(f"exit {result.returncode}  {time.perf_counter() - start:6.2f} s  {name}",
                  flush=True)
            if result.returncode != 0:
                print(result.stdout, end="")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
