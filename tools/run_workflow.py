#!/usr/bin/env python3
"""Run the console-script steps of the CI workflow's ``tier1`` job locally.

Loads ``.github/workflows/tier1.yml`` with ``yaml.safe_load`` and runs each
``run:`` step of the ``tier1`` job, in order, under ``bash -eo pipefail`` from
the repository root, as a hosted runner would.  The install step (``pip
install``) and the pytest step are skipped.  In their place a ``demoaug``
shim that runs ``python -m demoaug.cli``, and ``python`` and ``python3``
(both this interpreter), go first on ``PATH``, with ``src`` first on
``PYTHONPATH``.
``RUNNER_TEMP`` is a fresh temporary directory, removed afterwards; every
console-script step writes under it.

With ``--reference`` it then runs the ``reference`` job's steps (the install
step skipped) once per combination of its ``strategy.matrix`` values, in the
order the matrix lists them, with each ``${{ matrix.<key> }}`` in a script
replaced by that combination's value.

Prints one line per step, ``exit <code>  <seconds> s  <step name>``, the name
followed by the matrix values for a ``reference`` step, and the step's output
only when it fails.  Stops at the first failing step, as the runner does, and
exits 1 then.

Usage: python tools/run_workflow.py [--reference]
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
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


def matrix_cells(workflow: Path = WORKFLOW, job: str = "reference") -> list[dict]:
    """Every combination of ``job``'s ``strategy.matrix`` values, the first key outermost."""
    spec = yaml.safe_load(workflow.read_text())["jobs"][job]
    matrix = spec.get("strategy", {}).get("matrix", {})
    return [dict(zip(matrix, values)) for values in itertools.product(*matrix.values())]


def expand(script: str, cell: dict) -> str:
    """``script`` with each ``${{ matrix.<key> }}`` replaced by ``cell[key]``."""
    return re.sub(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}", lambda m: str(cell[m.group(1)]), script)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reference", action="store_true",
                        help="also run the reference job's matrix")
    args = parser.parse_args(argv)
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
        (bin_dir / "python3").symlink_to(sys.executable)
        env = {**os.environ, "RUNNER_TEMP": runner_temp,
               "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
        steps = run_steps()
        if args.reference:
            steps += [(f"{name} [{', '.join(f'{k}={v}' for k, v in cell.items())}]",
                       expand(script, cell))
                      for cell in matrix_cells() for name, script in run_steps(job="reference")]
        for name, script in steps:
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
