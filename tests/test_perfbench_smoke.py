"""The benchmark's workloads at toy size, end to end.

Runs ``perfbench/run.py --workload NAME --smoke`` in a fresh interpreter
with the benchmark's own checks: for ``routes-quality`` the four
``dro_core`` routes and ``msdro quality`` (route bounds and closed forms,
W1 against scipy); for ``sweep-serial`` and ``solve-large`` ``run_sweep``
and ``msdro solve`` through the benchmark's wrappers of ``lp.linprog``,
``Model.solve``, ``Model.constraints`` and the tightening re-run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def smoke_run(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--smoke", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout
    assert result["attempted"] > 0


def test_routes_workload_smoke_run_is_correct():
    smoke_run("routes-quality")


@pytest.mark.parametrize("workload", ["sweep-serial", "solve-large"])
def test_opf_workload_smoke_run_is_correct(workload):
    smoke_run(workload)
