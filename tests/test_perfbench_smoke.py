"""The benchmark's workloads at toy size, end to end.

Runs ``perfbench/run.py --workload NAME --smoke`` in a fresh interpreter
with the benchmark's own checks: for ``routes-quality`` the four
``dro_core`` routes and ``msdro quality`` (route bounds and closed forms,
W1 against scipy); for ``sweep-serial`` and ``solve-large`` ``run_sweep``
and ``msdro solve`` through the benchmark's wrappers of ``lp.linprog``,
``Model.solve``, ``Model.constraints`` and the tightening re-run, and
once more traced (``--trace 1``), every layer wrapped by name.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def smoke_run(workload, *extra):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--smoke", "--seconds", "1", *extra],
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


@pytest.mark.parametrize("workload", ["sweep-serial", "solve-large"])
def test_opf_workload_traced_smoke_run_is_correct(workload):
    """``--trace 1`` wraps each layer by its module attribute
    (``perfbench/layers.instrument``), ``cli``'s included: the run fails
    if a wrapped name is gone."""
    smoke_run(workload, "--trace", "1")
