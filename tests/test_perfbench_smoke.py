"""The benchmark's routes workload at toy size, end to end.

Runs ``perfbench/run.py --workload routes-quality --smoke`` in a fresh
interpreter: the four ``dro_core`` routes and ``msdro quality`` with the
benchmark's own checks (route bounds and closed forms, W1 against scipy).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_routes_workload_smoke_run_is_correct():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routes-quality",
         "--smoke", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0, out.stdout
    assert result["attempted"] > 0
