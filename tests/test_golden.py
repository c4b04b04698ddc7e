"""Golden outputs: six ``msdro`` runs reproduce ``tests/golden/`` byte for byte.

The runs and their argv live in ``tests/golden/regenerate.py``, which
rewrites the files for a change that is meant to alter them. A mismatch
names the first differing file, row and column, with both cells and their
relative difference, so a last-digit flip reads differently from a real
change.
"""

import csv
import json
import math

import pytest

from golden.regenerate import GOLDEN, RUNS, run


def _cells(text: str) -> list:
    return list(csv.reader(text.splitlines()))


def _relative(a: str, b: str) -> str:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return "not numbers"
    if x == y:
        return "0"
    scale = max(abs(x), abs(y))
    return "nan" if math.isnan(scale) else f"{abs(x - y) / scale:.3g}"


def first_difference(name: str, got: str, want: str) -> str:
    """Where ``got`` first differs from ``want``, for an assertion message."""
    got_rows, want_rows = _cells(got), _cells(want)
    for r, (g, w) in enumerate(zip(got_rows, want_rows), start=1):
        if g == w:
            continue
        for c, (gc, wc) in enumerate(zip(g, w), start=1):
            if gc != wc:
                return (f"{name} row {r} column {c}: got {gc!r}, want {wc!r} "
                        f"(relative difference {_relative(gc, wc)})")
        return f"{name} row {r}: got {len(g)} cells, want {len(w)}"
    if len(got_rows) != len(want_rows):
        return f"{name}: got {len(got_rows)} rows, want {len(want_rows)}"
    return f"{name}: same cells, different bytes (quoting or line ends)"


def assert_same_files(outdir, golden, manifest_jobs=None):
    """Every file of ``golden`` is in ``outdir`` with the same bytes, and
    nothing else is; with ``manifest_jobs`` the manifests may differ only
    in their ``jobs`` field, which is that value in ``outdir``."""
    got_names = sorted(p.name for p in outdir.iterdir())
    want_names = sorted(p.name for p in golden.iterdir())
    assert got_names == want_names
    for name in want_names:
        got = (outdir / name).read_bytes()
        want = (golden / name).read_bytes()
        if name == "manifest.json" and manifest_jobs is not None:
            got_manifest = json.loads(got)
            assert got_manifest == dict(json.loads(want), jobs=manifest_jobs)
            continue
        if got != want:
            pytest.fail(first_difference(f"{golden.name}/{name}",
                                         got.decode(), want.decode()))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_files(name, tmp_path):
    run(RUNS[name], tmp_path / name)
    assert_same_files(tmp_path / name, GOLDEN / name)


def test_parallel_sweep_matches_serial_golden_files(tmp_path):
    outdir = tmp_path / "jobs2"
    run(RUNS["sweep_seed1"] + ["--jobs", "2"], outdir)
    assert_same_files(outdir, GOLDEN / "sweep_seed1", manifest_jobs=2)


def test_first_difference_names_file_row_column_and_cells():
    want = "a,b\n1,2.000000001\n"
    got = "a,b\n1,2.000000002\n"
    message = first_difference("x.csv", got, want)
    assert message.startswith("x.csv row 2 column 2: got '2.000000002', "
                              "want '2.000000001' (relative difference 5e-10")
    assert first_difference("x.csv", "a\n1\n", "a\n1\n2\n") == (
        "x.csv: got 2 rows, want 3")
    assert "not numbers" in first_difference("x.csv", "a\n", "b\n")
