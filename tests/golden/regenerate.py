"""Rewrite the golden output files that ``tests/test_golden.py`` compares.

Each run below is one ``msdro`` command; its output directory is
``tests/golden/<name>/``. Run this only for a change that is meant to
alter the outputs, and say in ``CHANGES.md`` which files changed and why:

    PYTHONPATH=src python3 tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

#: name -> ``msdro`` argv, without ``--out``.
RUNS = {
    "sweep_seed1": ["sweep"],
    "sweep_seed7_forecast_shift": ["sweep", "--seed", "7",
                                   "--error-mean", "forecast-shift"],
    "solve_train100": ["solve", "--eps", "1", "0.1", "--train", "100"],
    "solve_train1": ["solve", "--eps", "0.1", "0.1", "--train", "1"],
    "oos_eps0005": ["oos", "--eps", "0.005", "0.005"],
    "quality_laplace": ["quality", "--noise", "laplace:0.05"],
}


def run(argv: list, outdir: Path) -> None:
    """Run ``msdro`` with ``argv`` into ``outdir``, quietly; it must exit 0."""
    from msdro_opf import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", str(outdir)])
    if code != 0:
        raise RuntimeError(f"msdro {' '.join(argv)} exited {code}")


def main() -> int:
    for name, argv in RUNS.items():
        outdir = GOLDEN / name
        shutil.rmtree(outdir, ignore_errors=True)
        run(argv, outdir)
        files = sorted(p.name for p in outdir.iterdir())
        print(f"{name}: {len(files)} files ({', '.join(files)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
