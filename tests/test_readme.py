"""The README's code and the package root it imports from.

Every fenced ``python`` block of ``README.md`` runs as written, so the
library tour and the ``lp`` example cannot drift from the package. The
package root exports only the tour's names, and importing it loads
neither ``scipy.stats`` nor the sweep harness; importing the CLI does
not load ``scipy.stats`` either.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import msdro_opf

README = Path(__file__).resolve().parents[1] / "README.md"
ROOT_NAMES = ["MultiDataset", "__version__", "bundled_network",
              "solve_msdro_opf"]


def python_blocks() -> list:
    """Each fenced python block, dedented (the ``lp`` one sits in a list)."""
    text = README.read_text()
    return [textwrap.dedent(m.group(2)) for m in re.finditer(
        r"^( *)```python\n(.*?)^\1```", text, re.MULTILINE | re.DOTALL)]


def test_readme_has_the_tour_and_the_lp_example():
    blocks = python_blocks()
    assert len(blocks) == 2
    assert "solve_msdro_opf(network, data" in blocks[0]
    assert "from msdro_opf.lp import" in blocks[1]


@pytest.mark.parametrize("block", python_blocks(), ids=["tour", "lp"])
def test_readme_python_block_runs(block):
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["sol"].optimal  # both blocks end with a solve


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's package; it
    prints one JSON object, returned here."""
    src = str(Path(msdro_opf.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_package_root_is_lean():
    """A fresh ``import msdro_opf`` resolves its exports and nothing more."""
    result = run_fresh("""
        import json, sys
        import msdro_opf
        print(json.dumps({
            "all": sorted(msdro_opf.__all__),
            "missing": [n for n in msdro_opf.__all__
                        if not hasattr(msdro_opf, n)],
            "loaded": [m for m in ("scipy.stats", "msdro_opf.evaluation")
                       if m in sys.modules],
        }))
    """)
    assert result["all"] == ROOT_NAMES
    assert result["missing"] == []
    assert result["loaded"] == []


def test_cli_does_not_load_scipy_stats():
    """Every ``msdro`` command imports the CLI, which does not load
    ``scipy.stats``; a whole sweep does not either (``test_imports``)."""
    result = run_fresh("""
        import json, sys
        import msdro_opf.cli
        print(json.dumps({"stats": "scipy.stats" in sys.modules}))
    """)
    assert result == {"stats": False}
