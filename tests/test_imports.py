"""Every module of the package uses each name it imports, every public
name the package defines has a reader, one module reads and writes the
CSV tables, and no module imports ``scipy.stats``.

Stdlib ``ast`` checks: an imported name counts as used when it is read
anywhere in the module or listed in its ``__all__``. A top-level public
name of the package counts as read when another line of the package, the
benchmark (``perfbench/``), ``tests/test_acceptance.py`` or a README
``python`` block reads it, as a name, an attribute, an imported name or a
string that is exactly the name (the benchmark wraps attributes by name).
"""

import ast
from pathlib import Path

import pytest

import msdro_opf
from test_readme import python_blocks, run_fresh

SRC = Path(msdro_opf.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """Names ``source`` imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_unused_imports_finds_only_the_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .lp import Model, family as fam\nfrom .network import Line\n"
              "__all__ = ['Line']\nnp.zeros(fam(Model))\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == [], f"{path.name} imports {unused} and never uses them"


def public_definitions(source: str) -> set:
    """Top-level functions, classes and assigned names not starting with _."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def read_names(source: str) -> set:
    """Every identifier ``source`` reads: loaded names, attributes, imported
    names and strings that are one identifier."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            read.add(node.value)
    return read


def unread_public_names(package: list, readers: list) -> list:
    """Public names the ``package`` sources define and neither they nor the
    ``readers`` sources read, sorted."""
    defined = set().union(*(public_definitions(s) for s in package))
    read = set().union(*(read_names(s) for s in package + readers))
    return sorted(defined - read)


def test_unread_public_names_finds_only_the_unread_names():
    package = ["LIMIT = 1\nclass Box:\n    pass\n"
               "def size(box: Box) -> int:\n    return LIMIT\n"
               "def helper():\n    pass\n",
               "from .a import size as measure\ndef _private():\n    pass\n"
               "def orphan():\n    pass\n"]
    assert unread_public_names(package, ["w(mod, 'helper')\n"]) == ["orphan"]


def test_every_public_name_has_a_reader():
    package = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    readers = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "perfbench").glob("*.py"))]
    readers += [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    readers += python_blocks()
    unread = unread_public_names(package, readers)
    assert unread == [], (f"{unread} are read only by tests or by nothing: "
                          "move them to tests/oracles.py or delete them")


def call_sites(source: str, dotted: str) -> list:
    """The top-level function or class around each call of ``dotted`` (such
    as ``csv.writer``) in ``source``, in order; "" for a call outside any."""
    sites = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "")
        sites += [owner for node in ast.walk(top)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func) == dotted]
    return sites


def test_call_sites_finds_each_call_and_its_function():
    source = ("import csv\nw = csv.writer(f)\n"
              "def read(f):\n    return csv.reader(f), csv.reader(f)\n"
              "def write(f):\n    def inner():\n        csv.writer(f)\n"
              "    return writer(f), csv.writer\n")
    assert call_sites(source, "csv.writer") == ["", "write"]
    assert call_sites(source, "csv.reader") == ["read", "read"]


def test_one_module_reads_and_writes_csv_tables():
    """``data_quality`` holds the one CSV writer, ``write_csv``, and the
    only readers: the header reader and the row generator."""
    sites = {call: {path.name: found for path in sorted(SRC.glob("*.py"))
                    if (found := call_sites(path.read_text(encoding="utf-8"),
                                            call))}
             for call in ("csv.writer", "csv.reader")}
    assert sites == {"csv.writer": {"data_quality.py": ["write_csv"]},
                     "csv.reader": {"data_quality.py": ["_read_header", "_rows"]}}


def stats_imports(source: str) -> list:
    """Each import of ``scipy.stats`` (or a module under it) in ``source``,
    at any depth, as the text of the import statement."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "scipy.stats" or n.startswith("scipy.stats.")
               for n in names):
            found.append(ast.unparse(node))
    return found


def test_stats_imports_finds_each_form():
    source = ("import scipy.special\nfrom scipy import sparse, stats\n"
              "def f():\n    from scipy.stats import truncnorm\n"
              "    import scipy.stats._distn_infrastructure as d\n"
              "from scipy.statsmodels import x\n")
    assert stats_imports(source) == [
        "from scipy import sparse, stats",
        "from scipy.stats import truncnorm",
        "import scipy.stats._distn_infrastructure as d"]


def test_no_module_imports_scipy_stats():
    """The truncated normal draws compute ``truncnorm.rvs`` from
    ``scipy.special``; ``scipy.stats`` takes about a second to load."""
    found = {path.name: imports for path in sorted(SRC.glob("*.py"))
             if (imports := stats_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_a_sweep_does_not_load_scipy_stats(tmp_path):
    result = run_fresh(f"""
        import contextlib, io, json, sys
        from msdro_opf.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["sweep", "--grid", "1", "0.1", "--n-samples", "5",
                         "--oos-samples", "20", "--out", {str(tmp_path)!r}])
        print(json.dumps({{"code": code,
                           "stats": "scipy.stats" in sys.modules}}))
    """)
    assert result == {"code": 0, "stats": False}
    assert (tmp_path / "oos.csv").exists()
