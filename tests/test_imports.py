"""Every module of the package uses each name it imports, every public
name the package defines has a reader, one module reads and writes the
CSV tables, no module imports ``scipy.stats`` or ``scipy.sparse``, and
HiGHS is reached one way.

Stdlib ``ast`` checks: an imported name counts as used when it is read
anywhere in the module or listed in its ``__all__``. A public name of the
package, top-level or a class's method or property, counts as read when
another line of the package, the benchmark (``perfbench/``),
``tests/test_acceptance.py`` or a README ``python`` block reads it, as a
name, an attribute, an imported name or a string that is exactly the name
(the benchmark wraps attributes by name); a method's reads of its own name
inside its own body do not count.
"""

import ast
from collections import Counter
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


def read_names(node) -> Counter:
    """Every identifier read under the ``ast`` node ``node``, with its
    count: loaded names, attributes, imported names and strings that are
    one identifier."""
    read = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            read[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            read[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            read[sub.value] += 1
    return read


def public_members(tree) -> list:
    """The public methods and properties of ``tree``'s top-level classes."""
    return [node for top in tree.body if isinstance(top, ast.ClassDef)
            for node in top.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def unread_public_names(package: list, readers: list) -> list:
    """Public names the ``package`` sources define, top-level or as a
    class's method or property, that neither they nor the ``readers``
    sources read, sorted. A member's reads of its own name inside its own
    definition do not count."""
    trees = [ast.parse(s) for s in package]
    read = sum((read_names(t) for t in trees + [ast.parse(s) for s in readers]),
               Counter())
    unread = {n for s in package for n in public_definitions(s) if not read[n]}
    own = Counter()
    for member in (m for t in trees for m in public_members(t)):
        own[member.name] += read_names(member)[member.name]
    return sorted(unread | {name for name in own if read[name] <= own[name]})


def test_unread_public_names_finds_only_the_unread_names():
    package = ["LIMIT = 1\nclass Box:\n    pass\n"
               "def size(box: Box) -> int:\n    return LIMIT\n"
               "def helper():\n    pass\n",
               "from .a import size as measure\ndef _private():\n    pass\n"
               "def orphan():\n    pass\n"
               "class Pile:\n    @property\n    def height(self):\n"
               "        return self.depth() + self.height\n"
               "    def depth(self):\n        return self.depth()\n"
               "    def wide(self):\n        return 0\n"
               "    def _inner(self):\n        return 0\n"]
    assert unread_public_names(package, ["w(mod, 'helper')\n",
                                         "Pile().wide()\n"]) == ["height", "orphan"]


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


def test_one_draw_function_between_joint_support_bounds():
    """Training and out-of-sample errors are drawn by ``_draw_between``
    alone, from ``training_matrix`` and ``oos_matrix`` only."""
    sites = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := call_sites(path.read_text(encoding="utf-8"),
                                     "_draw_between"))}
    assert sites == {"evaluation.py": ["training_matrix", "oos_matrix"]}


def test_one_out_of_sample_check():
    """``msdro oos`` and the sweep's cells draw their out-of-sample errors
    in ``out_of_sample`` alone."""
    sites = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := call_sites(path.read_text(encoding="utf-8"),
                                     "oos_matrix"))}
    assert sites == {"evaluation.py": ["out_of_sample"]}


def module_imports(source: str, module: str) -> list:
    """Each import of ``module`` (or a module under it) in ``source``, at
    any depth, as the text of the import statement."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == module or n.startswith(f"{module}.") for n in names):
            found.append(ast.unparse(node))
    return found


def test_stats_imports_finds_each_form():
    source = ("import scipy.special\nfrom scipy import sparse, stats\n"
              "def f():\n    from scipy.stats import truncnorm\n"
              "    import scipy.stats._distn_infrastructure as d\n"
              "from scipy.statsmodels import x\n")
    assert module_imports(source, "scipy.stats") == [
        "from scipy import sparse, stats",
        "from scipy.stats import truncnorm",
        "import scipy.stats._distn_infrastructure as d"]
    assert module_imports(source, "scipy.sparse") == [
        "from scipy import sparse, stats"]


def imports_in_package(module: str) -> dict:
    """Each package module's imports of ``module``, by file name."""
    return {path.name: imports for path in sorted(SRC.glob("*.py"))
            if (imports := module_imports(path.read_text(encoding="utf-8"),
                                          module))}


def test_no_module_imports_scipy_stats():
    """The truncated normal draws compute ``truncnorm.rvs`` from
    ``scipy.special``; ``scipy.stats`` takes about a second to load."""
    assert imports_in_package("scipy.stats") == {}


def test_no_module_imports_scipy_sparse():
    """The LP layer assembles one matrix, column-wise, in numpy."""
    assert imports_in_package("scipy.sparse") == {}


def name_reads(source: str, name: str) -> list:
    """The top-level function or class around each read of the bare
    ``name`` in ``source``, in order; "" for a read outside any."""
    return [getattr(top, "name", "") for top in ast.parse(source).body
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == name
            and isinstance(node.ctx, ast.Load)]


def test_name_reads_finds_each_read_and_its_function():
    source = ("x = None\nprint(x)\nclass A:\n    def f(self):\n"
              "        return x() if x is not None else x\n")
    assert name_reads(source, "x") == ["", "A", "A", "A"]


def test_no_module_calls_linprog():
    """Every LP is solved through HiGHS's bindings; ``lp.linprog`` is only
    bound, for the benchmark to wrap."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        found |= {(path.name, call): sites
                  for call in ("linprog", "optimize.linprog",
                               "scipy.optimize.linprog")
                  if (sites := call_sites(source, call))}
    assert found == {}


def test_highs_objects_are_made_only_in_model():
    """``_Highs`` is read only to make a HiGHS object, in ``lp.Model``, and
    never tested for: there is no second way to solve."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if reads := name_reads(source, "_Highs"):
            found[path.name] = reads, call_sites(source, "_Highs")
    assert found == {"lp.py": (["Model"], ["Model"])}


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


def test_a_threaded_sweep_loads_no_process_machinery():
    """A fresh ``import msdro_opf.cli`` and a ``jobs=2`` sweep load neither
    ``multiprocessing`` nor the process pool, and start no process: an
    audit hook, set before the import, records every fork, spawn and exec."""
    result = run_fresh("""
        import json, sys
        STARTS = {"os.fork", "os.forkpty", "os.posix_spawn", "os.spawn",
                  "os.exec", "os.system", "subprocess.Popen"}
        started = []
        sys.addaudithook(lambda event, args: event in STARTS
                         and started.append(event))
        import msdro_opf.cli
        from msdro_opf.evaluation import SweepConfig, run_sweep
        from msdro_opf.network import bundled_network
        res = run_sweep(bundled_network(), SweepConfig(
            grid=(1.0, 0.1), n_samples=5, oos_samples=20), jobs=2)
        print(json.dumps({
            "optimal": all(c.optimal for c in res.oos),
            "loaded": [m for m in ("multiprocessing",
                                   "concurrent.futures.process")
                       if m in sys.modules],
            "started": started}))
    """)
    assert result == {"optimal": True, "loaded": [], "started": []}
