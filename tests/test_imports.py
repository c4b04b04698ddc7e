"""Every module of the package uses each name it imports.

A stdlib ``ast`` check: an imported name counts as used when it is read
anywhere in the module or listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import msdro_opf

SRC = Path(msdro_opf.__file__).parent


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
