"""Every name a module of the package imports is used in that module.

No linter ships with the test dependencies, so this parses each module
with ``ast``: an imported name counts as used when it appears as a name
anywhere in the module (an attribute base such as ``np`` in ``np.sum``
included) or is listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import iprox

MODULES = sorted(Path(iprox.__file__).resolve().parent.glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf8"), filename=str(path))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, List\nx: List = []\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "Optional"}
