"""Every name a module of the package imports is used in that module,
every private module-level name is used somewhere in the package, and so
is every public module-level function and class but a listed few, each
of which must exist and be unread.

No linter ships with the test dependencies, so this parses each module
with ``ast``: an imported name counts as used when it appears as a name
anywhere in the module (an attribute base such as ``np`` in ``np.sum``
included) or is listed in ``__all__``. A private function, class or
constant (one leading underscore), or a public function or class, counts
as used when some module of the package reads it, as a name or as an
attribute such as ``numkit._EPS``; tests do not count. Every source file
of the repository also parses under the oldest supported Python.
"""

import ast
import re
from pathlib import Path

import pytest

import iprox

MODULES = sorted(Path(iprox.__file__).resolve().parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# the floor of requires-python, as (major, minor)
OLDEST_PYTHON = tuple(int(v) for v in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())


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


def private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_unreferenced_private_names():
    trees = {p.name: ast.parse(p.read_text(encoding="utf8"), filename=str(p))
             for p in MODULES}
    read = set().union(*(read_names(t) for t in trees.values()))
    unused = sorted(f"{name}:{d}" for name, t in trees.items()
                    for d in private_definitions(t) if d not in read)
    assert unused == [], f"private names nothing in the package reads: {unused}"


def test_detects_an_unreferenced_private_name():
    tree = ast.parse("_TOL = 1e-13\n_USED = 2\n\n\ndef _top():\n    return _USED\n\n\n"
                     "class _Spare:\n    pass\n")
    assert set(private_definitions(tree)) - set(read_names(tree)) == {"_TOL", "_top", "_Spare"}


# public names the package itself never reads, each kept for a reason:
# - run_iladmm is the paper's inertial linearized ADMM on a general
#   two-block problem, which tests run against the KKT solution;
# - iladmm_step is the tests' reference for the inertial loop's step
#   (TestRuns::test_runs_follow_their_named_steps), and perfbench/ wraps
#   it;
# - zeros_point is perfbench/'s start point for its criterion-1 steps.
# The last two go once perfbench/ no longer names them.
# An entry the package reads, or that no module defines, fails the test.
PUBLIC_API = {"splitting.py:run_iladmm", "splitting.py:iladmm_step",
              "splitting.py:zeros_point"}


def public_definitions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name


def unread_public_names(trees, allowed):
    """``(unread, stale)``: the public definitions of ``trees`` (module
    name to tree) that no module reads, less ``allowed``, and the entries
    of ``allowed`` that are read or not defined."""
    read = set().union(*(read_names(t) for t in trees.values()))
    unread = {f"{name}:{d}" for name, t in trees.items()
              for d in public_definitions(t) if d not in read}
    return sorted(unread - allowed), sorted(allowed - unread)


def test_no_unreferenced_public_names():
    trees = {p.name: ast.parse(p.read_text(encoding="utf8"), filename=str(p))
             for p in MODULES}
    unused, stale = unread_public_names(trees, PUBLIC_API)
    assert unused == [], f"public functions or classes nothing in the package reads: {unused}"
    assert stale == [], f"PUBLIC_API entries the package reads or no module defines: {stale}"


def test_detects_an_unreferenced_public_name():
    tree = ast.parse("LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\n"
                     "def spare():\n    return used()\n\n\nclass Spare:\n    pass\n\n\n"
                     "def _hidden():\n    pass\n")
    assert set(public_definitions(tree)) - set(read_names(tree)) == {"spare", "Spare"}


def test_detects_a_stale_allowed_name():
    trees = {"a.py": ast.parse("def used():\n    pass\n\n\ndef spare():\n    pass\n"),
             "b.py": ast.parse("from a import used\n\nused()\n")}
    allowed = {"a.py:spare", "a.py:used", "a.py:gone"}
    assert unread_public_names(trees, allowed) == ([], ["a.py:gone", "a.py:used"])
    assert unread_public_names(trees, set()) == (["a.py:spare"], [])


def test_sources_parse_at_the_oldest_python():
    """Parses every ``.py`` file of the package, the tests and the
    benchmark with the grammar of ``OLDEST_PYTHON``. This checks syntax
    only: a standard-library function or argument added after that
    version still passes."""
    paths = sorted(p for d in ("src/iprox", "tests", "perfbench")
                   for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > len(MODULES)
    for path in paths:
        ast.parse(path.read_text(encoding="utf8"), filename=str(path),
                  feature_version=OLDEST_PYTHON)


def test_oldest_python_grammar_rejects_newer_syntax():
    # an exception group handler, new in Python 3.11
    snippet = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(snippet, feature_version=OLDEST_PYTHON)
