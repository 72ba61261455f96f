"""Every name a su3char module imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "su3char"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by the imports of source that no expression reads.

    A name listed in ``__all__`` is a re-export and counts as read.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - read)


def test_the_source_tree_has_modules():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_each_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path\n"
        "from math import pi, tau as t\n"
        "from .cartan import dim\n"
        "__all__ = ['dim']\n"
        "x: np.ndarray = pi\n"
    )
    assert unused_imports(source) == ["os", "t"]


def enclosing_functions(source: str, hit):
    """The names of the innermost functions around each node of source that
    hit accepts ("" at module level)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if hit(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def _reads_environ(node):
    return isinstance(node, ast.Attribute) and node.attr == "environ"


def _calls(name):
    """A node test: a call of ``name``, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in {
        getattr(node.func, "id", None), getattr(node.func, "attr", None)}


def _compares(name):
    """A node test: a comparison that reads the name ``name``."""
    return lambda node: isinstance(node, ast.Compare) and any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))


def _max_of_a_and_b(node):
    """A node test: a ``max`` call whose arguments read ``.a`` and ``.b``."""
    return _calls("max")(node) and {getattr(arg, "attr", None) for arg in node.args} == {"a", "b"}


def _value_error(prefix):
    """A node test: a ``ValueError`` call whose message starts with ``prefix``."""
    def hit(node):
        msg = node.args[0] if _calls("ValueError")(node) and node.args else None
        msg = msg.values[0] if isinstance(msg, ast.JoinedStr) and msg.values else msg
        return isinstance(msg, ast.Constant) and str(msg.value).startswith(prefix)
    return hit


# (what, node test, the one (module, function) allowed to do it)
ONE_PLACE = [
    ("environment read", _reads_environ, ("bounds", "thread_count")),
    ("thread pool", _calls("ThreadPoolExecutor"), ("bounds", "thread_map")),
    ("EPS_WALL comparison", _compares("EPS_WALL"), ("character", "_route")),
    ("L^p regime comparison", _compares("_P_TOL"), ("lpnorms", "_regime")),
    ("ConvergenceError raise", _calls("ConvergenceError"), ("quadrature", "require_converged")),
    ("ResourceLimitError raise", _calls("ResourceLimitError"),
     ("character", "require_within_budget")),
    ("SCHUR_DIM_LIMIT comparison", _compares("SCHUR_DIM_LIMIT"),
     ("character", "require_within_budget")),
    ("dual weight form", _max_of_a_and_b, ("character", "_dual_form")),
    ("rank-one n >= 0 refusal", _value_error("n must be"), ("bounds", "_rank1_margins")),
]


@pytest.mark.parametrize("what, hit, place", ONE_PLACE, ids=[w for w, _, _ in ONE_PLACE])
def test_each_decision_is_made_in_one_function(what, hit, place):
    found = {(path.stem, fn) for path in MODULES
             for fn in enclosing_functions(path.read_text(), hit)}
    assert found == {place}, what


def test_the_thread_setting_takes_no_argument():
    # SU3CHAR_THREADS is the only thread setting: no parameter overrides it
    tree = ast.parse((SRC / "bounds.py").read_text())
    [fn] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "thread_count"]
    assert not (fn.args.args or fn.args.kwonlyargs or fn.args.vararg or fn.args.kwarg)


def test_one_place_checks_see_each_form():
    source = (
        "import os\n"
        "from concurrent import futures\n"
        "def f(x):\n"
        "    return os.environ['A'], futures.ThreadPoolExecutor(2), x < 2 * EPS_WALL\n"
        "class C:\n"
        "    def g(self):\n"
        "        return ThreadPoolExecutor(max_workers=1), EPS_WALL >= self\n"
        "y = os.environ\n"
        "z = max(mu.a, mu.b), max(mu.a + mu.b, mu.b), max(a, b)\n"
        "def h(n):\n"
        "    raise ValueError('n must be >= 0') if n else ValueError(f'n must be {n}')\n"
        "def k(n):\n"
        "    return ValueError('p must be'), TypeError('n must be'), ValueError()\n"
    )
    assert enclosing_functions(source, _reads_environ) == {"f", ""}
    assert enclosing_functions(source, _calls("ThreadPoolExecutor")) == {"f", "g"}
    assert enclosing_functions(source, _compares("EPS_WALL")) == {"f", "g"}
    assert [ast.unparse(n) for n in ast.walk(ast.parse(source)) if _max_of_a_and_b(n)] == [
        "max(mu.a, mu.b)"]
    assert enclosing_functions(source, _value_error("n must be")) == {"h"}
