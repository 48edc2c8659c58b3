"""Exactness and stdlib-only guard over the package source.

masseyq computes with exact rationals only, an int where the value is
integral and a Fraction where it is not, and imports nothing outside the
standard library.  This walks the syntax tree of every module under
``src/masseyq`` and reports any float literal, any call of ``float``,
any import of ``math`` or ``decimal``, and any import that is neither
the standard library nor the package itself.  A name such as ``float``
in ``isinstance(value, float)`` is not a call and is allowed.  It also
reports every true division outside ``linalg._div``, the one exact
division of coefficients, since ``int / int`` makes a float, and, outside
``linalg.py``, every ``coords`` attribute and every import of a dense
vector helper: vectors cross module boundaries sparse.  And it reports
every cache that would outlive one ``cli.main`` call: a ``functools``
cache on a module-level function or a method, or bound to a module-level
name, but for the argument parser, and a module-level dict, list or set
that its module writes to.  And it reports every import of ``linalg``
into ``transfer.py``, which asks ``cohomology`` its linear algebra.

Two properties show that the choice between an int and an integral
Fraction cannot be seen: ``_div`` agrees with Fraction division and
returns an int exactly when the quotient is integral, and spelling a
presentation's coefficients as ``2``, ``2/1`` or ``4/2``, or keeping
every value the parser and ``_div`` make a Fraction, leaves the
structured output of ``cohomology`` and ``massey`` byte-identical.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import os
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from masseyq import cdga, fileformat, linalg
from masseyq.cli import main
from masseyq.linalg import _div
from oracles import random_free_cdga

PACKAGE = "masseyq"
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", PACKAGE)
INEXACT = {"math", "decimal"}


def _modules() -> list[str]:
    return sorted(f for f in os.listdir(SOURCE) if f.endswith(".py"))


def _findings(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                found.append(f"{where}: call of float(...)")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative: inside the package
                names = [node.module or ""]
            else:
                names = [alias.name for alias in node.names]
            for name in names:
                top = name.split(".")[0]
                if top in INEXACT:
                    found.append(f"{where}: import of {name}")
                elif top != PACKAGE and top not in sys.stdlib_module_names:
                    found.append(f"{where}: import of non-stdlib {name}")
    return found


@pytest.mark.parametrize("module", _modules())
def test_module_is_exact_and_stdlib_only(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _findings(tree) == []


@pytest.mark.parametrize(
    "source, finding",
    [
        ("x = 0.5", "line 1: float literal 0.5"),
        ("y = float(3)", "line 1: call of float(...)"),
        ("import math", "line 1: import of math"),
        ("from decimal import Decimal", "line 1: import of decimal"),
        ("import numpy as np", "line 1: import of non-stdlib numpy"),
        ("from sympy.core import S", "line 1: import of non-stdlib sympy.core"),
    ],
)
def test_guard_reports_each_kind_of_finding(source, finding):
    assert _findings(ast.parse(source)) == [finding]


def test_guard_allows_names_relative_imports_and_the_stdlib():
    source = (
        "from fractions import Fraction\n"
        "from .linalg import fr\n"
        "import masseyq.cdga\n"
        "ok = isinstance(x, float)\n"
    )
    assert _findings(ast.parse(source)) == []


def _matrix_names(tree: ast.AST) -> list[str]:
    """Every place a module names ``Matrix``: a name, an attribute, an
    import or a string such as an ``__all__`` entry."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name == "Matrix":
            found.append(f"line {getattr(node, 'lineno', '?')}: {type(node).__name__}")
    return found


@pytest.mark.parametrize("module", [m for m in _modules() if m != "linalg.py"])
def test_no_module_but_linalg_names_matrix(module):
    # Maps are sparse columns from the point of entry; the dense Matrix
    # is a helper of linalg.py alone.
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _matrix_names(tree) == []


def test_matrix_guard_sees_names_attributes_imports_and_strings():
    source = (
        "from .linalg import Matrix\n"
        "m = linalg.Matrix\n"
        "__all__ = ['Matrix']\n"
        "def f(x: Matrix): pass\n"
        "ok = 'a Matrix of data'\n"
    )
    assert _matrix_names(ast.parse(source)) == [
        "line 1: alias",
        "line 2: Attribute",
        "line 3: Constant",
        "line 4: Name",
    ]


# -- the one vector format -------------------------------------------------------

# linalg's helpers that make or read dense tuples
DENSE_HELPERS = {"densify", "sparsify", "vector", "zero_vector"}


def _dense_uses(tree: ast.AST) -> list[str]:
    """Every attribute named ``coords`` and every import of a dense helper."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "coords":
            found.append(f"line {node.lineno}: .coords")
        elif isinstance(node, ast.ImportFrom):
            found += [
                f"line {node.lineno}: import of {alias.name}"
                for alias in node.names
                if alias.name in DENSE_HELPERS
            ]
    return found


@pytest.mark.parametrize("module", [m for m in _modules() if m != "linalg.py"])
def test_no_module_but_linalg_handles_dense_vectors(module):
    # Vectors cross module boundaries sparse; the dense tuple (a
    # GradedVector's ``coords``, ``rref`` and ``solve``) is linalg's edge
    # for outside callers.
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _dense_uses(tree) == []


def test_dense_guard_sees_coords_and_each_helper_import():
    source = (
        "from .linalg import Subspace, densify, sparsify\n"
        "from masseyq.linalg import vector as v, zero_vector\n"
        "coset = AffineCoset(rep_class.coords, indeterminacy)\n"
        "ok = rep_class.terms\n"
        "def coords(x): pass\n"
    )
    assert _dense_uses(ast.parse(source)) == [
        "line 1: import of densify",
        "line 1: import of sparsify",
        "line 2: import of vector",
        "line 2: import of zero_vector",
        "line 3: .coords",
    ]


# -- the transfer layer asks cohomology ------------------------------------------


def _linalg_imports(tree: ast.AST) -> list[str]:
    """Every import of the package's ``linalg`` module or of a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("linalg", f"{PACKAGE}.linalg"):
                found += [f"line {node.lineno}: {alias.name}" for alias in node.names]
            elif module in ("", PACKAGE):
                found += [
                    f"line {node.lineno}: linalg"
                    for alias in node.names
                    if alias.name == "linalg"
                ]
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name == f"{PACKAGE}.linalg"
            ]
    return found


def test_transfer_does_no_linear_algebra_of_its_own():
    # Every injectivity, membership and degree-bound question of the Euler
    # and datum checks goes to cohomology (InducedMap.kernel_class,
    # certify_ideal_membership, InducedMap.apply), which owns the
    # eliminations behind them.
    with open(os.path.join(SOURCE, "transfer.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="transfer.py")
    assert _linalg_imports(tree) == []


def test_linalg_import_guard_sees_each_form_of_import():
    source = (
        "from .linalg import Subspace, kernel_rows\n"
        "from masseyq.linalg import transpose as t\n"
        "from . import linalg\n"
        "import masseyq.linalg\n"
        "from masseyq import cohomology, linalg as la\n"
        "from .cohomology import InducedMap\n"
        "from .errors import linalg_free\n"
    )
    assert _linalg_imports(ast.parse(source)) == [
        "line 1: Subspace",
        "line 1: kernel_rows",
        "line 2: transpose",
        "line 3: linalg",
        "line 4: masseyq.linalg",
        "line 5: linalg",
    ]


# -- the one division ------------------------------------------------------------

# module -> the functions in it where a true division is allowed
DIVISION_ALLOWED = {"linalg.py": {"_div"}}


def _divisions(tree: ast.AST, allowed=frozenset()) -> list[str]:
    """Every true division (``/`` or ``/=``) outside the functions named
    in ``allowed``."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in allowed
        if (
            not inside
            and isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)
        ):
            found.append(f"line {node.lineno}: true division")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


@pytest.mark.parametrize("module", _modules())
def test_no_true_division_outside_the_one_exact_division(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _divisions(tree, DIVISION_ALLOWED.get(module, frozenset())) == []


def test_division_guard_sees_operators_and_allows_only_the_named_function():
    source = (
        "x = a / b\n"
        "row[j] /= inv\n"
        "y = a // b\n"
        "def _div(a, b):\n"
        "    return Fraction(a) / b\n"
        "def other(a, b):\n"
        "    return a / b\n"
    )
    tree = ast.parse(source)
    assert _divisions(tree, {"_div"}) == [
        "line 1: true division",
        "line 2: true division",
        "line 7: true division",
    ]
    # the allowed function holds the package's only division
    with open(os.path.join(SOURCE, "linalg.py"), encoding="utf-8") as fh:
        linalg_tree = ast.parse(fh.read())
    assert len(_divisions(linalg_tree)) == 1


# -- ints and Fractions are interchangeable --------------------------------------

# Scalars as the package holds them: an int when integral, else a Fraction.
_BIG = 10**30
_SCALARS = st.one_of(
    st.sampled_from([1, -1, 2, -2]),
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(2, _BIG)).filter(
        lambda x: x.denominator != 1
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_SCALARS, _SCALARS.filter(bool))
@example(6, 3)
@example(6, 4)
@example(Fraction(3, 2), Fraction(1, 2))
@example(Fraction(3, 2), -1)
@example(-7, 1)
def test_div_is_fraction_division_and_an_int_exactly_when_integral(a, b):
    q, want = _div(a, b), Fraction(a) / Fraction(b)
    assert q == want
    assert type(q) is (int if want.denominator == 1 else Fraction)


def _spell(c: Fraction, style: int) -> str:
    """|c| written in lowest terms (0), over 1 when integral (1), or with
    numerator and denominator doubled (2)."""
    p, q = abs(c.numerator), c.denominator
    if style == 1 and q == 1:
        return f"{p}/1"
    if style == 2:
        return f"{2 * p}/{2 * q}"
    return str(Fraction(p, q))


def _alg_text(gens, diffs, cap, styles) -> str:
    lines = [f"cap = {cap}"] + [f"gen {name} : {deg}" for name, deg in gens]
    for name, terms in diffs.items():
        poly = " ".join(
            f"{'-' if c < 0 else '+'} {_spell(c, next(styles))}*{'*'.join(word)}"
            for c, word in terms
        )
        lines.append(f"d {name} = {poly}")
    return "\n".join(lines) + "\n"


def _structured(argv, cwd) -> tuple[int, str]:
    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--format", "structured"])
    finally:
        os.chdir(old)
    return code, out.getvalue()


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_coefficient_spelling_leaves_the_output_byte_identical(rng, data):
    gens, diffs, cap = random_free_cdga(rng)
    closed = [name for name, _ in gens if name not in diffs]
    triple = data.draw(st.lists(st.sampled_from(closed), min_size=3, max_size=3))
    # a cap that reaches the degree of the triple product
    degree = dict(gens)
    massey = ["massey", "p.alg", *triple, "--cap"]
    massey.append(str(max(cap, sum(degree[name] for name in triple) + 1)))
    mixed = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=8))
    # (spelling, whether integral Fractions are kept as they are)
    runs = [([0], False), ([1], False), ([2], False), (mixed, False), ([0], True)]
    outputs = set()
    with tempfile.TemporaryDirectory() as cwd:
        for styles, keep_fractions in runs:
            with open(os.path.join(cwd, "p.alg"), "w", encoding="utf-8") as fh:
                fh.write(_alg_text(gens, diffs, cap, itertools.cycle(styles)))
            with contextlib.ExitStack() as stack:
                if keep_fractions:
                    for module in (linalg, cdga, fileformat):
                        patch = mock.patch.object(module, "_q", lambda x: x)
                        stack.enter_context(patch)
                outputs.add(
                    (
                        _structured(["cohomology", "p.alg"], cwd),
                        _structured(massey, cwd),
                    )
                )
    assert len(outputs) == 1, outputs


# -- no cache outlives one request -----------------------------------------------

# The CLI serves one request per process, and a library caller may make
# many: state kept at module level would carry one request into the next.
CACHES = {"cache", "lru_cache"}
# module -> the module-level functions that may keep a cache for the process
CACHE_ALLOWED = {"cli.py": {"_build_parser"}}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict"}
MUTATORS = {
    "add", "append", "clear", "extend", "insert", "pop", "popitem",
    "remove", "discard", "setdefault", "update", "__setitem__",
}


def _is_cache(node: ast.AST) -> bool:
    """Whether an expression is ``functools.cache`` or ``lru_cache``,
    called or not, by any import spelling."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in CACHES


def _lasting_caches(tree: ast.Module, allowed=frozenset()) -> list[str]:
    """Every cache that lives as long as the module: a cache decorator on
    a module-level function or on a method, a cache bound to a
    module-level name, and a module-level dict, list or set that the
    module writes to (a memo)."""
    found = []
    containers = set()
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in defs:
            if (
                isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name not in allowed
                and any(_is_cache(dec) for dec in fn.decorator_list)
            ):
                found.append(f"line {fn.lineno}: cache on {fn.name}")
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            value = node.value
            if _is_cache(value):
                found += [f"line {node.lineno}: cache bound to {n}" for n in names]
            elif isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", None) in CONTAINER_CALLS
            ):
                containers.update(names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value if node.func.attr in MUTATORS else None
        else:
            continue
        if isinstance(target, ast.Name) and target.id in containers:
            found.append(f"line {node.lineno}: module-level {target.id} written")
    return found


@pytest.mark.parametrize("module", _modules())
def test_no_cache_outlives_one_request(module):
    with open(os.path.join(SOURCE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _lasting_caches(tree, CACHE_ALLOWED.get(module, frozenset())) == []


def test_cache_guard_sees_decorators_bindings_and_memos():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "_memo = {}\n"
        "_seen: list = []\n"
        "TABLE = {'a': 1}\n"
        "@functools.cache\n"
        "def f(x):\n"
        "    _memo[x] = TABLE[x]\n"
        "    _seen.append(x)\n"
        "@lru_cache(maxsize=None)\n"
        "def g(x): pass\n"
        "h = functools.cache(len)\n"
        "class C:\n"
        "    @functools.lru_cache\n"
        "    def m(self): pass\n"
        "def ok():\n"
        "    local = {}\n"
        "    local[1] = 2\n"
        "    return functools.cache(lambda s: s)\n"
    )
    tree = ast.parse(source)
    memos = ["line 8: module-level _memo written", "line 9: module-level _seen written"]
    assert _lasting_caches(tree) == [
        "line 7: cache on f",
        "line 11: cache on g",
        "line 12: cache bound to h",
        "line 15: cache on m",
        *memos,
    ]
    allowed = _lasting_caches(tree, {"f", "g", "m"})
    assert allowed == ["line 12: cache bound to h", *memos]
