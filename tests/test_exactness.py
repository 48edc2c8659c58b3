"""Exactness and stdlib-only guard over the package source.

masseyq computes with Fractions only and imports nothing outside the
standard library.  This walks the syntax tree of every module under
``src/masseyq`` and reports any float literal, any call of ``float``,
any import of ``math`` or ``decimal``, and any import that is neither
the standard library nor the package itself.  A name such as ``float``
in ``isinstance(value, float)`` is not a call and is allowed.
"""

from __future__ import annotations

import ast
import os
import sys

import pytest

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
