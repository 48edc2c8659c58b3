"""Every function in ``src/masseyq`` is reached by some golden request.

Each case of ``tests/test_golden.py`` runs through ``cli.main`` in both
formats under ``sys.setprofile``; every ``def`` under ``src/masseyq``
(found by AST) that no case calls must be in ``ALLOWED`` with a reason.
An entry of ``ALLOWED`` that no longer names a function, or whose
function a case now reaches, fails as well, so the list stays true.

``PYTHONPATH=src python tests/test_reachability.py`` prints every
unreached function with its ``file:line`` and line count.  With
``--statements`` it runs the same cases under ``sys.settrace`` instead
and prints every statement inside a function body that no case runs,
with its ``file:line``, then the unreached ``raise`` count of each
module and the counts of ``raise`` and other statements.  That pass
takes a few seconds and is no test.
"""

from __future__ import annotations

import ast
import collections
import json
import os
import subprocess
import sys

from test_golden import CASES, _run

import masseyq

SRC = os.path.dirname(os.path.abspath(masseyq.__file__))

_DENSE = (
    "dense helper: perfbench/spans.py wraps linalg.rref and linalg.solve by "
    "name, so these go with Matrix (ROADMAP item 13)"
)
_DENSE_VIEW = "the dense constructor and coords view README's Library section names"
_ACCESSOR = "library accessor README's Library section names"
_REPR = "repr for library users"
_VALUE = "equality and hash that make a public type usable as a value"
_FROZEN = "immutability guard"
_ARITHMETIC = "operator of the public vector type, for library users"

# What no request reaches and why it stays, by "module.qualname".
ALLOWED: dict[str, str] = {
    "linalg.Matrix.__init__": _DENSE,
    "linalg.Matrix._trusted": _DENSE,
    "linalg.Matrix.__setattr__": _DENSE,
    "linalg.Matrix.matvec": _DENSE,
    "linalg.Matrix.__eq__": _DENSE,
    "linalg.Matrix.__hash__": _DENSE,
    "linalg.Matrix.__repr__": _DENSE,
    "linalg.rref": _DENSE,
    "linalg.solve": _DENSE,
    "linalg._sparse_rows": _DENSE,
    "linalg.densify": _DENSE,
    "linalg.sparsify": _DENSE,
    "linalg.vector": _DENSE,
    "linalg.zero_vector": _DENSE,
    "linalg.GradedVector.__init__": _DENSE_VIEW,
    "linalg.GradedVector.coords": _DENSE_VIEW,
    "cdga.Element._dim": _DENSE_VIEW,
    "cohomology.CohomologyClass._dim": _DENSE_VIEW,
    "cdga.CochainAlgebra.element": _ACCESSOR,
    "cdga.CochainAlgebra.basis_element": _ACCESSOR,
    "cdga.CochainAlgebra.names": _ACCESSOR,
    "cdga.CochainAlgebra.generator": _ACCESSOR,
    "cohomology.CohomologyRing.betti": _ACCESSOR,
    "cohomology.CohomologyRing.cocycles": _ACCESSOR,
    "cohomology.CohomologyRing.coboundaries": _ACCESSOR,
    "cohomology.CohomologyRing.zero_class": _ACCESSOR,
    "cdga.Element.__repr__": _REPR,
    "cdga.CochainAlgebra.__repr__": _REPR,
    "cdga.AlgebraMorphism.__repr__": _REPR,
    "cohomology.CohomologyClass.__repr__": _REPR,
    "cohomology.CohomologyRing.__repr__": _REPR,
    "linalg.Subspace.__repr__": _REPR,
    "linalg.AffineCoset.__repr__": _REPR,
    "transfer.HamiltonianTransferDatum.__repr__": _REPR,
    "linalg.GradedVector.__hash__": _VALUE,
    "linalg.Subspace.__eq__": _VALUE,
    "linalg.Subspace.__hash__": _VALUE,
    "linalg.AffineCoset.__eq__": _VALUE,
    "linalg.AffineCoset.__hash__": _VALUE,
    "linalg.GradedVector.__setattr__": _FROZEN,
    "linalg.Subspace.__setattr__": _FROZEN,
    "linalg.AffineCoset.__setattr__": _FROZEN,
    "linalg.GradedVector.__neg__": _ARITHMETIC,
    "linalg.GradedVector.__rmul__": _ARITHMETIC,
    "linalg.GradedVector.__sub__": _ARITHMETIC,
}


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """Every def in the package: (file, first line) -> (name, line count).

    The first line is the one a code object reports, the first decorator
    of a decorated def.
    """
    out = {}
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = fname[:-3]

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first)] = (f"{module}.{name}", child.end_lineno - first + 1)
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


def _run_cases(install, hook) -> None:
    """Every golden case in both formats with ``install(hook)`` in force
    (``sys.setprofile`` or ``sys.settrace``)."""
    for _, argv, _ in CASES:
        for fmt in ("structured", "human"):
            install(hook)
            try:
                _run(argv, fmt)
            finally:
                install(None)


def _trace() -> list[tuple[str, int]]:
    """(file, first line) of every function a golden case calls here."""
    seen = {}

    def profile(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code

    _run_cases(sys.setprofile, profile)
    return sorted({(os.path.abspath(c.co_filename), c.co_firstlineno) for c in seen.values()})


def _trace_lines() -> list[tuple[str, int]]:
    """(file, line) of every line of the package a golden case runs."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    _run_cases(sys.settrace, trace)
    return sorted(seen)


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def body_statements() -> list[tuple[str, int, str, bool, range]]:
    """Every statement with bytecode inside a function body: (file, line,
    function, is a raise, the lines whose execution means it ran).

    A compound statement runs when its header does, so its lines end
    before its first inner statement; a docstring has no bytecode.
    """
    out = []
    functions = defined_functions()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        code_lines = _code_lines(compile(source, path, "exec"))

        def visit(node, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    inner = functions[(path, first)][0]
                else:
                    inner = function
                if function is not None and isinstance(child, ast.stmt):
                    body = [
                        n.lineno
                        for n in ast.iter_child_nodes(child)
                        if isinstance(n, (ast.stmt, ast.ExceptHandler))
                    ]
                    own = range(child.lineno, min(body, default=child.end_lineno + 1))
                    if code_lines.intersection(own):
                        out.append(
                            (path, child.lineno, function, isinstance(child, ast.Raise), own)
                        )
                visit(child, inner)

        visit(ast.parse(source, path), None)
    return out


def _in_new_interpreter(flag: str) -> list:
    """A ``--trace`` pass in a new interpreter: a process that has run
    other tests may hold what a first request builds (the CLI builds its
    parser once) and so never call it again."""
    pythonpath = [os.path.dirname(SRC), os.environ.get("PYTHONPATH")]
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), flag],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


def reached_code() -> set[tuple[str, int]]:
    """(file, first line) of every function a golden case calls."""
    return {(path, line) for path, line in _in_new_interpreter("--trace")}


def unreached_statements(statements) -> list[tuple[str, int, str, bool]]:
    """The ``body_statements`` no golden case runs: (file, line, function,
    is a raise)."""
    ran = {(path, line) for path, line in _in_new_interpreter("--trace-lines")}
    return [
        (path, line, function, is_raise)
        for path, line, function, is_raise, own in statements
        if not any((path, n) in ran for n in own)
    ]


def unreached() -> dict[str, tuple[str, int]]:
    """Unreached functions: name -> ("file:line", line count)."""
    reached = reached_code()
    return {
        name: (f"{os.path.relpath(path)}:{line}", size)
        for (path, line), (name, size) in defined_functions().items()
        if (path, line) not in reached
    }


def test_every_function_is_reached_or_allowed():
    missed = unreached()
    names = {name for name, _ in defined_functions().values()}
    problems = [
        f"{where}: {name} is reached by no golden case"
        for name, (where, _) in missed.items()
        if name not in ALLOWED
    ]
    for name in ALLOWED:
        if name not in names:
            problems.append(f"ALLOWED names {name}, which no longer exists")
        elif name not in missed:
            problems.append(f"ALLOWED names {name}, which a golden case now reaches")
    assert not problems, "\n".join(problems)


if __name__ == "__main__" and sys.argv[1:] == ["--trace"]:
    print(json.dumps(_trace()))
elif __name__ == "__main__" and sys.argv[1:] == ["--trace-lines"]:
    print(json.dumps(_trace_lines()))
elif __name__ == "__main__" and sys.argv[1:] == ["--statements"]:
    statements = body_statements()
    missed = unreached_statements(statements)
    for path, line, function, is_raise in missed:
        kind = "raise" if is_raise else "statement"
        print(f"{os.path.relpath(path)}:{line}: {kind} in {function}")
    raises = sum(is_raise for *_, is_raise in missed)
    per_module = collections.Counter(
        os.path.basename(path) for path, *_, is_raise in missed if is_raise
    )
    for module, count in sorted(per_module.items()):
        print(f"{module}: {count} raise unreached")
    print(
        f"{len(missed)} of {len(statements)} function-body statements "
        f"unreached: {raises} raise, {len(missed) - raises} other"
    )
elif __name__ == "__main__":
    missed = unreached()
    for (path, line), (name, size) in sorted(defined_functions().items()):
        if name in missed:
            flag = "" if name in ALLOWED else "  (not in ALLOWED)"
            print(f"{os.path.relpath(path)}:{line}: {name} ({size} lines){flag}")
    print(f"{len(missed)} unreached functions, {sum(s for _, s in missed.values())} lines")
