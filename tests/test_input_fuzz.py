"""Line-level mutations of the bundled input files, run through ``cli.main``.

Each mutant changes one line of ``data/*`` or ``tests/golden/*.alg``:
the line is deleted, duplicated, swapped with the next one, replaced,
truncated, or has one character inserted or overwritten.  Whatever the
file then says, the command must end with a documented exit code (never
1, which is reserved for an internal inconsistency), print at most one
line on stderr and raise nothing.  The ``restrict[n]`` and ``push[n]``
lines of the rotation datum, which are read into a morphism's sparse
columns and into pushforward matrices, are also mutated one by one.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masseyq.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "data")
GOLDEN = os.path.join(ROOT, "tests", "golden")
EXITS = {0, 2, 3, 4, 5, 10, 11, 12, 13}

# seed file -> the command run on its mutant, whose path replaces "{}"
COMMANDS = {
    os.path.join(DATA, "heisenberg.alg"): ["massey", "{}", "x", "x", "y"],
    os.path.join(DATA, "rotation.datum"): ["transfer", "{}", "eN", "eS", "eN"],
    os.path.join(DATA, "demo.family"): ["scan", "{}"],
    **{
        os.path.join(GOLDEN, name): ["cohomology", "{}"]
        for name in sorted(os.listdir(GOLDEN))
        if name.endswith(".alg")
    },
}
ALPHABET = "0123456789 -+*/=:;|#[]._xyzhNS\t"
MUTATIONS = ("delete", "duplicate", "swap", "replace", "truncate", "insert", "overwrite")


def _read(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().split("\n")


def _mutate(data, lines: list[str]) -> str:
    """One drawn mutation of one drawn line."""
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(MUTATIONS))
    line = lines[i]
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "swap":
        j = min(i + 1, len(lines) - 1)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "replace":
        lines[i] = data.draw(st.text(ALPHABET, max_size=30))
    elif kind == "truncate":
        lines[i] = line[: data.draw(st.integers(0, len(line)))]
    else:
        char = data.draw(st.sampled_from(ALPHABET))
        if kind == "insert":
            pos = data.draw(st.integers(0, len(line)))
            lines[i] = line[:pos] + char + line[pos:]
        else:
            pos = data.draw(st.integers(0, max(len(line) - 1, 0)))
            lines[i] = line[:pos] + char + line[pos + 1 :]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A copy of ``data/``, so a mutant family finds the files it names."""
    path = tmp_path_factory.mktemp("fuzz")
    for name in os.listdir(DATA):
        shutil.copy(os.path.join(DATA, name), path)
    return str(path)


def _assert_contract(workdir: str, seed: str, text: str) -> None:
    path = os.path.join(workdir, "mutant" + os.path.splitext(seed)[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    argv = [path if a == "{}" else a for a in COMMANDS[seed]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXITS, (argv, text, out.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_line_mutants_end_in_a_documented_exit(workdir, data):
    seed = data.draw(st.sampled_from(sorted(COMMANDS)))
    _assert_contract(workdir, seed, _mutate(data, _read(seed)))


DATUM = os.path.join(DATA, "rotation.datum")
MATRIX_EDITS = (
    lambda line: "",
    lambda line: line.split("=")[0] + "=",
    lambda line: line + " ; 1 1",
    lambda line: line + " 1",
    lambda line: line.replace("1", "1.5", 1),
    lambda line: line.replace("1", "x", 1),
    lambda line: line.replace("1", "1/0", 1),
    lambda line: line.replace(";", ""),
    lambda line: line.replace("[", "[1", 1),
    lambda line: line.replace("]", "9]", 1),
    lambda line: line.replace("0", "7", 1),
)


@pytest.mark.parametrize("edit", range(len(MATRIX_EDITS)))
def test_restrict_and_push_line_mutants_end_in_a_documented_exit(workdir, edit):
    lines = _read(DATUM)
    matrix_lines = [
        i for i, line in enumerate(lines) if line.startswith(("restrict[", "push["))
    ]
    assert len(matrix_lines) == 9
    for i in matrix_lines:
        mutant = list(lines)
        mutant[i] = MATRIX_EDITS[edit](lines[i])
        _assert_contract(workdir, DATUM, "\n".join(mutant))
