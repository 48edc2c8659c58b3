"""Golden outputs: each case must reproduce its file byte for byte.

The files under ``tests/golden/`` pin what masseyq reports on the bundled
workloads, so a change that is meant to alter no behaviour can prove it.
Every case pins its structured output (``<name>.json``); the cases named
in ``HUMAN`` also pin their human output (``<name>.txt``).  Commands run
with ``tests/golden/`` as the working directory, so model files there are
named by a relative path that the output repeats.

To re-pin after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

from masseyq.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# a 5,000-digit integer literal
_BIG = "1" + "0" * 4999

# (name, argv, exit code)
CASES = [
    ("cohomology-heisenberg", ["cohomology", "builtin:heisenberg"], 0),
    ("massey-heisenberg-xxy", ["massey", "builtin:heisenberg", "x", "x", "y"], 0),
    (
        "lemma32-heisenberg-cap12",
        ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1", "--cap", "12"],
        0,
    ),
    (
        "lemma32-heisenberg-cap16",
        ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1", "--cap", "16"],
        0,
    ),
    (
        "theorem11-heisenberg",
        ["theorem11", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1"],
        0,
    ),
    (
        "theorem11-heisenberg-bare-bundle",
        ["theorem11", "builtin:heisenberg", "x", "x", "y", "--bundle", "weight = 2"],
        0,
    ),
    (
        "theorem11-rotation",
        ["theorem11", "eN", "eS", "eN", "--datum", "builtin:rotation"],
        12,
    ),
    ("scan-default", ["scan", "builtin:default"], 0),
    ("cohomology-filiform-8", ["cohomology", "filiform-8.alg"], 0),
    ("massey-filiform-8-x1x2x2", ["massey", "filiform-8.alg", "x1", "x2", "x2"], 0),
    (
        "massey-filiform-8-x1x2x1x4x5x8",
        ["massey", "filiform-8.alg", "x1", "x2", "x1*x4*x5*x8"],
        10,
    ),
    ("massey-torus-xxy", ["massey", "builtin:torus", "x", "x", "y"], 11),
    ("cohomology-two-step-7", ["cohomology", "two-step-7.alg"], 0),
    (
        "massey-two-step-7-x1x2x3x2",
        ["massey", "two-step-7.alg", "x1", "x2*x3", "x2"],
        10,
    ),
    ("cohomology-filiform-10", ["cohomology", "filiform-10.alg"], 0),
    (
        "euler-heisenberg-two-bundles",
        [
            "euler",
            "builtin:heisenberg",
            "--bundle",
            "c1 = x*z weight = 3",
            "--bundle",
            "weight = -2",
        ],
        0,
    ),
    (
        "euler-sphere-cohomology-cap7",
        ["euler", "builtin:sphere-cohomology", "--chi=2*h", "--m", "1", "--cap", "7"],
        0,
    ),
    (
        "euler-sphere-cohomology-s-plus-h",
        ["euler", "builtin:sphere-cohomology", "--chi=s+h", "--m", "1"],
        4,
    ),
    (
        "lemma32-two-points-zero-divisor",
        ["lemma32", "builtin:two-points", "eN", "eS", "eN", "--chi", "eN*h", "--m", "1"],
        3,
    ),
    (
        "lemma32-heisenberg-chi-wrong-degree",
        ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h*h", "--m", "1"],
        3,
    ),
    (
        "theorem11-two-points-zero-divisor",
        ["theorem11", "builtin:two-points", "eN", "eS", "eN", "--chi", "eN*h", "--m", "1"],
        3,
    ),
    (
        "cohomology-table-cap-below-basis",
        ["cohomology", "table-cap-below-basis.alg"],
        2,
    ),
    ("scan-m-zero", ["scan", "m-zero.family"], 3),
    ("scan-negative-min-cap", ["scan", "negative-min-cap.family"], 3),
    (
        "transfer-rotation-chi-zero-coefficient",
        ["transfer", "rotation-chi-zero-coefficient.datum", "eN", "eS", "eN"],
        3,
    ),
    (
        "transfer-rotation-chi-unknown-name",
        ["transfer", "rotation-chi-unknown-name.datum", "eN", "eS", "eN"],
        3,
    ),
    (
        "transfer-rotation-chi-not-homogeneous",
        ["transfer", "rotation-chi-not-homogeneous.datum", "eN", "eS", "eN"],
        3,
    ),
    ("scan-tautological-bundle-and-chi", ["scan", "tautological-bundle-and-chi.family"], 2),
    ("scan-tautological-bundle-and-m", ["scan", "tautological-bundle-and-m.family"], 2),
    ("scan-tautological-m-without-chi", ["scan", "tautological-m-without-chi.family"], 2),
    ("scan-tautological-chi-without-m", ["scan", "tautological-chi-without-m.family"], 2),
    ("cohomology-heisenberg-bundles", ["cohomology", "heisenberg-bundles.alg"], 2),
    ("scan-unknown-builtin", ["scan", "builtin:nonexistent"], 2),
    # A config's error gives its row the status the config reports alone
    # (5, 3 and 2 alone), and no finding.
    ("scan-over-budget-min-cap", ["scan", "over-budget-min-cap.family"], 0),
    ("scan-two-points-zero-divisor", ["scan", "two-points-zero-divisor.family"], 0),
    ("scan-unknown-class", ["scan", "unknown-class.family"], 0),
    # A tautological config's datum is built in its row, so its error is
    # that row (the family used to stop loading with exit 2 and 5).
    ("scan-tautological-unknown-class", ["scan", "tautological-unknown-class.family"], 0),
    ("scan-tautological-over-budget", ["scan", "tautological-over-budget.family"], 0),
    # A key given twice is refused (the last one used to win).
    ("scan-repeated-model", ["scan", "repeated-model.family"], 2),
    (
        "transfer-rotation-repeated-m",
        ["transfer", "rotation-repeated-m.datum", "eN", "eS", "eN"],
        2,
    ),
    # Over the size limit: the parent commit runs these unbounded, so they
    # were pinned from the change that added the limit.
    (
        "cohomology-cap-3000000",
        ["cohomology", "cap-3000000.alg", "--max-degree", "1"],
        5,
    ),
    ("cohomology-cap-huge", ["cohomology", "cap-huge.alg"], 5),
    ("cohomology-exterior-20", ["cohomology", "exterior-20.alg"], 5),
    (
        "euler-heisenberg-m-100000",
        ["euler", "builtin:heisenberg", "--chi", "h", "--m", "100000"],
        5,
    ),
    (
        "lemma32-heisenberg-cap-100000",
        ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1", "--cap", "100000"],
        5,
    ),
    # A large cap inside the size limit: the extension used to be laid out
    # whole, in time quadratic in its cap, before the answer --cap 16 gives.
    (
        "lemma32-heisenberg-cap-3000",
        ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1", "--cap", "3000"],
        0,
    ),
    # Every bundled model, datum and family, and the unknown-name lines.
    ("cohomology-torus", ["cohomology", "builtin:torus"], 0),
    ("cohomology-even-sphere", ["cohomology", "builtin:even-sphere"], 0),
    ("cohomology-sphere-cohomology", ["cohomology", "builtin:sphere-cohomology"], 0),
    ("cohomology-truncated-polynomial", ["cohomology", "builtin:truncated-polynomial"], 0),
    ("cohomology-point", ["cohomology", "builtin:point"], 0),
    ("cohomology-two-points", ["cohomology", "builtin:two-points"], 0),
    ("cohomology-rotation-ambient", ["cohomology", "builtin:rotation-ambient"], 0),
    ("transfer-rotation", ["transfer", "builtin:rotation", "eN", "eS", "eN"], 12),
    (
        "transfer-rotation-broken-push",
        ["transfer", "builtin:rotation-broken-push", "eN", "eS", "eN"],
        3,
    ),
    ("scan-corrupted-demo", ["scan", "builtin:corrupted-demo"], 0),
    ("cohomology-unknown-builtin", ["cohomology", "builtin:nonexistent"], 2),
    (
        "transfer-unknown-builtin",
        ["transfer", "builtin:nonexistent", "eN", "eS", "eN"],
        2,
    ),
    # A push line far above the fixed model's top degree is refused at its
    # line; it used to be a shape error found after laying out every
    # degree below it.
    (
        "transfer-rotation-push-40",
        ["transfer", "rotation-push-40.datum", "eN", "eS", "eN"],
        2,
    ),
    # Listing every class of a degree used to cost the square of its Betti
    # number; 4,096 classes here.
    ("cohomology-exterior-12", ["cohomology", "exterior-12.alg"], 0),
    # A numeric literal past Python's 4,300-digit limit on reading an int,
    # in a free algebra's d line, in a table's mul line and in an argument,
    # is a parse error at its column (and line); it used to exit 3.
    ("cohomology-oversized-literal", ["cohomology", "oversized-literal.alg"], 2),
    (
        "cohomology-oversized-literal-table",
        ["cohomology", "oversized-literal-table.alg"],
        2,
    ),
    (
        "massey-heisenberg-oversized-literal",
        ["massey", "builtin:heisenberg", _BIG + "*x", "x", "y"],
        2,
    ),
    # A table that fails the axiom scan names its first basis line.
    ("cohomology-non-associative", ["cohomology", "non-associative.alg"], 3),
    # The one verdict the scaled check gives on valid input when chi's
    # top coefficient is no unit: the witness lies in the scaled ideal.
    (
        "lemma32-two-factor-member",
        ["lemma32", "two-factor-member.alg", "x", "x", "y", "--chi", "p*h + s", "--m", "1"],
        10,
    ),
    (
        "theorem11-two-factor-member",
        ["theorem11", "two-factor-member.alg", "x", "x", "y", "--chi", "p*h + s", "--m", "1"],
        10,
    ),
    # Live paths no case above reached: the transfer stage's error under
    # theorem11, a re-capped and a bare builtin model, a product whose left
    # obstruction alone is nonzero, and a scan with a finding whose budget
    # runs out.
    (
        "theorem11-rotation-gysin-error",
        ["theorem11", "eN", "eN", "eN", "--datum", "builtin:rotation"],
        12,
    ),
    ("cohomology-heisenberg-cap6", ["cohomology", "builtin:heisenberg", "--cap", "6"], 0),
    ("cohomology-heisenberg-bare-name", ["cohomology", "heisenberg"], 0),
    ("massey-torus-xyy", ["massey", "builtin:torus", "x", "y", "y"], 11),
    ("scan-one-finding-budget", ["scan", "one-finding.family", "--budget", "2"], 13),
    # h is a fixed name: a datum key that renames it is refused at its line
    # (it used to be honoured, exit 12).
    (
        "transfer-rotation-h-named-t",
        ["transfer", "rotation-h-named-t.datum", "eN", "eS", "eN"],
        2,
    ),
    # A datum m below 1 is refused at its line, as a family config's is; it
    # used to fail later, where the push shapes are sized from it (exit 4
    # at m = -3, exit 2 at m = 0).
    (
        "transfer-rotation-m-negative",
        ["transfer", "rotation-m-negative.datum", "eN", "eS", "eN"],
        3,
    ),
    (
        "transfer-rotation-m-zero",
        ["transfer", "rotation-m-zero.datum", "eN", "eS", "eN"],
        3,
    ),
    # A fixed-cap that leaves no room for h, or lies below the fixed base's
    # cap, is refused at its own line (it used to be reported at the
    # [datum] header, line 66).
    (
        "transfer-rotation-fixed-cap-1",
        ["transfer", "rotation-fixed-cap-1.datum", "eN", "eS", "eN"],
        2,
    ),
    (
        "transfer-rotation-fixed-cap-0",
        ["transfer", "rotation-fixed-cap-0.datum", "eN", "eS", "eN"],
        2,
    ),
    (
        "transfer-rotation-fixed-cap-negative",
        ["transfer", "rotation-fixed-cap-negative.datum", "eN", "eS", "eN"],
        2,
    ),
    # A fixed base that already names h is refused at its [fixed-base]
    # header, line 58 (it used to be reported at the [datum] header, 66).
    (
        "transfer-rotation-fixed-base-names-h",
        ["transfer", "rotation-fixed-base-names-h.datum", "eN", "eS", "eN"],
        2,
    ),
    # A valid datum whose ambient cap is too small for the pushed product
    # names the cap that suffices, 6 (it used to name 5, the cap of the
    # pushed cup in degree 4, and at cap 5 then asked for 6).
    (
        "transfer-rotation-ambient-cap-4",
        ["transfer", "rotation-ambient-cap-4.datum", "eN", "eS", "eN"],
        4,
    ),
    # A class above the datum's last push line, a singular push whose
    # kernel chi lifts above the fixed top, and an omitted push line.  A
    # class above the last push line asks for the ambient cap its image
    # needs (it used to ask for its own degree, a cap the datum has).  The
    # singular push is a finding (it used to exit 4, asking for cap 9 to
    # cup chi with the kernel class).  An omitted push line is a zero
    # matrix, so the same finding (it used to pass validation, exit 12).
    (
        "transfer-rotation-ambient-cap-4-eN-h",
        ["transfer", "rotation-ambient-cap-4.datum", "eN*h", "eS", "eN"],
        4,
    ),
    (
        "transfer-rotation-push-6-singular",
        ["transfer", "rotation-push-6-singular.datum", "eN", "eS", "eN"],
        3,
    ),
    (
        "transfer-rotation-no-push-6",
        ["transfer", "rotation-no-push-6.datum", "eN", "eS", "eN"],
        3,
    ),
]


# cases whose human output is pinned as well
HUMAN = {
    "theorem11-heisenberg",
    "theorem11-heisenberg-bare-bundle",
    "lemma32-heisenberg-cap12",
    "theorem11-rotation",
    "scan-default",
    "cohomology-exterior-20",
    "lemma32-two-factor-member",
    "theorem11-rotation-gysin-error",
    "scan-one-finding-budget",
    "transfer-rotation-ambient-cap-4",
    "transfer-rotation-ambient-cap-4-eN-h",
}

def _run(argv: list[str], fmt: str) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--format", fmt])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _path(name: str, fmt: str) -> str:
    return os.path.join(GOLDEN, f"{name}.{'json' if fmt == 'structured' else 'txt'}")


def _check(name, argv, exit_code, fmt):
    code, out = _run(argv, fmt)
    with open(_path(name, fmt), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert code == exit_code
    assert out == want


@pytest.mark.parametrize("name, argv, exit_code", CASES, ids=[c[0] for c in CASES])
def test_structured_output_is_unchanged(name, argv, exit_code):
    _check(name, argv, exit_code, "structured")


_HUMAN_CASES = [c for c in CASES if c[0] in HUMAN]


@pytest.mark.parametrize(
    "name, argv, exit_code", _HUMAN_CASES, ids=[c[0] for c in _HUMAN_CASES]
)
def test_human_output_is_unchanged(name, argv, exit_code):
    _check(name, argv, exit_code, "human")


if __name__ == "__main__":
    for name, argv, exit_code in CASES:
        for fmt in ("structured", "human") if name in HUMAN else ("structured",):
            code, out = _run(argv, fmt)
            if code != exit_code:
                sys.exit(f"{name} ({fmt}): exit {code}, expected {exit_code}")
            with open(_path(name, fmt), "w", encoding="utf-8", newline="") as fh:
                fh.write(out)
            print(f"{os.path.basename(_path(name, fmt))}: {len(out)} bytes")
