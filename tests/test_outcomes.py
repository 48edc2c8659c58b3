"""One outcome table: what a failed request reports, alone or as a scan row.

``report.outcome`` maps an exception to a status, an exit code and
payload extras.  ``cli.main`` reports a failed request through it, and
``scan_families`` gives a failed config's row the same status, so a
one-config scan row reads what its config reports when run alone.
README's exit-code table documents every pair the table emits.  Every
site that raises ConsistencyError, the `internal` outcome, is listed
here with the reason it stays.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masseyq
import masseyq.cli as cli
import masseyq.report as report
import masseyq.transfer as transfer
from masseyq.cli import main
from masseyq.cohomology import InducedMap
from masseyq.errors import (
    AlgebraValidationError,
    BudgetError,
    ConsistencyError,
    DegreeCapError,
    ParseError,
)
from masseyq.fileformat import resolve_datum_spec
from masseyq.linalg import AffineCoset
from masseyq.models import builtin_datum, builtin_model
from masseyq.report import outcome
from masseyq.transfer import EulerClassError, required_cap

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "data")

# The table in order, as a chain of `except` clauses would read it.
LADDER = list(report._OUTCOMES)


def _package_exceptions() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(masseyq.__path__):
        module = importlib.import_module(f"masseyq.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, BaseException)
                and value.__module__.startswith("masseyq")
            ):
                found.add(value)
    return found


def test_mro_lookup_matches_the_first_listed_base():
    classes = _package_exceptions()
    assert {ConsistencyError, EulerClassError, BudgetError} <= classes
    for cls in classes:
        nearest = next(c for c in cls.__mro__ if c in report._OUTCOMES)
        assert nearest is next(c for c in LADDER if issubclass(cls, c)), cls


def test_outcome_of_each_kind():
    assert outcome(ConsistencyError("two routes")) == ("internal", 1, {"error": "two routes"})
    assert outcome(EulerClassError("bad", "finding")).exit_code == 3
    assert outcome(ParseError("bad", line=4)) == (
        "invalid-input", 2, {"error": "line 4: bad"},
    )
    assert outcome(DegreeCapError("low")).payload == {"error": "low"}
    assert outcome(DegreeCapError("low", required_cap=9)).payload == {
        "error": "low", "required-cap": 9,
    }
    assert outcome(BudgetError("big", 7, 5)) == (
        "over-budget", 5, {"error": "big", "required-size": 7, "size-limit": 5},
    )
    assert outcome(KeyError("x")) is None
    assert outcome(RuntimeError("x")) is None


def _readme_exit_rows() -> dict[int, str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("### Exit codes", 1)[1]
    rows = {}
    for line in section.splitlines():
        mo = re.match(r"\|\s*(\d+)\s*\|(.*)\|\s*$", line)
        if mo:
            rows[int(mo.group(1))] = mo.group(2)
        elif rows:
            break
    return rows


def test_readme_documents_every_exit_code_and_outcome():
    rows = _readme_exit_rows()
    codes = {v for k, v in vars(report).items() if k.startswith("EXIT_")}
    assert set(rows) == codes
    for status, code, _ in report._OUTCOMES.values():
        assert f"`{status}`" in rows[code], (status, code)


# ---------------------------------------------------------------------------
# errors a config raises in a scan
# ---------------------------------------------------------------------------


def _structured(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "structured"])
    return code, json.loads(out.getvalue())


def _scan_one(lines: list[str]) -> tuple[int, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "one.family")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[config]\nname = one\n" + "\n".join(lines) + "\n")
        return _structured(["scan", path])


HEISENBERG = ["model = builtin:heisenberg", "triple = x | x | y", "chi = h", "m = 1"]


@pytest.mark.parametrize(
    "exc, status",
    [(ConsistencyError("two routes disagree"), "internal"), (KeyError("k"), "error")],
)
def test_hard_failures_stay_findings(monkeypatch, exc, status):
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(transfer, "check_euler_scaled_massey", raising)
    code, doc = _scan_one(HEISENBERG)
    assert code == 13
    [row] = doc["payload"]["rows"]
    assert (row["status"], row["verdict"]) == (status, "inconclusive")
    assert row["note"] == str(exc)
    assert doc["payload"]["findings"] == [f"one: {type(exc).__name__}: {exc}"]


def test_main_lets_an_unknown_exception_through(monkeypatch):
    def raising(*args, **kwargs):
        raise KeyError("k")

    monkeypatch.setattr(cli, "CohomologyRing", raising)
    with pytest.raises(KeyError):
        main(["cohomology", "builtin:heisenberg"])


@pytest.mark.parametrize(
    "expect, findings",
    [("invalid-input", 0), ("inconclusive", 0), ("non-vanishing", 1)],
)
def test_a_failed_config_is_held_to_its_expectation(expect, findings):
    typo = ["model = builtin:heisenberg", "triple = x | q | y", "chi = h", "m = 1"]
    code, doc = _scan_one(typo + [f"expect = {expect}"])
    assert doc["payload"]["rows"][0]["status"] == "invalid-input"
    assert len(doc["payload"]["findings"]) == findings
    assert code == (13 if findings else 0)


def test_datum_check_lets_an_internal_error_through(monkeypatch):
    def raising(self, ring):
        raise ConsistencyError("two routes disagree")

    monkeypatch.setattr(transfer.EulerData, "build", raising)
    code, doc = _structured(["theorem11", "eN", "eS", "eN", "--datum", "builtin:rotation"])
    assert code == 1
    assert (doc["status"], doc["payload"]) == ("internal", {"error": "two routes disagree"})


# ---------------------------------------------------------------------------
# the checks a payload writes as a literal true
# ---------------------------------------------------------------------------

# Each check fails once, on the nth call of InducedMap.maps_into in a
# tautological Heisenberg run (1 the retraction, 2 the embedding, 3 to 5
# the scaling chain, 6 the Gysin containment), or on the witness test in
# check_euler_scaled_massey; (check, nth, message, whether lemma32 runs it).
FORCED = [
    ("maps_into", 1, "direct zero test and base-projection route disagree", True),
    ("maps_into", 2, "embedded image of the base product must land", True),
    ("maps_into", 3, "scaling containment fails at step 1 ", True),
    ("maps_into", 4, "scaling containment fails at step 2 ", True),
    ("maps_into", 5, "scaling containment fails at step 3 ", True),
    ("maps_into", 6, "restriction does not map the ambient product", False),
    ("contains", 1, r"chi\^3 times the base representative must lie", True),
]
_FORCED_IDS = [f"{check}-{nth}" for check, nth, _, _ in FORCED]
_HEISENBERG_FLAGS = ["builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1"]


def _fail_once(monkeypatch, check: str, nth: int) -> None:
    """Make the nth call of one check answer False; the others answer true."""
    if check == "maps_into":
        owner, caller = InducedMap, None
    else:
        owner, caller = AffineCoset, "check_euler_scaled_massey"
    real = getattr(owner, check)
    calls = []

    def failing(self, *args):
        if caller is None or sys._getframe(1).f_code.co_name == caller:
            calls.append(None)
            if len(calls) == nth:
                return False
        return real(self, *args)

    monkeypatch.setattr(owner, check, failing)


@pytest.mark.parametrize("check, nth, message, euler_stage", FORCED, ids=_FORCED_IDS)
def test_a_failed_forced_check_raises(monkeypatch, check, nth, message, euler_stage):
    _fail_once(monkeypatch, check, nth)
    with pytest.raises(ConsistencyError, match=message):
        transfer.run_transfer_pipeline(
            builtin_model("heisenberg"),
            "x",
            "x",
            "y",
            euler=transfer.EulerData.of(chi="h", m=1),
            tautological=True,
        )


@pytest.mark.parametrize("check, nth, message, euler_stage", FORCED, ids=_FORCED_IDS)
def test_a_failed_forced_check_is_internal(monkeypatch, check, nth, message, euler_stage):
    commands = ["theorem11", "lemma32"] if euler_stage else ["theorem11"]
    for command in commands:
        with monkeypatch.context() as patch:
            _fail_once(patch, check, nth)
            code, doc = _structured([command, *_HEISENBERG_FLAGS])
        assert (code, doc["status"]) == (1, "internal")
        assert re.search(message, doc["payload"]["error"])
    with monkeypatch.context() as patch:
        _fail_once(patch, check, nth)
        code, doc = _scan_one(HEISENBERG + ["datum = tautological"])
    assert code == 13
    [row] = doc["payload"]["rows"]
    assert row["status"] == "internal"
    assert re.search(message, row["note"])
    assert doc["payload"]["findings"] == [f"one: ConsistencyError: {row['note']}"]


def test_a_pushed_product_the_restriction_kills_raises():
    # A datum whose push sends eN and eS to H1, so that U V = H2 != 0, and
    # whose restriction kills degree 4: U V then restricts to
    # (chi eN)(chi eS) = 0 as it should, although it is nonzero.  Its
    # restriction is stored columns, not a validated ring map, so the
    # datum has a finding and the transfer stage refuses it.
    rotation = builtin_datum("rotation")
    fring, aring = rotation.fixed_ring, rotation.ambient_ring
    h1 = aring.class_from_polynomial("H1").terms
    restrict = [rotation.restrict_map.columns(n) for n in range(4)]
    restrict.append([{}] * aring.class_dim(4))
    datum = transfer.HamiltonianTransferDatum(
        "kills-degree-4",
        InducedMap.stored(aring, fring, 0, restrict),
        InducedMap.stored(fring, aring, 2, [[h1, h1]]),
        rotation.euler,
    )
    finding = "restriction must be induced by an algebra morphism"
    assert datum.findings == (finding,)
    with pytest.raises(AlgebraValidationError, match=f"^transfer datum is invalid: {finding}$"):
        transfer.check_gysin_transfer(datum, "eN", "eS", "eN")


def test_the_transfer_stage_refuses_a_datum_with_findings():
    datum = builtin_datum("rotation-broken-push")
    with pytest.raises(
        AlgebraValidationError,
        match=r"^transfer datum is invalid: projection formula fails in degree 2:",
    ):
        transfer.check_gysin_transfer(datum, "eN", "eS", "eN")


# ---------------------------------------------------------------------------
# why each ConsistencyError site stays
# ---------------------------------------------------------------------------

_CERTIFIED = "an elimination whose result another computation certifies"
_INDEPENDENT = "a genuinely independent route to the same conclusion"
_LITERAL_TRUE = "the check behind a payload key written as a literal true"
_CALLER_DATA = "data that a library caller supplies unvalidated"

# Every `raise ConsistencyError` under src/masseyq, by "module.qualname"
# and the start of its message (an interpolation reads "{}"), with the
# reason it stays.  A check that re-derives what its own function has
# just fixed by construction does not belong here; it goes.  The unit
# certificate of chi's top h coefficient raises none of its own: it is an
# ideal membership, certified and checked by ``certify_ideal_membership``.
CONSISTENCY_SITES: dict[tuple[str, str], str] = {
    ("cohomology.certify_ideal_membership", "ideal membership in degree {}: the"): _CERTIFIED,
    ("cohomology.certify_ideal_membership", "ideal membership in degree {}: solve"): _CERTIFIED,
    ("cohomology._primitive", "product of representatives is not exact"): _CERTIFIED,
    ("cohomology.triple_massey", "assembled representative is not a cocycle"): _CERTIFIED,
    ("transfer.check_euler_scaled_massey", "direct zero test and base-projection"): _INDEPENDENT,
    ("transfer.check_euler_scaled_massey", "the embedded image of the base product"): _LITERAL_TRUE,
    ("transfer.check_euler_scaled_massey", "scaling containment fails at step {}"): _LITERAL_TRUE,
    ("transfer.check_euler_scaled_massey", "chi^3 times the base representative"): _LITERAL_TRUE,
    ("transfer.check_gysin_transfer", "restriction does not map the ambient"): _LITERAL_TRUE,
    ("cohomology.check_scaling_law", "scaled triple product must be defined"): _CALLER_DATA,
}


def _message(call: ast.Call) -> str:
    """The message a raise passes, each interpolation read as "{}"."""
    arg = call.args[0] if call.args else ast.Constant("")
    parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
    return "".join(str(v.value) if isinstance(v, ast.Constant) else "{}" for v in parts)


def consistency_sites() -> list[tuple[str, str, str]]:
    """(file:line, module.qualname, message) of each raise of ConsistencyError."""
    src = os.path.dirname(os.path.abspath(masseyq.__file__))
    out = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{prefix}{child.name}.")
                    continue
                call = child.exc if isinstance(child, ast.Raise) else None
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "ConsistencyError":
                    where = f"{fname}:{child.lineno}"
                    out.append((where, f"{fname[:-3]}.{prefix[:-1]}", _message(call)))
                visit(child, prefix)

        visit(tree, "")
    return out


def test_every_consistency_site_has_a_reason():
    problems, matched = [], set()
    for where, function, message in consistency_sites():
        keys = [
            key for key in CONSISTENCY_SITES
            if key[0] == function and message.startswith(key[1])
        ]
        if len(keys) != 1:
            problems.append(
                f"{where}: {function} raises ConsistencyError({message[:40]!r}...) "
                f"and matches {len(keys)} entries of CONSISTENCY_SITES"
            )
        matched.update(keys)
    for key in CONSISTENCY_SITES.keys() - matched:
        problems.append(f"CONSISTENCY_SITES names {key}, which no raise matches")
    assert not problems, "\n".join(problems)


# ---------------------------------------------------------------------------
# a one-config scan row reads what its config reports alone
# ---------------------------------------------------------------------------

# Triples over the bundled models: non-vanishing, vanishing and undefined
# products, products of degree-0 classes, a non-cocycle (z) and a name no
# model knows (q).
TRIPLES = [
    ("heisenberg", ("x", "x", "y")),
    ("heisenberg", ("y", "y", "x")),
    ("heisenberg", ("x*z", "x", "y")),
    ("heisenberg", ("x", "x", "z")),
    ("heisenberg", ("x", "q", "y")),
    ("torus", ("x", "x", "y")),
    ("torus", ("x", "x", "x")),
    ("two-points", ("eN", "eS", "eN")),
    ("two-points", ("eN", "q", "eN")),
    ("even-sphere", ("u", "u", "u")),
    ("sphere-cohomology", ("s", "s", "s")),
    ("truncated-polynomial", ("u", "u", "u")),
]

# (family lines, flags, m): zero divisors (eN*h on two-points), wrong
# degrees (h*h with m = 1) and names a model does not know included.
EULER = [
    (["chi = h", "m = 1"], ["--chi", "h", "--m", "1"], 1),
    (["chi = 2*h", "m = 1"], ["--chi", "2*h", "--m", "1"], 1),
    (["chi = eN*h", "m = 1"], ["--chi", "eN*h", "--m", "1"], 1),
    (["chi = eN*h - eS*h", "m = 1"], ["--chi", "eN*h - eS*h", "--m", "1"], 1),
    (["chi = h*h", "m = 1"], ["--chi", "h*h", "--m", "1"], 1),
    (["chi = 3*h*h", "m = 2"], ["--chi", "3*h*h", "--m", "2"], 2),
    (["bundle weight = 1"], ["--bundle", "weight = 1"], 1),
    (
        ["bundle weight = 2", "bundle weight = -1"],
        ["--bundle", "weight = 2", "--bundle", "weight = -1"],
        2,
    ),
    (["bundle c1 = x*z weight = 3"], ["--bundle", "c1 = x*z weight = 3"], 1),
]

# min-cap: absent, at or above the required cap, or past the size limit.
# Below the required cap `--cap` is refused with exit 4 while `min-cap`
# is a floor, so that case is left out.
CAP_CHOICES = ["absent", "at", "above", "over-limit"]


def _min_cap(choice, base, triple, m):
    """The min-cap ``choice`` names; absent where a name is unknown, so
    that no required cap exists."""
    if choice == "over-limit":
        return 150_000
    if choice == "absent":
        return None
    try:
        required = required_cap(base, *triple, m)
    except ParseError:
        return None
    return required if choice == "at" else required + 2


def _row_status(code: int, doc: dict) -> str:
    """A one-config scan's status for its config: the row's, or the
    scan's when the family does not load."""
    rows = doc["payload"].get("rows")
    if rows is None:
        return doc["status"]
    assert code == 0 and doc["payload"]["findings"] == []
    return rows[0]["status"]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_scan_row_status_equals_lemma32_status(data):
    model, triple = data.draw(st.sampled_from(TRIPLES))
    lines, flags, m = data.draw(st.sampled_from(EULER))
    cap = _min_cap(data.draw(st.sampled_from(CAP_CHOICES)), builtin_model(model), triple, m)

    family = [f"model = builtin:{model}", "triple = " + " | ".join(triple), *lines]
    argv = ["lemma32", f"builtin:{model}", *triple, *flags]
    if cap is not None:
        family.append(f"min-cap = {cap}")
        argv += ["--cap", str(cap)]
    _, alone = _structured(argv)
    assert _row_status(*_scan_one(family)) == alone["status"]


STORED = ["builtin:rotation", "builtin:rotation-broken-push", os.path.join(DATA, "rotation.datum")]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_scan_row_status_equals_theorem11_status(data):
    if data.draw(st.booleans(), label="stored"):
        spec = data.draw(st.sampled_from(STORED))
        triple = data.draw(st.tuples(*[st.sampled_from(["eN", "eS", "q"])] * 3))
        datum = resolve_datum_spec(spec, DATA)
        base, m = datum.fixed.tensor_info.base, datum.m
        family = [f"datum = {spec}"]
        argv = ["theorem11", *triple, "--datum", spec]
    else:
        model, triple = data.draw(st.sampled_from(TRIPLES))
        lines, flags, m = data.draw(st.sampled_from(EULER))
        base = builtin_model(model)
        family = [f"model = builtin:{model}", "datum = tautological", *lines]
        argv = ["theorem11", f"builtin:{model}", *triple, *flags]
    family.append("triple = " + " | ".join(triple))
    cap = _min_cap(data.draw(st.sampled_from(CAP_CHOICES)), base, triple, m)
    if cap is not None:
        family.append(f"min-cap = {cap}")
        argv += ["--cap", str(cap)]
    _, alone = _structured(argv)
    status = alone["payload"].get("pipeline-status", alone["status"])
    assert _row_status(*_scan_one(family)) == status
