from __future__ import annotations

import json
import os
import time

import pytest

import masseyq.transfer as transfer
from masseyq.cli import main
from masseyq.cohomology import CohomologyRing, triple_massey
from masseyq.errors import ParseError
from masseyq.fileformat import (
    load_algebra_document,
    load_datum,
    load_family,
    parse_algebra_document,
    parse_bundle_line,
    parse_datum_document,
    parse_family_document,
    resolve_model_spec,
)
from masseyq.models import builtin_datum, builtin_model
from masseyq.transfer import (
    EulerData,
    scan_families,
    tautological_from_parts,
    validate_transfer_datum,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


HEISENBERG_TEXT = """
# a comment
cap = 4
gen x : 1
gen y : 1
gen z : 1
d z = x*y
"""

TWO_POINTS_TEXT = """
[algebra]
cap = 1
basis 0 : eN eS
mul eN * eN = eN
mul eN * eS = 0
mul eS * eN = 0
mul eS * eS = eS
"""


def test_free_algebra_headerless():
    doc = parse_algebra_document(HEISENBERG_TEXT)
    ring = CohomologyRing(doc.algebra)
    assert ring.betti() == (1, 2, 2, 1)


def test_free_algebra_matches_builtin():
    doc = parse_algebra_document(HEISENBERG_TEXT)
    ring = CohomologyRing(doc.algebra)
    res = triple_massey(
        ring.class_from_polynomial("x"),
        ring.class_from_polynomial("x"),
        ring.class_from_polynomial("y"),
    )
    assert not res.vanishes
    assert CohomologyRing(builtin_model("heisenberg")).betti() == ring.betti()


def test_table_algebra_with_cap_padding():
    doc = parse_algebra_document(TWO_POINTS_TEXT)
    a = doc.algebra
    assert a.dims == (2, 0)
    en = a.named_element("eN")
    es = a.named_element("eS")
    assert (en * en - en).is_zero()
    assert (en * es).is_zero()
    assert (a.unit() - en - es).is_zero()


def test_bundle_errors_carry_the_file_line_only():
    text = (
        "[config]\nmodel = builtin:heisenberg\ntriple = x | x | y\n"
        "bundle weight = 1\nbundle weight =\n"
    )
    bad_line = text.splitlines().index("bundle weight =") + 1
    with pytest.raises(ParseError, match=rf"^line {bad_line}: bundle lines read"):
        parse_family_document(text)
    with pytest.raises(ParseError, match=r"^bundle lines read") as info:
        parse_bundle_line("bundle weight =")
    assert info.value.line is None


def test_load_bundled_files():
    doc = load_algebra_document(os.path.join(DATA, "heisenberg.alg"))
    assert CohomologyRing(doc.algebra).betti() == (1, 2, 2, 1)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_algebra_document("cap = 4\ngen x : 1\nwhat is this\n")
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("gen x : 1\nbasis 0 : e", "mixing"),
        ("gen x : 1", "needs a cap"),
        ("cap = 2\ncap = 3\ngen x : 1", "cap given twice"),
        ("[what]\ncap = 2", "unexpected section"),
        ("cap = 2\ngen x : 1\n[bundles]\nbundle weight = 1", "line 3: unexpected section [bundles]"),
        ("[broken\ncap = 2", "malformed section header"),
        ("cap = 1\nbasis 0 : e\nbasis 0 : f", "second basis stanza"),
        ("cap = 1\nbasis 0 : e e", "repeats"),
        ("cap = 1\nbasis 0 : e\nmul e * f = e", "unknown basis name"),
        ("cap = 1\nbasis 0 : e\nmul e * e = e\nmul e * e = 0", "given twice"),
        ("cap = 1\nbasis 0 : e\nmul e * e = 2", "linear combinations"),
        ("cap = 0\nbasis 0 : e\ndiff e = e", "above cap"),
        ("cap = 2\nbasis 0 : e\nbasis 2 : f\nmul f * f = f", "above cap"),
        ("cap = 2\nbasis 0 : e\nbasis 2 : f\nmul e * e = f", "degree"),
        ("cap = -2\nbasis 0 : e\nbasis 2 : f", "line 1: cap -2 is below the top basis degree 2"),
        ("cap = 3\ngen a : 1\nd c = a", "line 3: differential given for unknown generator 'c'"),
        ("cap = 3\ngen a : 1\ngen b : 1\nd b = a", "line 4: differential of 'b' is ill-graded"),
        ("cap = 1\ngen a : 1\ngen b : 1\nd b = a*a*a", "line 4: differential of 'b' does not fit"),
    ],
)
def test_algebra_rejections(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_algebra_document(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text, code, message",
    [
        (
            "cap = 3\ngen x : 1\ngen x : 1\n",
            2,
            "line 3: duplicate generator name 'x'",
        ),
        (
            "cap = 3\ngen x : 0\n",
            2,
            "line 2: generator 'x' must have integer degree >= 1",
        ),
        (
            "cap = 3\ngen x : 1\ngen y : 2\nd y = 2*x*q\n",
            2,
            "line 4: unknown name 'q' in this algebra",
        ),
        (
            "cap = 3\ngen x : 1\ngen y : 1\nd y = x\n",
            2,
            "line 4: differential of 'y' is ill-graded: polynomial has a "
            "term of degree 1, expected degree 2",
        ),
        (
            "cap = 4\ngen a : 1\ngen b : 2\nd b = a*b\nd a = b\n",
            3,
            "line 5: d*d is nonzero on generator 'a': residue a*b",
        ),
    ],
    ids=["duplicate-gen", "gen-degree", "unknown-name-in-d", "ill-graded-d", "d-squared"],
)
def test_free_presentation_errors_name_their_row(tmp_path, capsys, text, code, message):
    # The builder's error is reported at the gen or d row it concerns,
    # with the exit code of its kind (2 unparsable, 3 parsed but invalid).
    path = tmp_path / "bad.alg"
    path.write_text(text)
    assert main(["cohomology", str(path), "--format", "structured"]) == code
    assert json.loads(capsys.readouterr().out)["payload"]["error"] == message


def test_datum_file_matches_builtin():
    datum = load_datum(os.path.join(DATA, "rotation.datum"))
    assert validate_transfer_datum(datum) == []
    ref = builtin_datum("rotation")
    assert datum.m == ref.m
    for n in range(9):
        assert datum.restrict_map.morphism.columns(n) == ref.restrict_map.morphism.columns(n)
    assert datum.push_map.top == ref.push_map.top
    for n in range(ref.push_map.top + 1):
        assert datum.push_map.columns(n) == ref.push_map.columns(n)


MINI_DATUM = """
[ambient]
cap = 3
basis 0 : e
basis 2 : f
mul e * e = e
mul e * f = f
mul f * e = f

[fixed-base]
cap = 1
basis 0 : e
mul e * e = e

[datum]
m = 1
chi = e*h
fixed-cap = 4
restrict[0] = 1
push[0] = 1
"""


def test_minimal_datum_parses():
    datum = parse_datum_document(MINI_DATUM, name="mini")
    assert datum.name == "mini"
    assert datum.push_map.top == 0
    assert datum.fixed.cap == 4


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda t: t.replace("[fixed-base]", "[fixedbase]"), "needs a"),
        (lambda t: t.replace("m = 1\n", ""), "needs m"),
        (lambda t: t.replace("chi = e*h\n", ""), "needs chi"),
        (lambda t: t.replace("fixed-cap = 4\n", ""), "needs fixed-cap"),
        (lambda t: t.replace("restrict[0] = 1", "restrict[0] = 1 2"), "must be 1x1"),
        (lambda t: t.replace("push[0] = 1", "push[0] = 1 ; 2"), "must be 1x1"),
        (lambda t: t.replace("restrict[0]", "restrict[9]"), "beyond the shared cap"),
        (lambda t: t + "push[0] = 2\n", "given twice"),
        (lambda t: t.replace("push[0] = 1", "push[0] = 1 2 ; 3"), "different lengths"),
        (lambda t: t.replace("push[0] = 1", "push[0] = x"), "not a rational"),
        (lambda t: t + "wobble = 3\n", "unrecognized datum key"),
        (lambda t: t + "[extra]\n", "unexpected section"),
        (lambda t: t.replace("m = 1\n", "m =\n"), "line 16: m must be an integer, got ''"),
        (lambda t: t.replace("m = 1\n", "m = one\n"), "line 16: m must be an integer"),
        (
            lambda t: t.replace("fixed-cap = 4", "fixed-cap ="),
            "line 18: fixed-cap must be an integer, got ''",
        ),
        (lambda t: t.replace("fixed-cap = 4", "fixed-cap = 4.5"), "line 18: fixed-cap must"),
        (
            lambda t: t.replace("push[0] = 1", "push[4] = 1"),
            "line 20: push[4] is beyond the top degree 3 of the fixed cohomology",
        ),
    ],
)
def test_datum_rejections(mangle, fragment):
    with pytest.raises(ParseError) as exc:
        parse_datum_document(mangle(MINI_DATUM))
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "key,value", [("m", "1"), ("chi", "e*h"), ("fixed-cap", "4"), ("name", "x")]
)
def test_datum_keys_are_given_once(key, value):
    with pytest.raises(ParseError) as exc:
        parse_datum_document(MINI_DATUM + f"{key} = {value}\n" * 2)
    line = 21 if key in ("m", "chi", "fixed-cap") else 22
    assert str(exc.value) == f"line {line}: {key} given twice"


def test_a_push_line_far_above_the_fixed_top_is_refused_at_once(tmp_path, capsys):
    # Refused at its line before any degree below it is laid out.
    with open(os.path.join(DATA, "rotation.datum"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "far-push.datum"
    path.write_text(text.replace("push[6] = 0 -1 ; 1 1", f"push[{10**12}] = 1"))
    started = time.perf_counter()
    code = main(["transfer", str(path), "eN", "eS", "eN", "--format", "structured"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    error = json.loads(capsys.readouterr().out)["payload"]["error"]
    assert error.endswith(f"push[{10**12}] is beyond the top degree 7 of the fixed cohomology")


def test_omitted_matrices_are_zero_filled():
    text = MINI_DATUM.replace("restrict[0] = 1\n", "")
    datum = parse_datum_document(text)
    finding_text = " ".join(validate_transfer_datum(datum))
    assert "restriction" in finding_text


def test_family_file_resolves_relative_paths():
    configs = load_family(os.path.join(DATA, "demo.family"))
    assert [c.name for c in configs] == [
        "heisenberg-h",
        "heisenberg-twisted-line",
        "rotation-poles",
    ]
    assert configs[2].datum is not None
    report = scan_families(configs)
    assert report.findings == []
    assert [r.status for r in report.rows] == ["ok", "ok", "premise-failed"]


FAMILY_TEXT = """
[config]
name = one
model = builtin:heisenberg
triple = x | x | y
chi = h
m = 1
"""


def test_family_minimal():
    configs = parse_family_document(FAMILY_TEXT)
    assert len(configs) == 1
    assert configs[0].base is not None
    assert configs[0].expect is None


def test_family_tautological_datum(monkeypatch):
    built = []
    real = transfer.tautological_datum

    def keeping(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(transfer, "tautological_datum", keeping)
    text = FAMILY_TEXT + "datum = tautological\nmin-cap = 10\n"
    configs = parse_family_document(text)
    cfg = configs[0]
    # a description: the datum is built by the row that runs it
    assert cfg.tautological and cfg.datum is None and cfg.base is not None
    assert built == []
    report = scan_families(configs)
    assert report.rows[0].verdict == "non-vanishing"
    [datum] = built
    assert datum.fixed.cap >= 10


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "at least one"),
        ("[config]\nmodel = builtin:torus", "needs a triple"),
        ("[config]\ntriple = x | y", "triple reads"),
        ("[config]\ntriple = x | x | y", "needs a model or a datum"),
        (
            "[config]\nmodel = builtin:torus\ntriple = x | x | y",
            "needs Euler data",
        ),
        (
            "[config]\nmodel = builtin:torus\ntriple = x | x | y\n"
            "chi = h\nm = 1\nbundle weight = 1",
            "not both",
        ),
        (
            "[config]\ndatum = builtin:rotation\ntriple = eN | eS | eN\nchi = h",
            "drop",
        ),
        (
            "[config]\ndatum = tautological\ntriple = x | x | y",
            "needs a model",
        ),
        ("[config]\ntriple = x | x | y\nwhimsy = 4", "unrecognized config key"),
        ("[family]\nother = 1\n[config]\ntriple = x | x | y", "unrecognized family line"),
        ("[oops]\nname = 1", "unexpected section"),
        (FAMILY_TEXT.replace("m = 1", "m ="), "line 7: m must be an integer, got ''"),
        (FAMILY_TEXT.replace("m = 1", "m = x"), "line 7: m must be an integer"),
        (FAMILY_TEXT + "min-cap =\n", "line 8: min-cap must be an integer, got ''"),
        (FAMILY_TEXT + "min-cap = ten\n", "line 8: min-cap must be an integer"),
    ],
)
def test_family_rejections(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_family_document(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "key,value",
    [
        ("name", "two"),
        ("model", "builtin:torus"),
        ("datum", "tautological"),
        ("triple", "x | x | y"),
        ("chi", "h"),
        ("m", "1"),
        ("min-cap", "10"),
        ("expect", "ok"),
    ],
)
def test_family_keys_are_given_once(key, value):
    with pytest.raises(ParseError) as exc:
        parse_family_document(FAMILY_TEXT + f"{key} = {value}\n" * 2)
    line = 9 if key in ("datum", "min-cap", "expect") else 8
    assert str(exc.value) == f"line {line}: {key} given twice"


def test_family_bundles_repeat_and_names_are_not_empty():
    text = FAMILY_TEXT.replace("chi = h\nm = 1\n", "bundle weight = 1\n" * 2)
    assert parse_family_document(text)[0].euler.m == 2
    with pytest.raises(ParseError) as exc:
        parse_family_document(FAMILY_TEXT.replace("name = one", "name ="))
    assert str(exc.value) == "line 3: a config name cannot be empty"


@pytest.mark.parametrize(
    "text,message",
    [
        (FAMILY_TEXT.replace("m = 1", "m = 0"), "line 7: m must be at least 1, got 0"),
        (FAMILY_TEXT + "min-cap = -5\n", "line 8: min-cap must be nonnegative, got -5"),
    ],
)
def test_family_values_out_of_range(text, message):
    # Parsed but invalid, as the same values are on the command line (exit 3).
    with pytest.raises(ValueError) as exc:
        parse_family_document(text)
    assert str(exc.value) == message


def test_resolve_model_spec_variants(tmp_path):
    assert resolve_model_spec("builtin:torus").cap == 3
    assert resolve_model_spec("torus").cap == 3
    path = tmp_path / "tiny.alg"
    path.write_text("cap = 2\ngen u : 1\n")
    assert resolve_model_spec(str(path)).cap == 2
    assert resolve_model_spec("tiny.alg", str(tmp_path)).cap == 2
    with pytest.raises(ParseError):
        resolve_model_spec("no-such-thing-anywhere")
    with pytest.raises(ParseError):
        resolve_model_spec("builtin:nope")


def test_tautological_from_parts_needs_euler_data():
    base = builtin_model("heisenberg")
    with pytest.raises(ParseError):
        EulerData.of()
    datum = tautological_from_parts(
        base, ("x", "x", "y"), EulerData.of(chi="h", m=1), None
    )
    assert datum.fixed.cap >= 9
