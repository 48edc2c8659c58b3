from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import masseyq.transfer as transfer
from masseyq import cli
from masseyq.cli import main

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "structured"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cohomology_heisenberg(capsys):
    code, doc = run_json(capsys, "cohomology", "builtin:heisenberg")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["betti"] == [1, 2, 2, 1]
    assert doc["payload"]["classes"]["2"] == ["[x*z]", "[y*z]"]


def test_cohomology_torus_human(capsys):
    code, out = run(capsys, "cohomology", "builtin:torus")
    assert code == 0
    assert "1" in out and "[x*y]" in out


def test_cohomology_max_degree_beyond_cap(capsys):
    code, doc = run_json(capsys, "cohomology", "builtin:torus", "--max-degree", "9")
    assert code == 4
    assert doc["status"] == "cap-too-small"
    assert doc["payload"]["required-cap"] == 10


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_cohomology_negative_max_degree_is_invalid_input(capsys, fmt):
    code = main(["cohomology", "builtin:heisenberg", "--max-degree", "-1", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 3
    if fmt == "structured":
        doc = json.loads(out)
        assert (doc["status"], doc["payload"]) == (
            "invalid-input", {"error": "--max-degree must be nonnegative"}
        )
    else:
        assert out == "cohomology: invalid-input\nerror: --max-degree must be nonnegative\n"


_NEGATIVE_CAP_ARGV = [
    ["cohomology", "builtin:heisenberg", "--cap", "-1"],
    ["massey", "builtin:heisenberg", "x", "x", "y", "--cap", "-1"],
    ["euler", "builtin:heisenberg", "--chi", "h", "--m", "1", "--cap", "-3"],
    ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1", "--cap", "-1"],
    ["theorem11", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1", "--cap", "-1"],
    ["theorem11", "eN", "eS", "eN", "--datum", "builtin:rotation", "--cap", "-1"],
]


@pytest.mark.parametrize("fmt", ["human", "structured"])
@pytest.mark.parametrize("argv", _NEGATIVE_CAP_ARGV, ids=lambda a: f"{a[0]}-{a[-1]}-{len(a)}")
def test_negative_cap_is_invalid_input_on_every_subcommand(capsys, monkeypatch, argv, fmt):
    def nothing_is_built(*args, **kwargs):
        raise AssertionError("a model or datum was resolved before the cap check")

    monkeypatch.setattr(cli, "resolve_model_spec", nothing_is_built)
    monkeypatch.setattr(cli, "resolve_datum_spec", nothing_is_built)
    code = main(argv + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 3
    if fmt == "structured":
        doc = json.loads(out)
        assert (doc["command"], doc["status"], doc["payload"]) == (
            argv[0], "invalid-input", {"error": "--cap must be nonnegative"}
        )
    else:
        assert out == f"{argv[0]}: invalid-input\nerror: --cap must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "builtin:heisenberg", "--cap", "0"],
        ["massey", "builtin:heisenberg", "x", "x", "y", "--cap", "0"],
        ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1", "--cap", "0"],
    ],
    ids=lambda a: a[0],
)
def test_nonnegative_cap_that_is_too_small_keeps_exit_4(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 4
    assert doc["status"] == "cap-too-small"


def test_cohomology_recap_free_model(capsys):
    code, doc = run_json(
        capsys, "cohomology", "builtin:heisenberg", "--cap", "6", "--max-degree", "5"
    )
    assert code == 0
    assert doc["payload"]["betti"] == [1, 2, 2, 1, 0, 0]


def test_cohomology_recap_table_model_rejected(capsys):
    code, doc = run_json(capsys, "cohomology", "builtin:two-points", "--cap", "5")
    assert code == 3
    assert "free" in doc["payload"]["error"]


def test_cohomology_file_model(capsys):
    code, doc = run_json(
        capsys, "cohomology", os.path.join(DATA, "heisenberg.alg")
    )
    assert code == 0
    assert doc["payload"]["betti"] == [1, 2, 2, 1]


def test_cohomology_parse_error_has_line(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("cap = 3\ngen x : 1\nnonsense\n")
    code, doc = run_json(capsys, "cohomology", str(bad))
    assert code == 2
    assert "line 3" in doc["payload"]["error"]


def _unit_rows(*names):
    rows = "".join(f"mul e * {b} = {b}\nmul {b} * e = {b}\n" for b in names)
    return "mul e * e = e\n" + rows


# (a*a)*b = 0 but a*(a*b) = a*c = w
NON_ASSOCIATIVE_ALG = (
    "basis 0 : e\nbasis 2 : a b\nbasis 4 : c\nbasis 6 : w\n"
    + _unit_rows("a", "b", "c", "w")
    + "mul a * b = c\nmul b * a = c\nmul a * c = w\nmul c * a = w\n"
)
# d(p) = q and d(q) = r, so d*d(p) = r
NONZERO_D_SQUARED_ALG = (
    "basis 0 : e\nbasis 1 : p\nbasis 2 : q\nbasis 3 : r\n"
    + _unit_rows("p", "q", "r")
    + "diff p = q\ndiff q = r\n"
)
# d(a) = b and d(b) = a*b, so d*d(a) = a*b
FREE_NONZERO_D_SQUARED_ALG = "cap = 4\ngen a : 1\ngen b : 2\nd a = b\nd b = a*b\n"


@pytest.mark.parametrize(
    "text,fragment",
    [
        (NON_ASSOCIATIVE_ALG, "line 1: associativity fails on ('a', 'a', 'b')"),
        (NONZERO_D_SQUARED_ALG, "line 1: d*d != 0 on basis vector 'p' (degree 1)"),
        # A free presentation names the d row of the generator.
        (FREE_NONZERO_D_SQUARED_ALG, "line 4: d*d is nonzero on generator 'a': residue a*b"),
    ],
    ids=["non-associative", "nonzero-d-squared", "free-nonzero-d-squared"],
)
def test_corrupted_table_file_is_invalid_input(capsys, tmp_path, text, fragment):
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    code, doc = run_json(capsys, "cohomology", str(bad))
    assert code == 3
    assert doc["status"] == "invalid-input"
    assert doc["payload"]["error"] == fragment


def test_massey_nonvanishing(capsys):
    code, doc = run_json(capsys, "massey", "builtin:heisenberg", "x", "x", "y")
    assert code == 0
    assert doc["payload"]["representative"] == "[x*z]"
    assert doc["payload"]["indeterminacy-dimension"] == 0
    assert doc["payload"]["verdict"] == "non-vanishing"


def test_massey_vanishing_exit_10(capsys):
    code, doc = run_json(capsys, "massey", "builtin:torus", "x", "x", "x")
    assert code == 10
    assert doc["payload"]["vanishes"] is True
    assert doc["payload"]["in-ideal"] is True


def test_massey_undefined_exit_11_reports_obstruction(capsys):
    code, doc = run_json(capsys, "massey", "builtin:torus", "x", "x", "y")
    assert code == 11
    assert doc["payload"]["defined"] is False
    assert doc["payload"]["right-product"] == "[x*y]"


def test_massey_non_cocycle_input_is_undefined(capsys):
    code, doc = run_json(capsys, "massey", "builtin:heisenberg", "x", "z", "y")
    assert code == 11
    assert "not a cocycle" in doc["payload"]["obstruction"]


def test_massey_zero_denominator_is_a_parse_error(capsys):
    code, doc = run_json(capsys, "massey", "builtin:heisenberg", "1/0*x", "x", "y")
    assert code == 2
    assert doc["payload"]["error"] == "zero denominator in '1/0' at column 1"


def test_massey_degree_zero_rejected(capsys):
    code, doc = run_json(capsys, "massey", "builtin:two-points", "eN", "eS", "eN")
    assert code == 3
    assert doc["status"] == "invalid-input"


def test_euler_from_bundles(capsys):
    code, doc = run_json(
        capsys, "euler", "builtin:heisenberg",
        "--bundle", "c1 = x*z weight = 2", "--bundle", "weight = 1",
    )
    assert code == 0
    assert doc["payload"]["weights"] == [2, 1]
    assert doc["payload"]["degree"] == 4
    assert doc["payload"]["top-coefficient"] == "[2]"


def test_euler_from_polynomial(capsys):
    code, doc = run_json(
        capsys, "euler", "builtin:torus", "--chi", "x*y + h", "--m", "1"
    )
    assert code == 0
    assert doc["payload"]["h-components"] == {"0": "[x*y]", "1": "[1]"}


def test_euler_zero_weight_rejected(capsys):
    code, doc = run_json(
        capsys, "euler", "builtin:torus", "--bundle", "weight = 0"
    )
    assert code == 3


def test_euler_requires_data(capsys):
    code, doc = run_json(capsys, "euler", "builtin:torus")
    assert code == 2
    code, doc = run_json(
        capsys, "euler", "builtin:torus",
        "--bundle", "weight = 1", "--chi", "h", "--m", "1",
    )
    assert code == 2


def test_command_line_bundle_error_has_no_line_prefix(capsys):
    code, doc = run_json(capsys, "euler", "builtin:heisenberg", "--bundle", "weight=")
    assert code == 2
    assert doc["payload"]["error"].startswith("bundle lines read `bundle c1 =")
    code, out = run(capsys, "euler", "builtin:heisenberg", "--bundle", "weight=")
    assert code == 2
    assert "error: bundle lines read" in out
    assert "line " not in out


@pytest.mark.parametrize("fmt", ["structured", "human"])
def test_consistency_failure_gives_an_internal_report(capsys, corrupt_certificate, fmt):
    # A wrong solution from the member's solve fails its cup check; the
    # product <x, x, x> over the torus vanishes, so its class is a member.
    corrupt_certificate("solve")
    code = main(["massey", "builtin:torus", "x", "x", "x", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    if fmt == "structured":
        doc = json.loads(captured.out)
        assert (doc["command"], doc["status"], doc["exit_code"]) == ("massey", "internal", 1)
        assert doc["payload"]["error"].startswith("ideal membership in degree 2: solve ")
        assert "\n" not in doc["payload"]["error"]
    else:
        lines = captured.out.splitlines()
        assert lines[0] == "massey: internal"
        assert lines[1].startswith("error: ideal membership in degree 2: solve ")
        assert "cup" in lines[1]


def test_corrupted_functional_gives_an_internal_report(capsys, corrupt_certificate):
    corrupt_certificate("functional")
    code, doc = run_json(capsys, "massey", "builtin:heisenberg", "x", "x", "y")
    assert code == 1
    assert (doc["status"], doc["exit_code"]) == ("internal", 1)
    error = doc["payload"]["error"]
    assert error.startswith("ideal membership in degree 2: the functional read off ")
    assert "echelon form" in error and "\n" not in error


def test_lemma32_full_witness_chain(capsys):
    code, doc = run_json(
        capsys, "lemma32", "builtin:heisenberg", "x", "x", "y",
        "--chi", "h", "--m", "1", "--cap", "12",
    )
    assert code == 0
    payload = doc["payload"]
    assert payload["verdict"] == "non-vanishing"
    assert payload["extension-cap"] == 12
    assert payload["machinery-fired"] is True
    assert payload["witness"] == "[x*z*h*h*h]"
    assert payload["witness-h-coefficients"] == {"3": "[x*z]"}
    assert payload["scaled-product"]["y-witness"] == "-z*h*h"
    assert [s["holds"] for s in payload["scaling-chain"]] == [True, True, True]


def test_lemma32_human_contains_witnesses(capsys):
    code, out = run(
        capsys, "lemma32", "builtin:heisenberg", "x", "x", "y",
        "--chi", "h", "--m", "1",
    )
    assert code == 0
    assert "x cochain:" in out
    assert "y cochain:" in out
    assert "chi^3 x = [x*z*h*h*h]" in out
    assert "h^3 : [x*z]" in out


def test_lemma32_cap_gate(capsys):
    code, doc = run_json(
        capsys, "lemma32", "builtin:heisenberg", "x", "x", "y",
        "--chi", "h", "--m", "1", "--cap", "5",
    )
    assert code == 4
    assert doc["status"] == "cap-too-small"
    assert doc["payload"]["required-cap"] == 9
    assert doc["payload"]["given-cap"] == 5


def test_lemma32_premise_failure(capsys):
    code, doc = run_json(
        capsys, "lemma32", "builtin:torus", "x", "x", "x",
        "--chi", "h", "--m", "1",
    )
    assert code == 12
    assert doc["status"] == "premise-failed"


def test_transfer_rotation_inconclusive(capsys):
    code, doc = run_json(capsys, "transfer", "builtin:rotation", "eN", "eS", "eN")
    assert code == 12
    assert doc["payload"]["verdict"] == "inconclusive"
    assert doc["payload"]["containment-holds"] is True


@pytest.mark.parametrize(
    "argv, code",
    [
        (["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1",
          "--cap", "12"], 0),
        (["theorem11", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1"], 0),
        (["scan", "builtin:default"], 0),
        (["transfer", os.path.join(DATA, "rotation.datum"), "eN", "eS", "eN"], 12),
        (["theorem11", "eN", "eS", "eN", "--datum", "builtin:rotation"], 12),
    ],
    ids=["lemma32", "theorem11", "scan", "transfer-rotation-file", "theorem11-rotation"],
)
def test_no_dense_matrix_on_the_request_path(capsys, monkeypatch, argv, code):
    # Every map on cohomology is held as sparse class columns, and matrix
    # data from files and builtins is read straight into such columns: no
    # request builds a dense Matrix.
    from masseyq.linalg import Matrix

    built = []
    init, trusted = Matrix.__init__, Matrix._trusted.__func__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args, **kwargs):
        built.append(cls)
        return trusted(cls, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "_trusted", classmethod(counting_trusted))
    assert cli.main(argv) == code
    capsys.readouterr()
    assert built == []


def _count_euler_work(monkeypatch):
    """Wrap Euler-class construction, the zero-divisor check and polynomial
    evaluation; returns the lists the wrappers fill, in that order."""
    import masseyq.transfer as transfer
    from masseyq.cdga import CochainAlgebra

    built, checks, evaluated = [], [], []
    init = transfer.EulerClass.__init__
    verify = transfer.verify_not_zero_divisor
    from_polynomial = CochainAlgebra.from_polynomial

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_verify(chi):
        checks.append(chi)
        return verify(chi)

    def counting_from_polynomial(self, poly, expected_degree=None):
        evaluated.append((self, poly, expected_degree))
        return from_polynomial(self, poly, expected_degree)

    monkeypatch.setattr(transfer.EulerClass, "__init__", counting_init)
    monkeypatch.setattr(transfer, "verify_not_zero_divisor", counting_verify)
    monkeypatch.setattr(CochainAlgebra, "from_polynomial", counting_from_polynomial)
    return built, checks, evaluated


@pytest.mark.parametrize(
    "euler",
    [["--chi", "h", "--m", "1"], ["--bundle", "weight = 2"]],
    ids=["chi", "bundle"],
)
def test_tautological_theorem11_builds_its_euler_class_once(capsys, monkeypatch, euler):
    # The datum's class serves the Euler stage (through the request's
    # setup table), the pushforward and the Gysin stage, and its
    # zero-divisor verdict serves both the datum findings and the Euler
    # stage.
    built, checks, evaluated = _count_euler_work(monkeypatch)
    assert main(["theorem11", "builtin:heisenberg", "x", "x", "y", *euler]) == 0
    capsys.readouterr()
    assert len(built) == 1
    assert len(checks) == 1
    chi_like = [
        poly for algebra, poly, degree in evaluated
        if algebra.tensor_info is not None and degree == 2
    ]
    assert len(chi_like) <= 1


@pytest.mark.parametrize(
    "argv, most",
    [
        (["transfer", "builtin:rotation", "eN", "eS", "eN"], 1),
        # the Euler stage's setup (cap 6) is not the datum's (fixed cap 8)
        (["theorem11", "eN", "eS", "eN", "--datum", "builtin:rotation"], 2),
    ],
    ids=["transfer", "theorem11"],
)
def test_the_rotation_chi_polynomial_is_evaluated_once_per_setup(
    capsys, monkeypatch, argv, most
):
    _, _, evaluated = _count_euler_work(monkeypatch)
    assert main(argv) == 12
    capsys.readouterr()
    assert len([1 for _, poly, _ in evaluated if poly == "eN*h - eS*h"]) <= most


def test_transfer_request_validates_the_rotation_restriction_once(capsys, monkeypatch):
    import masseyq.cdga as cdga
    import masseyq.models as models
    import masseyq.transfer as transfer

    original = cdga.validate_morphism
    calls = []

    def counting(f):
        calls.append(f)
        return original(f)

    for module in (cdga, models, transfer):
        monkeypatch.setattr(module, "validate_morphism", counting, raising=False)
    code, doc = run_json(capsys, "transfer", "builtin:rotation", "eN", "eS", "eN")
    assert code == 12
    assert len(calls) == 1


def test_transfer_datum_file_path(capsys):
    code, doc = run_json(
        capsys, "transfer", os.path.join(DATA, "rotation.datum"), "eN", "eS", "eN"
    )
    assert code == 12


def test_transfer_broken_datum_rejected(capsys):
    code, doc = run_json(
        capsys, "transfer", "builtin:rotation-broken-push", "eN", "eS", "eN"
    )
    assert code == 3
    assert any("projection formula" in f for f in doc["payload"]["findings"])


def test_a_push_kernel_above_the_fixed_top_is_a_finding(capsys, tmp_path):
    # push[6] = 0 kills H^6 of the fixed model; chi * x lies in degree 8,
    # above the fixed top 7, so no cup decides it and the datum is invalid
    datum = os.path.join(GOLDEN, "rotation-push-6-singular.datum")
    finding = "pushforward has a kernel in degree 6, where chi * x lies above"
    code, doc = run_json(capsys, "transfer", datum, "eN", "eS", "eN")
    assert code == 3
    assert doc["payload"]["findings"][0].startswith(finding)
    code, doc = run_json(capsys, "theorem11", "eN", "eS", "eN", "--datum", datum)
    assert code == 3
    assert doc["payload"]["findings"][0].startswith(finding)
    family = tmp_path / "singular.family"
    family.write_text(f"[config]\nname = singular\ndatum = {datum}\ntriple = eN | eS | eN\n")
    code, doc = run_json(capsys, "scan", str(family))
    assert code == 0
    row = doc["payload"]["rows"][0]
    assert row["status"] == "invalid-datum"
    assert row["note"].startswith(finding)


def test_transfer_undefined_triple(capsys):
    code, doc = run_json(capsys, "transfer", "builtin:rotation", "eN", "eN", "eN")
    assert code == 11


def test_theorem11_heisenberg_audit_trail(capsys):
    code, doc = run_json(
        capsys, "theorem11", "builtin:heisenberg", "x", "x", "y",
        "--chi", "h", "--m", "1",
    )
    assert code == 0
    payload = doc["payload"]
    assert payload["verdict"] == "non-vanishing"
    assert payload["pipeline-status"] == "ok"
    assert payload["euler"]["machinery-fired"] is True
    assert payload["gysin"]["verdict"] == "non-vanishing"
    assert payload["gysin"]["containment-holds"] is True


def test_tautological_datum_takes_a_bundle_without_c1(capsys, tmp_path):
    # The c1 part of a bundle may be omitted; the factor is then weight * h.
    # The bundle form reports its weights, as lemma32 does.
    code, bundled = run_json(
        capsys, "theorem11", "builtin:heisenberg", "x", "x", "y",
        "--bundle", "weight = 1",
    )
    assert code == 0
    code, direct = run_json(
        capsys, "theorem11", "builtin:heisenberg", "x", "x", "y",
        "--chi", "h", "--m", "1",
    )
    assert bundled["payload"]["euler"].pop("weights") == [1]
    assert bundled == direct
    family = tmp_path / "bare.family"
    family.write_text(
        "[config]\n"
        "name = bare-bundle\n"
        "model = builtin:heisenberg\n"
        "datum = tautological\n"
        "triple = x | x | y\n"
        "bundle weight = 1\n"
        "expect = non-vanishing\n"
    )
    code, doc = run_json(capsys, "scan", str(family))
    assert code == 0
    assert doc["payload"]["rows"] == [
        {"name": "bare-bundle", "note": "", "status": "ok", "verdict": "non-vanishing"}
    ]


def test_theorem11_torus_premise_failure(capsys):
    code, doc = run_json(
        capsys, "theorem11", "builtin:torus", "x", "x", "y",
        "--chi", "h", "--m", "1",
    )
    assert code == 12
    assert doc["status"] == "premise-failed"
    assert "premise-error" in doc["payload"]


def test_theorem11_with_stored_datum(capsys):
    code, doc = run_json(
        capsys, "theorem11", "eN", "eS", "eN", "--datum", "builtin:rotation"
    )
    assert code == 12
    assert doc["payload"]["verdict"] == "inconclusive"


def test_theorem11_arg_count_errors(capsys):
    code, doc = run_json(capsys, "theorem11", "x", "y")
    assert code == 2
    code, doc = run_json(
        capsys, "theorem11", "builtin:heisenberg", "x", "x", "y",
        "--datum", "builtin:rotation",
    )
    assert code == 2
    code, doc = run_json(
        capsys, "theorem11", "eN", "eS", "eN",
        "--datum", "builtin:rotation", "--chi", "h",
    )
    assert code == 2


def test_scan_default_family_clean(capsys):
    code, doc = run_json(capsys, "scan", "builtin:default")
    assert code == 0
    payload = doc["payload"]
    assert payload["findings"] == []
    assert payload["total"] == 8
    assert payload["completed"] == 8
    assert payload["exhausted"] is False


def test_scan_corrupted_demo_flags_datum_not_counterexample(capsys):
    code, doc = run_json(capsys, "scan", "builtin:corrupted-demo")
    assert code == 0
    row = doc["payload"]["rows"][0]
    assert row["status"] == "invalid-datum"
    assert "projection formula" in row["note"]
    assert doc["payload"]["findings"] == []


def test_scan_family_file(capsys):
    code, doc = run_json(capsys, "scan", os.path.join(DATA, "demo.family"))
    assert code == 0
    assert doc["payload"]["total"] == 3


def test_scan_budget(capsys):
    code, doc = run_json(capsys, "scan", "builtin:default", "--budget", "2")
    assert code == 0
    assert doc["payload"]["completed"] == 2
    assert doc["payload"]["exhausted"] is True
    code, doc = run_json(capsys, "scan", "builtin:default", "--budget", "-1")
    assert code == 3


def test_scan_budget_bounds_the_tautological_datum_work(capsys, monkeypatch):
    # the second config is a tautological datum over the size limit
    calls = []
    real = transfer.tautological_datum
    monkeypatch.setattr(
        transfer,
        "tautological_datum",
        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
    )
    family = os.path.join(GOLDEN, "tautological-over-budget.family")
    code, doc = run_json(capsys, "scan", family, "--budget", "1")
    assert code == 0
    assert doc["payload"]["completed"] == 1
    assert doc["payload"]["findings"] == []
    assert calls == []


def test_scan_expectation_mismatch_exits_13(capsys, tmp_path):
    family = tmp_path / "wrong.family"
    family.write_text(
        "[config]\n"
        "name = wrong-expect\n"
        "model = builtin:heisenberg\n"
        "triple = x | x | y\n"
        "chi = h\n"
        "m = 1\n"
        "expect = vanishes\n"
    )
    code, doc = run_json(capsys, "scan", str(family))
    assert code == 13
    assert len(doc["payload"]["findings"]) == 1
    assert "wrong-expect" in doc["payload"]["findings"][0]


@pytest.mark.parametrize("key", ["model", "datum"])
def test_scan_empty_spec_is_a_parse_error(capsys, tmp_path, key):
    family = tmp_path / "empty.family"
    family.write_text(
        "[config]\n"
        "triple = x | x | y\n"
        f"{key} =\n"
        "chi = h\n"
        "m = 1\n"
    )
    code, doc = run_json(capsys, "scan", str(family))
    assert code == 2
    assert doc["payload"]["error"] == (
        f"line 3: {key} needs a builtin name or a file path"
    )


def test_empty_model_spec_on_the_command_line(capsys):
    code, doc = run_json(capsys, "cohomology", "")
    assert code == 2
    assert doc["payload"]["error"] == "empty model spec"


def test_empty_family_spec_on_the_command_line(capsys):
    code, doc = run_json(capsys, "scan", "")
    assert code == 2
    assert doc["payload"]["error"] == "empty family spec"


@pytest.mark.parametrize(
    "argv, error",
    [
        (("cohomology", "data"), "model spec 'data' is a directory"),
        (("transfer", "data", "eN", "eS", "eN"), "datum spec 'data' is a directory"),
        (("scan", "data"), "family spec 'data' is a directory"),
    ],
    ids=["model", "datum", "family"],
)
def test_directory_spec_is_a_parse_error(capsys, tmp_path, monkeypatch, argv, error):
    (tmp_path / "data").mkdir()
    monkeypatch.chdir(tmp_path)
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["payload"]["error"] == error


@pytest.mark.parametrize(
    "line, error",
    [
        ("model = .\nchi = h\nm = 1", "model spec '.' is a directory"),
        ("datum = data", "datum spec 'data' is a directory"),
    ],
    ids=["model", "datum"],
)
def test_scan_directory_spec_is_a_parse_error(capsys, tmp_path, line, error):
    (tmp_path / "data").mkdir()
    family = tmp_path / "dir.family"
    family.write_text(f"[config]\ntriple = x | x | y\n{line}\n")
    code, doc = run_json(capsys, "scan", str(family))
    assert code == 2
    assert doc["payload"]["error"] == error


def test_scan_unknown_family(capsys):
    code, doc = run_json(capsys, "scan", "no-such-family")
    assert code == 2


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ("cohomology", "builtin:nonexistent"),
            "unknown model 'nonexistent'; known models: even-sphere, heisenberg, "
            "point, rotation-ambient, sphere-cohomology, torus, "
            "truncated-polynomial, two-points",
        ),
        (
            ("transfer", "builtin:nonexistent", "eN", "eS", "eN"),
            "unknown datum 'nonexistent'; known data: rotation, rotation-broken-push",
        ),
        (
            ("scan", "builtin:nonexistent"),
            "unknown family 'nonexistent'; known families: corrupted-demo, default",
        ),
        (
            ("scan", "builtin:"),
            "unknown family ''; known families: corrupted-demo, default",
        ),
    ],
    ids=["model", "datum", "family", "family-empty-name"],
)
def test_unknown_builtin_spec_is_a_parse_error(capsys, argv, error):
    # Model, datum and family specs share one resolver, so an unknown
    # builtin name exits 2 with one line for each kind alike.
    code, doc = run_json(capsys, *argv)
    assert (code, doc["payload"]["error"]) == (2, error)
    code, out = run(capsys, *argv)
    assert (code, out) == (2, f"{argv[0]}: invalid-input\nerror: {error}\n")


def test_structured_output_is_deterministic(capsys):
    _, first = run(
        capsys, "theorem11", "builtin:heisenberg", "x", "x", "y",
        "--chi", "h", "--m", "1", "--format", "structured",
    )
    _, second = run(
        capsys, "theorem11", "builtin:heisenberg", "x", "x", "y",
        "--chi", "h", "--m", "1", "--format", "structured",
    )
    assert first == second


def test_structured_output_round_trips(capsys):
    _, out = run(capsys, "scan", "builtin:default", "--format", "structured")
    doc = json.loads(out)
    assert doc["command"] == "scan"
    assert doc["exit_code"] == 0


def test_bad_arguments_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


_PARSER_CASES = [
    ["cohomology", "builtin:heisenberg"],
    ["massey", "builtin:heisenberg", "x", "x", "y", "--format", "structured"],
    ["euler", "builtin:torus", "--chi", "x*y + h", "--m", "1"],
    ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1"],
    ["transfer", "builtin:rotation", "eN", "eS", "eN", "--format", "structured"],
    ["theorem11", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1"],
    ["scan", "builtin:default", "--budget", "2"],
    ["massey", "builtin:heisenberg", "x", "x"],
    ["cohomology", "builtin:torus", "--format", "xml"],
    ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "x"],
    [],
    ["scan", "--help"],
]


def _outcome(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(capsys):
    fresh = []
    for argv in _PARSER_CASES:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert {code for code, _, _ in fresh} == {0, 2, 12}

    cli._build_parser.cache_clear()
    order = list(range(len(_PARSER_CASES)))
    for i in order + order[::-1]:
        assert _outcome(capsys, _PARSER_CASES[i]) == fresh[i], _PARSER_CASES[i]
    assert cli._build_parser.cache_info().misses == 1


def test_python_dash_m_runs_the_cli():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "masseyq", "cohomology", "builtin:heisenberg",
         "--format", "structured"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["payload"]["betti"] == [1, 2, 2, 1]
