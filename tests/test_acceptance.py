"""The acceptance gate: ten checks, one printed verdict line each.

Each test covers one criterion and prints a [PASS]/[FAIL] line directly
to the terminal (bypassing capture) so a full run reads as a checklist.
Massey results computed along the way are pooled so the final agreement
check sees every product from the whole run.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

from masseyq.cdga import build_free_cdga, validate_algebra, validate_morphism
from masseyq.cli import main
from masseyq.cohomology import (
    CohomologyRing,
    InducedMap,
    check_scaling_law,
    triple_massey,
)
from masseyq.models import BUILTIN_MODELS, builtin_datum, builtin_model
from masseyq.transfer import (
    EulerData,
    SetupTable,
    WeightedLineBundle,
    build_setup,
    check_euler_scaled_massey,
    tautological_datum,
    validate_transfer_datum,
)

from oracles import (
    betti_oracle,
    block_map_mismatches,
    heisenberg_massey_oracle,
    identity_morphism,
    random_free_cdga,
    tensor_embedding,
    tensor_retraction,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# every MasseyResult produced in this module, for the final agreement check
RESULTS: list = []


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _record(result) -> None:
    RESULTS.append(result)


def _defined_basis_triples(ring, max_degree=3):
    """All defined triple products of basis classes in small degrees."""
    top = ring.top
    found = []
    degrees = [n for n in range(1, min(max_degree, top) + 1) if ring.class_dim(n)]
    for p in degrees:
        for q in degrees:
            for r in degrees:
                if p + q > top or q + r > top or p + q + r - 1 > top:
                    continue
                for a in ring.basis_classes(p):
                    for b in ring.basis_classes(q):
                        for c in ring.basis_classes(r):
                            res = triple_massey(a, b, c)
                            _record(res)
                            if res.defined:
                                found.append((a, b, c, res))
    return found


def test_criterion_01_heisenberg_product(capsys):
    started = time.perf_counter()
    ring = CohomologyRing(builtin_model("heisenberg"))
    betti = ring.betti()
    res = triple_massey(
        ring.class_from_polynomial("x"),
        ring.class_from_polynomial("x"),
        ring.class_from_polynomial("y"),
    )
    _record(res)
    expected = ring.class_from_polynomial("x*z")
    oracle = heisenberg_massey_oracle()
    elapsed = time.perf_counter() - started

    canonical_class = (Fraction(0), oracle["canonical"][1], oracle["canonical"][2])
    ok = (
        betti == (1, 2, 2, 1)
        and betti == betti_oracle(builtin_model("heisenberg"))
        and res.defined
        and res.indeterminacy.dim == 0
        and res.rep_class == expected
        and not res.rep_class.is_zero()
        and res.vanishes is False
        and res.in_ideal is False
        and oracle["classes"] == {canonical_class}
        and canonical_class[1] != 0
        and elapsed < 1.0
    )
    _verdict(
        capsys, 1,
        ok,
        "Heisenberg Betti (1,2,2,1), product = [x*z], zero indeterminacy, "
        f"non-vanishing both ways, oracle agrees ({elapsed:.3f}s)",
    )


def test_criterion_02_formal_controls(capsys):
    started = time.perf_counter()
    controls = {
        "torus": builtin_model("torus"),
        "two-points": builtin_model("two-points"),
        "sphere-cohomology": builtin_model("sphere-cohomology"),
        "truncated-polynomial": builtin_model("truncated-polynomial"),
        "point": builtin_model("point"),
        "rotation-ambient": builtin_model("rotation-ambient"),
    }
    defined_count = 0
    all_vanish = True
    witnesses_zero = True
    for model in controls.values():
        ring = CohomologyRing(model)
        for _, _, _, res in _defined_basis_triples(ring):
            defined_count += 1
            if not (res.vanishes and res.in_ideal):
                all_vanish = False
            if not (
                res.representative.is_zero()
                and res.x_witness.is_zero()
                and res.y_witness.is_zero()
            ):
                witnesses_zero = False
    elapsed = time.perf_counter() - started
    ok = defined_count >= 2 and all_vanish and witnesses_zero and elapsed < 1.0
    _verdict(
        capsys, 2,
        ok,
        f"every defined product on zero-differential models vanishes "
        f"({defined_count} products, canonical witnesses zero, {elapsed:.3f}s)",
    )


def test_criterion_03_scaled_products_at_cap_12(capsys):
    base = builtin_model("heisenberg")
    configs = [
        ("weight 1", [WeightedLineBundle(None, 1)], 12),
        ("c1=x*z weight 2", [WeightedLineBundle("x*z", 2)], 12),
        ("weights (1,1)", [WeightedLineBundle(None, 1), WeightedLineBundle(None, 1)], 15),
    ]
    ok = True
    notes = []
    for label, bundles, expected_cap in configs:
        started = time.perf_counter()
        rep = check_euler_scaled_massey(
            base, "x", "x", "y", EulerData.of(bundles), min_cap=12
        )
        elapsed = time.perf_counter() - started
        _record(rep.base_result)
        _record(rep.embedded_result)
        _record(rep.scaled_result)
        fired_iff_outside_ideal = rep.machinery.member == rep.base_result.in_ideal
        good = (
            rep.verdict == "non-vanishing"
            and rep.ring.algebra.cap == expected_cap
            and rep.ring.algebra.cap >= 12
            and rep.scaled_result.coset.contains(rep.witness.terms)
            and fired_iff_outside_ideal
            and not rep.machinery.member
            and elapsed < 10.0
        )
        ok = ok and good
        notes.append(f"{label} {elapsed:.2f}s")
    _verdict(
        capsys, 3,
        ok,
        "scaled products non-vanishing at cap >= 12, machinery fires "
        f"iff the representative avoids the outer ideal ({'; '.join(notes)})",
    )


def test_criterion_04_scaling_containments(capsys):
    checked_h = 0
    checked_unit = 0
    vacuous = []
    ok = True
    for name in sorted(BUILTIN_MODELS):
        model = builtin_model(name)
        ring = build_setup(model, cap=model.cap + 6)
        triples = _defined_basis_triples(ring)
        if not triples:
            vacuous.append(name)
            continue
        unit = ring.unit_class()
        h_cls = ring.class_from_polynomial("h")
        for a, b, c, res in triples:
            for slot in (1, 2, 3):
                holds, outer = check_scaling_law(unit, res, slot)
                _record(res)
                _record(outer)
                checked_unit += 1
                ok = ok and holds
                degrees = [a.degree, b.degree, c.degree]
                degrees[slot - 1] += 2
                if sum(degrees) - 1 > ring.top or max(
                    degrees[0] + degrees[1], degrees[1] + degrees[2]
                ) > ring.top:
                    continue
                holds, outer = check_scaling_law(h_cls, res, slot)
                _record(res)
                _record(outer)
                checked_h += 1
                ok = ok and holds
    ok = ok and checked_h > 0 and checked_unit > 0
    _verdict(
        capsys, 4,
        ok,
        f"scaling containments hold: {checked_h} h-scalings and "
        f"{checked_unit} unit scalings across extended models "
        f"(no defined products on: {', '.join(vacuous)})",
    )


def test_criterion_05_functoriality(capsys):
    checked_embed = 0
    checked_identity = 0
    vacuous = []
    ok = True
    for name in sorted(BUILTIN_MODELS):
        model = builtin_model(name)
        ring = build_setup(model, cap=model.cap + 4)
        base_ring = ring.block_ring
        embed = InducedMap.leading_block(base_ring, ring)
        triples = _defined_basis_triples(base_ring)
        if not triples:
            vacuous.append(name)
            continue
        ident = InducedMap(identity_morphism(base_ring.algebra), base_ring, base_ring)
        for a, b, c, _ in triples:
            src = triple_massey(a, b, c)
            _record(src)
            for fmap in (ident, embed):
                dst = triple_massey(fmap.apply(a), fmap.apply(b), fmap.apply(c))
                _record(dst)
                ok = ok and dst.defined and fmap.maps_into(src, dst)
            checked_identity += 1
            checked_embed += 1
    ok = ok and checked_embed > 0 and checked_identity > 0
    _verdict(
        capsys, 5,
        ok,
        f"functoriality containments hold for the polynomial-extension "
        f"inclusion ({checked_embed}) and the identity ({checked_identity}) "
        f"(no defined products on: {', '.join(vacuous)})",
    )


def test_criterion_06_witness_perturbations(capsys):
    algebra = builtin_model("heisenberg")
    ring = CohomologyRing(algebra)
    a = ring.class_from_polynomial("x")
    b = ring.class_from_polynomial("x")
    c = ring.class_from_polynomial("y")
    res = triple_massey(a, b, c)
    _record(res)
    rng = random.Random(20260818)
    cocycles = ["x", "y", "x - 3*y"]
    a_lift = ring.lift(res.inputs[0])
    c_lift = ring.lift(res.inputs[2])
    trials = 0
    ok = res.defined and res.indeterminacy.dim == 0
    for _ in range(24):
        scale_a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        scale_y = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        da = algebra.from_polynomial(cocycles[rng.randrange(3)]).scale(scale_a)
        dy = algebra.from_polynomial(cocycles[rng.randrange(3)]).scale(scale_y)
        x_new = res.x_witness + da
        y_new = res.y_witness + dy
        rep = a_lift.bar() * y_new + x_new.bar() * c_lift
        if not rep.d().is_zero():
            ok = False
            break
        moved = ring.project(rep)
        trials += 1
        if not res.coset.contains(moved.terms):
            ok = False
            break
        if moved != res.rep_class:
            ok = False
            break
    ok = ok and trials >= 20
    _verdict(
        capsys, 6,
        ok,
        f"{trials} perturbed witness choices all land in the coset; with "
        "zero indeterminacy the class never moves",
    )


def test_criterion_07_transfer_datum_validation(capsys):
    ok = True
    names = []
    for name in sorted(BUILTIN_MODELS):
        model = builtin_model(name)
        datum = tautological_datum(
            model, euler=EulerData.of(chi="h", m=1), cap=max(8, model.cap)
        )
        findings = validate_transfer_datum(datum)
        ok = ok and findings == []
        names.append(name)
    broken = validate_transfer_datum(builtin_datum("rotation-broken-push"))
    witnessed = any("projection formula" in f and "degree 2" in f for f in broken)
    ok = ok and broken != [] and witnessed
    rotation_findings = validate_transfer_datum(builtin_datum("rotation"))
    ok = ok and rotation_findings == []
    docs = os.path.join(REPO_ROOT, "docs", "rotation_datum.md")
    ok = ok and os.path.exists(docs)
    _verdict(
        capsys, 7,
        ok,
        f"tautological datum valid on {len(names)} models; corrupted "
        "projection formula rejected with a degree witness; rotation datum "
        "valid with its construction derivation in docs/",
    )


def test_criterion_08_pipeline_cli(capsys):
    code_good = main(
        ["theorem11", "builtin:heisenberg", "x", "x", "y", "--chi", "h",
         "--m", "1", "--format", "structured"]
    )
    out_good = capsys.readouterr().out
    code_torus = main(
        ["theorem11", "builtin:torus", "x", "x", "y", "--chi", "h",
         "--m", "1", "--format", "structured"]
    )
    out_torus = capsys.readouterr().out
    code_scan = main(["scan", "builtin:default", "--format", "structured"])
    out_scan = capsys.readouterr().out
    code_corrupt = main(["scan", "builtin:corrupted-demo", "--format", "structured"])
    out_corrupt = capsys.readouterr().out

    import json

    good = json.loads(out_good)
    torus_doc = json.loads(out_torus)
    scan_doc = json.loads(out_scan)
    corrupt_doc = json.loads(out_corrupt)
    audit = good["payload"]
    ok = (
        code_good == 0
        and audit["verdict"] == "non-vanishing"
        and audit["euler"]["machinery-fired"] is True
        and audit["euler"]["witness"] == "[x*z*h*h*h]"
        and audit["euler"]["witness-h-coefficients"] == {"3": "[x*z]"}
        and audit["gysin"]["verdict"] == "non-vanishing"
        and code_torus == 12
        and torus_doc["status"] == "premise-failed"
        and code_scan == 0
        and scan_doc["payload"]["findings"] == []
        and scan_doc["payload"]["total"] == 8
        and code_corrupt == 0
        and corrupt_doc["payload"]["rows"][0]["status"] == "invalid-datum"
        and "projection formula" in corrupt_doc["payload"]["rows"][0]["note"]
        and corrupt_doc["payload"]["findings"] == []
    )
    _verdict(
        capsys, 8,
        ok,
        "pipeline exits 0 with a full audit trail on the Heisenberg run, "
        "reports premise failure on the torus, scans cleanly, and flags the "
        "corrupted datum as invalid rather than as a counterexample",
    )


def test_criterion_09_structural_scans(capsys):
    ok = True
    for name in sorted(BUILTIN_MODELS):
        model = builtin_model(name)
        ok = ok and validate_algebra(model) == []
        table = SetupTable()
        ring = table.setup(model, model.cap + 5)
        ext, inner = ring.algebra, ring.block_ring.algebra
        # The extension and its maps are trusted by construction; these
        # scans, and the maps the scanned cochain maps induce, are the
        # oracle behind that trust.
        ok = ok and validate_algebra(ext) == []
        ok = ok and validate_morphism(tensor_embedding(inner, ext)) == []
        ok = ok and validate_morphism(tensor_retraction(ext, inner)) == []
        datum = tautological_datum(
            model, euler=EulerData.of(chi="h", m=1), cap=model.cap + 5, setups=table
        )
        ok = ok and block_map_mismatches(ring, datum.restrict_map) == []
        for n in range(ext.cap + 1):
            want = sum(
                inner.dim(n - 2 * j) if n - 2 * j <= inner.cap else 0
                for j in range(n // 2 + 1)
            )
            if ext.dim(n) != want:
                ok = False
    rng = random.Random(9117)
    random_count = 0
    for _ in range(100):
        gens, diffs, cap = random_free_cdga(rng)
        algebra = build_free_cdga(gens, diffs, cap)
        if validate_algebra(algebra) != []:
            ok = False
            break
        random_count += 1
    ok = ok and random_count == 100
    _verdict(
        capsys, 9,
        ok,
        f"graded axioms hold on all bundled models, their h-extensions "
        f"with embedding and retraction, and {random_count} random free "
        "presentations; the maps read off the h^0 class block match the "
        "induced ones; extension dimensions match the convolution formula",
    )


def test_criterion_10_verdict_agreement(capsys):
    # an independent mini-sweep in case this test runs alone
    for name in ("heisenberg", "torus"):
        _defined_basis_triples(CohomologyRing(builtin_model(name)))
    defined = [r for r in RESULTS if r.defined]
    disagreements = [
        r for r in defined if (r.vanishes is not r.in_ideal)
    ]
    ok = len(defined) >= 10 and not disagreements
    _verdict(
        capsys, 10,
        ok,
        f"zero-coset and ideal-membership verdicts agree on all "
        f"{len(defined)} defined products computed in this run",
    )
