from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import masseyq.cohomology as cohomology
import masseyq.transfer as transfer
from masseyq.cdga import AlgebraMorphism, build_free_cdga
from masseyq.cohomology import (
    CohomologyClass,
    CohomologyRing,
    InducedMap,
    certify_ideal_membership,
    check_scaling_law,
    cup,
    triple_massey,
)
from masseyq.errors import (
    AlgebraValidationError,
    ConsistencyError,
    ParseError,
    PremiseError,
    UndefinedProductError,
)
from masseyq.fileformat import load_datum
from masseyq.linalg import densify, solve_rows, sparse_sum, transpose
from masseyq.models import BUILTIN_MODELS, builtin_datum, builtin_family, builtin_model
from masseyq.transfer import (
    EulerClass,
    EulerData,
    HamiltonianTransferDatum,
    ScanConfig,
    ScanRow,
    SetupTable,
    TautologicalDatum,
    WeightedLineBundle,
    build_setup,
    check_euler_scaled_massey,
    check_gysin_transfer,
    class_h_components,
    euler_class,
    euler_class_from_polynomial,
    formal_degree,
    required_cap,
    run_transfer_pipeline,
    scan_families,
    tautological_datum,
    validate_transfer_datum,
    verify_not_zero_divisor,
)
from oracles import (
    ROTATION_PUSH_ROWS,
    block_map_mismatches,
    bundle_polynomial,
    cup_columns_reference,
    full_datum_findings,
    h_components,
    identity_morphism,
    matvec_reference,
    random_free_cdga,
    top_coefficient_reference,
    zero_divisor_rank_scan,
)


# ---------------------------------------------------------------------------
# setups and h-power decompositions
# ---------------------------------------------------------------------------


def test_setup_recaps_base_to_extension_cap():
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    ext, base = ring.algebra, ring.block_ring.algebra
    assert ext.cap == 9
    assert ext.tensor_info.base is base
    assert base.cap == 9
    assert base.dims == (1, 3, 3, 1, 0, 0, 0, 0, 0, 0)
    assert ext.has_name("h")


def test_element_h_components_split_and_reassemble():
    # the element-level split of the test oracles, behind the class-level
    # top coefficient
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    base = ring.block_ring.algebra
    el = ring.algebra.from_polynomial("x*y*z + 2*h*x", expected_degree=3)
    comps = h_components(el)
    assert sorted(comps) == [0, 1]
    assert comps[0] == base.from_polynomial("x*y*z", expected_degree=3)
    assert comps[1] == base.from_polynomial("2*x", expected_degree=1)


def test_class_h_components_convolve_under_cup():
    ring = build_setup(builtin_model("torus"), cap=8)
    base_ring = ring.block_ring
    p = ring.class_from_polynomial("x*y + h")
    sq = cup(p, p)
    comps = class_h_components(sq)
    # (xy + h)^2 = 2h xy + h^2, matching the convolution of {0: [xy], 1: [1]}
    # with itself; the h^0 component xy*xy dies.
    assert sorted(comps) == [1, 2]
    assert comps[1] == base_ring.class_from_polynomial("2*x*y")
    assert comps[2] == base_ring.unit_class()


def test_formal_degree_reads_names():
    a = builtin_model("heisenberg")
    assert formal_degree(a, "x*y") == 2
    assert formal_degree(a, "3*z") == 1
    with pytest.raises(AlgebraValidationError):
        formal_degree(a, "x + x*y")
    with pytest.raises(AlgebraValidationError):
        formal_degree(a, "0*x")


# ---------------------------------------------------------------------------
# Euler classes
# ---------------------------------------------------------------------------


def test_euler_class_single_trivial_line_is_h():
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    chi = euler_class(ring, [WeightedLineBundle(None, 1)])
    assert chi.m == 1
    assert chi.weights == (1,)
    assert chi.element == ring.algebra.named_element("h")


def test_euler_class_two_trivial_lines_multiplies_weights():
    ring = build_setup(builtin_model("heisenberg"), cap=15)
    chi = euler_class(ring, [WeightedLineBundle(None, 1), WeightedLineBundle(None, 2)])
    assert chi.m == 2
    assert chi.element == ring.algebra.from_polynomial("2*h*h", expected_degree=4)
    assert chi.top_coefficient == ring.block_ring.unit_class().scale(2)


def test_euler_class_twisted_line():
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    chi = euler_class(ring, [WeightedLineBundle("x*z", 2)])
    assert chi.element == ring.algebra.from_polynomial("x*z + 2*h", expected_degree=2)


def test_euler_class_rejects_zero_weight():
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    with pytest.raises(
        AlgebraValidationError, match="bundle 0 has weight 0; weights must be nonzero"
    ):
        euler_class(ring, [WeightedLineBundle(None, 0)])
    # a bool is not an integer weight, though Python counts it as an int
    with pytest.raises(
        AlgebraValidationError, match="bundle 0 has weight True; weights must be"
    ):
        euler_class(ring, [WeightedLineBundle(None, True)])


def test_euler_class_rejects_first_chern_class_with_h_term():
    # a pure h term, and an h term next to base terms
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    for c1 in ("h", "x*z + h", "2*x*z - 3*y*z + h"):
        bundles = [WeightedLineBundle(None, 1), WeightedLineBundle(c1, 1)]
        with pytest.raises(
            AlgebraValidationError,
            match=r"^bundle 1 first Chern class must come from the base \(no h terms\)$",
        ):
            euler_class(ring, bundles)


def test_euler_class_rejects_odd_degree_chern_class():
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    with pytest.raises(
        AlgebraValidationError, match="term of degree 1, expected degree 2"
    ):
        euler_class(ring, [WeightedLineBundle("x", 1)])


def test_euler_polynomial_requires_cocycle():
    # dq = p*q makes q a non-closed even generator.
    a = build_free_cdga([("p", 1), ("q", 2)], {"q": "p*q"}, 6)
    ring = build_setup(a, cap=8)
    with pytest.raises(
        AlgebraValidationError, match="^Euler class polynomial is not a cocycle$"
    ):
        euler_class_from_polynomial(ring, "q", 1)


def test_euler_polynomial_requires_top_h_term():
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    for m, chi in ((1, "x*z"), (2, "x*z*h"), (2, "0*h*h")):
        with pytest.raises(
            AlgebraValidationError,
            match=rf"^Euler class must have a nonzero h\^{m} coefficient$",
        ):
            euler_class_from_polynomial(ring, chi, m)


def test_h_multiplication_is_injective_below_the_cap():
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    chi = euler_class_from_polynomial(ring, "h", 1)
    assert verify_not_zero_divisor(chi) is None


def test_pure_base_class_is_flagged_as_zero_divisor():
    ring = build_setup(builtin_model("heisenberg"), cap=9)
    cls = ring.class_from_polynomial("x*z")
    fake = EulerClass(cls=cls, element=ring.lift(cls), m=1, weights=None)
    assert verify_not_zero_divisor(fake) == 1  # [x*z] kills [x] already


_HEISENBERG = ([("x", 1), ("y", 1), ("z", 1)], {"z": [(1, ("x", "y"))]}, 4)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(1, 3),
    st.integers(2, 3),
    st.booleans(),
)
@example(random.Random(0), 2, 2, True)
def test_induced_maps_on_random_presentations(rng, k, extra, heisenberg_base):
    # The embedding, the retraction and the tautological identity read
    # off the h^0 class block equal the maps their cochain maps induce; on
    # random bases the retraction undoes the embedding, the embedding
    # carries every defined basis triple into the extension's product, and
    # chi = k*h scales each embedded product into the product with chi in
    # any slot.
    gens, diffs, cap = _HEISENBERG if heisenberg_base else random_free_cdga(rng)
    base, table = build_free_cdga(gens, diffs, cap), SetupTable()
    ring = table.setup(base, cap + extra)
    datum = tautological_datum(
        base, euler=EulerData.of(chi=f"{k}*h", m=1), cap=cap + extra, setups=table
    )
    assert block_map_mismatches(ring, datum.restrict_map) == []
    base_ring = ring.block_ring
    embed = InducedMap.leading_block(base_ring, ring)
    retract = InducedMap.leading_block(ring, base_ring)
    for n in range(min(embed.top, retract.top) + 1):
        for e in base_ring.basis_classes(n):
            assert retract.apply(embed.apply(e)) == e
    chi = ring.class_from_polynomial(f"{k}*h")
    classes = [e for n in range(1, base_ring.top + 1) for e in base_ring.basis_classes(n)]
    for a, b, c in itertools.product(classes, repeat=3):
        n = a.degree + b.degree + c.degree - 1
        if n > embed.top:
            continue
        source = triple_massey(a, b, c)
        if not source.defined:
            continue
        image = triple_massey(embed.apply(a), embed.apply(b), embed.apply(c))
        assert embed.maps_into(source, image)
        if n + chi.degree <= ring.top:
            for slot in (1, 2, 3):
                assert check_scaling_law(chi, image, slot)[0]


def test_block_maps_fill_columns_without_lifting_or_projecting(monkeypatch):
    calls = []

    def counted(name):
        method = getattr(CohomologyRing, name)

        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)

        return wrapper

    table = SetupTable()
    for base in (builtin_model("heisenberg"), builtin_model("two-points")):
        ring = table.setup(base, base.cap + 4)
        datum = tautological_datum(
            base, euler=EulerData.of(chi="h", m=1), cap=base.cap + 4, setups=table
        )
        monkeypatch.setattr(CohomologyRing, "lift", counted("lift"))
        monkeypatch.setattr(CohomologyRing, "project", counted("project"))
        filled = 0
        embed = InducedMap.leading_block(ring.block_ring, ring)
        retract = InducedMap.leading_block(ring, ring.block_ring)
        for fmap in (embed, retract, datum.restrict_map):
            for n in range(fmap.top + 1):
                filled += len(fmap.columns(n))
        monkeypatch.undo()
        assert filled > 0
    assert calls == []


_TABLE_BASES = [
    "two-points",  # H^0 = Q + Q, so a top coefficient can be a non-unit
    "point",
    "sphere-cohomology",
    "truncated-polynomial",
    "rotation-ambient",
]
_COEFFS = [Fraction(c) for c in (-2, -1, 0, 0, 1, 2)] + [Fraction(1, 2)]


@st.composite
def _base_m_and_cap(draw):
    """A random free base or a bundled table model, m = 1 or 2 and an
    extension cap with room for a class of degree 2m."""
    if draw(st.booleans()):
        base = builtin_model(draw(st.sampled_from(_TABLE_BASES)))
    else:
        gens, diffs, cap = random_free_cdga(draw(st.randoms(use_true_random=False)))
        base = build_free_cdga(gens, diffs, cap)
    m = draw(st.integers(1, 2))
    low = max(base.cap, 2 * m + 1)
    return base, m, draw(st.integers(low, low + 3))


@st.composite
def _euler_data(draw):
    """``_base_m_and_cap`` and the polynomial of a random class of degree
    2m with a nonzero h^m coefficient."""
    base, m, cap = draw(_base_m_and_cap())
    ring = build_setup(base, cap)
    dim = ring.class_dim(2 * m)
    coords = draw(st.lists(st.sampled_from(_COEFFS), min_size=dim, max_size=dim))
    cls = CohomologyClass(ring, 2 * m, coords)
    assume(not ring.h_block(cls, m).is_zero())
    return base, cap, str(ring.lift(cls)), m


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_euler_data())
@example((builtin_model("two-points"), 5, "eN*h", 1))
@example((builtin_model("two-points"), 6, "eN*h*h - 2*eS*h*h", 2))
def test_unit_certificate_agrees_with_the_rank_scan(drawn):
    base, cap, chi_poly, m = drawn
    ring = build_setup(base, cap)
    chi = euler_class_from_polynomial(ring, chi_poly, m)
    ok, failed = zero_divisor_rank_scan(ring, chi.cls, m)
    assert verify_not_zero_divisor(chi) == failed
    if transfer._top_is_unit(chi):
        assert ok


@pytest.mark.parametrize("model, chi", [("heisenberg", "2*h"), ("two_points", "eN*h + 3*eS*h")])
def test_a_corrupted_top_inverse_trips_the_cup_check(monkeypatch, model, chi):
    ring = build_setup(builtin_model(model), cap=7)
    euler = euler_class_from_polynomial(ring, chi, 1)
    assert verify_not_zero_divisor(euler) is None
    # the unit is certified a member of (c, c) like any ideal membership,
    # so a corrupted solve of the certifier fails its check through cup
    real = cohomology.solve_rows

    def corrupted(rows, cols, b):
        return sparse_sum([*real(rows, cols, b).items(), (0, 1)])

    monkeypatch.setattr(cohomology, "solve_rows", corrupted)
    with pytest.raises(ConsistencyError):
        verify_not_zero_divisor(euler)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_euler_data())
@example((builtin_model("two-points"), 5, "eN*h", 1))
@example((builtin_model("two-points"), 6, "3*eS*h*h", 2))
def test_trusted_tautological_datum_matches_the_full_route(drawn):
    base, cap, chi_poly, m = drawn
    datum = tautological_datum(base, euler=EulerData.of(chi=chi_poly, m=m), cap=cap)
    findings = validate_transfer_datum(datum)
    assert findings == full_datum_findings(datum)
    if transfer._top_is_unit(datum.chi):
        assert findings == []


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([None, "x*z", "y*z"]),
            st.sampled_from([-3, -2, -1, 1, 2, 3]),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_bundle_and_polynomial_euler_data_agree(drawn):
    # The two forms of the same Euler data build the same class.
    ring = build_setup(builtin_model("heisenberg"), 7)
    bundles = [WeightedLineBundle(c1, weight) for c1, weight in drawn]
    by_bundles = EulerData.of(bundles).build(ring)
    by_polynomial = EulerData.of(
        chi=bundle_polynomial(drawn), m=len(drawn)
    ).build(ring)
    assert by_bundles.element == by_polynomial.element
    assert by_bundles.cls == by_polynomial.cls
    assert by_bundles.m == by_polynomial.m == len(drawn)
    assert by_bundles.top_coefficient == by_polynomial.top_coefficient


@st.composite
def _euler_classes(draw):
    """An Euler class from either form of Euler data: a class polynomial
    drawn by ``_euler_data``, or m weighted line bundles whose first Chern
    classes are absent or representatives of random base classes."""
    if draw(st.booleans()):
        base, cap, chi_poly, m = draw(_euler_data())
        return EulerData.of(chi=chi_poly, m=m).build(build_setup(base, cap))
    base, m, cap = draw(_base_m_and_cap())
    ring = build_setup(base, cap)
    base_ring = ring.block_ring
    dim = base_ring.class_dim(2) if base_ring.top >= 2 else 0
    bundles = []
    for _ in range(m):
        c1 = None
        if dim and draw(st.booleans()):
            coords = draw(st.lists(st.sampled_from(_COEFFS), min_size=dim, max_size=dim))
            c1 = str(base_ring.lift(CohomologyClass(base_ring, 2, coords)))
        weight = draw(st.sampled_from([-2, -1, 1, 2, 3]))
        bundles.append(WeightedLineBundle(c1, weight))
    return EulerData.of(bundles).build(ring)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_euler_classes())
def test_top_coefficient_is_the_projected_top_h_component(chi):
    # the h^m class block against the h^m part of the cochain, projected
    assert chi.top_coefficient == top_coefficient_reference(chi)
    if chi.weights is not None:
        lead = Fraction(1)
        for k in chi.weights:
            lead *= k
        assert chi.top_coefficient == chi.cls.ring.block_ring.unit_class().scale(lead)


def test_zero_divisor_euler_class_is_invalid_input():
    with pytest.raises(AlgebraValidationError, match="zero divisor"):
        check_euler_scaled_massey(
            builtin_model("two-points"), "eN", "eS", "eN", euler=EulerData.of(chi="eN*h", m=1)
        )


# ---------------------------------------------------------------------------
# the witness's membership certificate
# ---------------------------------------------------------------------------


def _witness_membership_inputs(base, cap, x_poly):
    # <chi u, 0, chi w> is defined, and its ideal columns and indeterminacy
    # span the ideal of chi u and chi w in the degree of z = chi^3 x: the
    # arguments check_euler_scaled_massey certifies its witness with
    ring = build_setup(base, cap=cap)
    base_ring = ring.block_ring
    embed = InducedMap.leading_block(base_ring, ring)
    chi = euler_class_from_polynomial(ring, "h", 1)
    u = base_ring.class_from_polynomial("x")
    w = base_ring.class_from_polynomial("y")
    x = base_ring.class_from_polynomial(x_poly)
    z = cup(chi.cls, cup(chi.cls, cup(chi.cls, embed.apply(x))))
    chi_u = cup(chi.cls, embed.apply(u))
    chi_w = cup(chi.cls, embed.apply(w))
    scaled = triple_massey(chi_u, ring.zero_class(3), chi_w)
    assert scaled.defined and scaled.degree == z.degree
    return chi_u, chi_w, z, scaled.ideal_columns, scaled.indeterminacy


def test_membership_solver_finds_ideal_witness():
    # Control case: [xy] lies in the ideal of [x] and [y], so the solver
    # must find coefficients that write z in that ideal.
    inputs = _witness_membership_inputs(builtin_model("torus"), 10, "x*y")
    chi_u, chi_w, z, *_ = inputs
    rep = certify_ideal_membership(*inputs)
    assert rep.member
    a, b = rep.coefficients
    assert cup(chi_u, a) + cup(chi_w, b) == z


def test_membership_solver_fires_outside_the_ideal():
    inputs = _witness_membership_inputs(builtin_model("heisenberg"), 9, "x*z")
    rep = certify_ideal_membership(*inputs)
    assert not rep.member
    assert rep.coefficients is None and rep.functional


@pytest.mark.parametrize(
    "route, base, x_poly",
    [
        ("solve", builtin_model("torus"), "x*y"),
        ("solve", build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {}, 4), "x*z"),
        ("functional", builtin_model("heisenberg"), "x*z"),
    ],
)
def test_corrupted_membership_certificate_raises(corrupt_certificate, route, base, x_poly):
    # [x*z] lies in the ideal of [x] and [y] over the exterior algebra, not
    # over Heisenberg
    inputs = _witness_membership_inputs(base, 10 if x_poly == "x*y" else 9, x_poly)
    corrupt_certificate(route)
    message = "solve gives no" if route == "solve" else "the functional read off"
    with pytest.raises(ConsistencyError, match=rf"ideal membership in degree \d+: {message}"):
        certify_ideal_membership(*inputs)


# ---------------------------------------------------------------------------
# the scaled-product verification chain
# ---------------------------------------------------------------------------


def test_scaled_chain_heisenberg_with_h():
    report = check_euler_scaled_massey(
        builtin_model("heisenberg"), "x", "x", "y", euler=EulerData.of(chi="h", m=1), min_cap=12
    )
    assert report.verdict == "non-vanishing"
    assert report.ring.algebra.cap == 12
    assert [c.degree for c in report.base_result.inputs] == [1, 1, 1]
    assert not report.base_result.vanishes
    assert not report.base_result.in_ideal
    assert not report.embedded_result.vanishes
    embed = InducedMap.leading_block(report.ring.block_ring, report.ring)
    assert embed.maps_into(report.base_result, report.embedded_result)
    assert report.witness.degree == 6 + 3 - 1
    assert report.scaled_result.coset.contains(report.witness.terms)
    assert not report.machinery.member
    assert not report.scaled_result.vanishes
    assert not report.scaled_result.in_ideal


def test_scaled_chain_with_twisted_line_bundle():
    report = check_euler_scaled_massey(
        builtin_model("heisenberg"), "x", "x", "y",
        EulerData.of([WeightedLineBundle("x*z", 2)]), min_cap=12,
    )
    assert report.verdict == "non-vanishing"
    assert report.ring.algebra.cap == 12
    assert not report.machinery.member


def test_scaled_chain_with_two_line_bundles_raises_the_cap():
    report = check_euler_scaled_massey(
        builtin_model("heisenberg"),
        "x",
        "x",
        "y",
        euler=EulerData.of([WeightedLineBundle(None, 1), WeightedLineBundle(None, 1)]),
        min_cap=12,
    )
    assert report.verdict == "non-vanishing"
    assert report.ring.algebra.cap == 15  # 6m + |u|+|v|+|w| with m = 2
    assert report.witness.degree == 12 + 3 - 1
    assert not report.machinery.member


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([-2, -1, 1, 2, 3]), st.booleans())
@example(random.Random(0), 2, True)
def test_a_unit_top_coefficient_keeps_every_product_nonvanishing(rng, k, heisenberg_base):
    # A free base is connected, so the top coefficient k of chi is a unit,
    # and the witness could lie in the ideal of chi u and chi w only if x
    # lay in (u, w) (see check_euler_scaled_massey): every non-vanishing
    # base product stays non-vanishing, whatever degree-2 class chi adds.
    gens, diffs, cap = _HEISENBERG if heisenberg_base else random_free_cdga(rng)
    base, table = build_free_cdga(gens, diffs, cap), SetupTable()
    ring = table.setup(base, cap + 2)
    base_ring = ring.block_ring
    embed = InducedMap.leading_block(base_ring, ring)
    chi = ring.class_from_polynomial(f"{k}*h")
    for cls in base_ring.basis_classes(2) if base_ring.top >= 2 else ():
        chi = chi + embed.apply(cls.scale(rng.randint(-2, 2)))
    euler = EulerData.of(chi=str(ring.lift(chi)), m=1)
    top = min(3, base_ring.top)
    classes = [c for n in range(1, top + 1) for c in base_ring.basis_classes(n)]
    checked = 0
    for a, b, c in itertools.product(classes, repeat=3):
        if checked == 3 or a.degree + b.degree + c.degree - 1 > base_ring.top:
            continue
        product = triple_massey(a, b, c)
        if not product.defined or product.vanishes:
            continue
        triple = [str(cls.representative()) for cls in (a, b, c)]
        report = check_euler_scaled_massey(base, *triple, euler, setups=table)
        assert report.verdict == "non-vanishing"
        checked += 1
    assert checked or not heisenberg_base


def test_required_cap_formula():
    assert required_cap(builtin_model("heisenberg"), "x", "x", "y", 1) == 9
    assert required_cap(builtin_model("heisenberg"), "x", "x", "y", 2) == 15
    assert required_cap(builtin_model("heisenberg"), "x*y", "x", "y", 1) == 10


def test_undefined_premise_is_a_premise_error():
    with pytest.raises(PremiseError):
        check_euler_scaled_massey(builtin_model("torus"), "x", "x", "y", EulerData.of(chi="h", m=1))


def test_vanishing_premise_is_a_premise_error():
    with pytest.raises(PremiseError):
        check_euler_scaled_massey(builtin_model("torus"), "x", "x", "x", EulerData.of(chi="h", m=1))


def test_degree_zero_premise_is_a_premise_error():
    with pytest.raises(PremiseError):
        check_euler_scaled_massey(
            builtin_model("two-points"), "eN", "eN", "eN", euler=EulerData.of(chi="h", m=1)
        )


def test_euler_argument_validation():
    # Bundles, or chi together with m: both forms or neither is refused.
    bundle = WeightedLineBundle(None, 1)
    for bundles, chi, m in (
        ((), None, None),
        ((), "h", None),
        ((), None, 1),
        ((bundle,), "h", 1),
        ((bundle,), None, 2),
        ((bundle,), "h", None),
    ):
        with pytest.raises(ParseError):
            EulerData.of(bundles, chi, m)
    assert EulerData.of((bundle, bundle)).m == 2
    assert EulerData.of(chi="h*h", m=2).m == 2


def test_unit_scaling_keeps_the_coset():
    ring = build_setup(builtin_model("torus"), cap=8)
    a = ring.class_from_polynomial("x")
    base_result = triple_massey(a, a, a)
    holds, scaled_result = check_scaling_law(ring.unit_class(), base_result, 1)
    assert holds
    assert base_result.defined and scaled_result.defined


# ---------------------------------------------------------------------------
# transfer data
# ---------------------------------------------------------------------------


def test_tautological_datum_is_valid_on_every_bundled_model():
    for name in sorted(BUILTIN_MODELS):
        base = builtin_model(name)
        datum = tautological_datum(
            base, euler=EulerData.of(chi="h", m=1), cap=max(8, base.cap)
        )
        assert validate_transfer_datum(datum) == [], name


def test_rotation_datum_is_valid():
    assert validate_transfer_datum(builtin_datum("rotation")) == []


def test_broken_projection_formula_is_rejected_with_a_witness():
    findings = validate_transfer_datum(builtin_datum("rotation-broken-push"))
    assert findings
    assert any("projection formula" in f and "degree 2" in f for f in findings)


def test_a_datum_over_one_ring_is_checked_in_full():
    # Only the type of a tautological datum marks it as trusted: a plain
    # datum with one ring on both sides, whose degree-1 restriction is
    # doubled, gets the restriction findings.
    good = tautological_datum(builtin_model("heisenberg"), EulerData.of(chi="h", m=1), cap=9)
    assert isinstance(good, TautologicalDatum)
    assert validate_transfer_datum(good) == []
    ring = good.fixed_ring
    identity = identity_morphism(good.fixed)
    columns = [identity.columns(n) for n in range(identity.trust_cap + 1)]
    columns[1] = [{k: 2 * c for k, c in col.items()} for col in columns[1]]
    doubled = HamiltonianTransferDatum(
        "doubled",
        InducedMap(AlgebraMorphism(good.fixed, good.fixed, columns), ring, ring),
        good.push_map,
        good.euler,
        good.chi,
    )
    findings = validate_transfer_datum(doubled)
    assert findings
    assert all(f.startswith("restriction: ") for f in findings)
    assert findings == full_datum_findings(doubled)


def test_non_injective_restriction_is_rejected():
    good = builtin_datum("rotation")
    morphism = good.restrict_map.morphism
    columns = [morphism.columns(n) for n in range(morphism.trust_cap + 1)]
    one = Fraction(1)
    columns[2] = [{0: one, 1: one}, {0: one, 1: one}]
    bad = HamiltonianTransferDatum(
        name="squashed",
        restrict_map=InducedMap(
            AlgebraMorphism(good.ambient, good.fixed, columns),
            good.ambient_ring,
            good.fixed_ring,
        ),
        push_map=good.push_map,
        euler=good.euler,
    )
    findings = validate_transfer_datum(bad)
    assert findings
    assert any("restriction" in f for f in findings)


def test_identity_restriction_is_not_rescanned(monkeypatch):
    import masseyq.transfer as transfer

    def forbidden(f):
        raise AssertionError("the identity restriction was scanned")

    datum = tautological_datum(builtin_model("heisenberg"), euler=EulerData.of(chi="h", m=1), cap=8)
    monkeypatch.setattr(transfer, "validate_morphism", forbidden)
    assert validate_transfer_datum(datum) == []


def test_non_identity_endomorphism_restriction_is_scanned():
    # Doubling degree 1 keeps source == target but breaks both d-commutation
    # (d z = x*y) and multiplicativity, so the full scan must report it.
    # The datum gets two rings of its own: one ring on both sides marks
    # the tautological datum.
    good = tautological_datum(builtin_model("heisenberg"), euler=EulerData.of(chi="h", m=1), cap=8)
    identity = identity_morphism(good.fixed)
    columns = [identity.columns(n) for n in range(identity.trust_cap + 1)]
    columns[1] = [{i: Fraction(2)} for i in range(good.ambient.dim(1))]
    ambient, fixed = CohomologyRing(good.ambient), CohomologyRing(good.fixed)
    bad = HamiltonianTransferDatum(
        name="doubled",
        restrict_map=InducedMap(
            AlgebraMorphism(good.ambient, good.fixed, columns), ambient, fixed
        ),
        push_map=InducedMap.stored(
            fixed,
            ambient,
            2,
            [
                cup_columns_reference(good.fixed_ring, good.chi.cls, n)
                for n in range(good.push_map.top + 1)
            ],
        ),
        euler=good.euler,
    )
    findings = validate_transfer_datum(bad)
    assert any(f.startswith("restriction: morphism does not commute with d")
               for f in findings)
    assert any(f.startswith("restriction: morphism is not multiplicative")
               for f in findings)


def test_wrong_push_shape_is_rejected():
    # Degree 2 runs from a 2-dimensional H^2 to a 2-dimensional H^4; the
    # fixed H^7 is zero, but its image would lie in degree 9, above the
    # ambient top 8.
    good = builtin_datum("rotation")
    one = Fraction(1)
    good_push = [good.push_map.columns(n) for n in range(good.push_map.top + 1)]
    for n, columns, message in (
        (2, [{0: one}, {1: one}, {}], "must be 2x2"),
        (2, [{0: one}, {2: one}], "must be 2x2"),
        (7, [], "lands above the target top"),
    ):
        push = good_push + [[] for _ in range(len(good_push), n + 1)]
        push[n] = columns
        with pytest.raises(ValueError, match=rf"^matrix in degree {n} {message}$"):
            InducedMap.stored(good.fixed_ring, good.ambient_ring, 2, push)


def test_a_restriction_without_a_morphism_is_a_finding():
    # Stored columns give no cochain map whose ring-map axioms could be
    # checked, even when they are the rotation restriction's own.
    good = builtin_datum("rotation")
    rmap = good.restrict_map
    columns = [rmap.columns(n) for n in range(rmap.top + 1)]
    bad = HamiltonianTransferDatum(
        "stored-restriction",
        InducedMap.stored(good.ambient_ring, good.fixed_ring, 0, columns),
        good.push_map,
        good.euler,
    )
    assert bad.findings == ("restriction must be induced by an algebra morphism",)


def test_nonpositive_m_is_rejected():
    good = builtin_datum("rotation")
    bad = HamiltonianTransferDatum(
        name="flat",
        restrict_map=good.restrict_map,
        push_map=good.push_map,
        euler=EulerData.of(chi=good.euler.polynomial, m=0),
    )
    assert validate_transfer_datum(bad) == ["m must be at least 1, got 0"]


def test_fixed_model_must_be_an_extension():
    a = builtin_model("heisenberg")
    ring = CohomologyRing(a)
    bad = HamiltonianTransferDatum(
        name="bare",
        restrict_map=InducedMap(identity_morphism(a), ring, ring),
        push_map=InducedMap.stored(ring, ring, 2, []),
        euler=EulerData.of(chi="x*z", m=1),
    )
    findings = validate_transfer_datum(bad)
    assert findings == ["fixed model must be a polynomial-generator extension"]


def test_rotation_pushforward_is_forced_by_the_projection_formula():
    # Re-derive each pushforward column by solving
    # restrict(column) = chi * (basis class); injectivity makes the
    # solution unique, so this reproduces the bundled matrices.
    datum = builtin_datum("rotation")
    fixed = datum.fixed
    fring = datum.fixed_ring
    chi_el = datum.chi.element
    h = fixed.named_element("h")
    for k in range(0, 3):
        power = fixed.unit()
        for _ in range(k):
            power = power * h
        for idx, nm in enumerate(("eN", "eS")):
            e = fixed.named_element(nm) * power
            target = chi_el * e
            n = 2 * k + 2
            rows = transpose(datum.restrict_map.morphism.columns(n), fixed.dim(n))
            col = solve_rows(rows, datum.ambient.dim(n), target.terms)
            assert col is not None
            pushed = datum.push_map.apply(fring.project(e))
            assert pushed.coords == densify(col, datum.ambient.dim(n))


_ROTATION_FILE = os.path.join(os.path.dirname(__file__), "..", "data", "rotation.datum")


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    st.lists(st.sampled_from([Fraction(c, 2) for c in range(-4, 5)]), min_size=2, max_size=2),
    st.booleans(),
)
def test_rotation_push_matches_the_dense_matvec(coords, from_file):
    # The pushforward is held as sparse columns; the reference multiplies
    # the class coordinates by its dense matrix, on every basis class and
    # on one drawn class per even degree.
    datum = load_datum(_ROTATION_FILE) if from_file else builtin_datum("rotation")
    fring = datum.fixed_ring
    for n in range(datum.push_map.top + 1):
        rows = ROTATION_PUSH_ROWS if n % 2 == 0 else ()
        classes = fring.basis_classes(n)
        if n % 2 == 0:
            classes.append(CohomologyClass(fring, n, coords))
        for e in classes:
            assert datum.push_map.apply(e).coords == matvec_reference(rows, e.coords)


# ---------------------------------------------------------------------------
# transfer of non-vanishing products
# ---------------------------------------------------------------------------


def test_gysin_on_the_rotation_datum_is_inconclusive():
    datum = builtin_datum("rotation")
    report = check_gysin_transfer(datum, "eN", "eS", "eN")
    assert report.status == "inconclusive"
    assert report.fixed_result.defined
    assert report.fixed_result.vanishes
    # U V restricts to zero and is zero
    u, v = (datum.fixed_ring.class_from_polynomial(p) for p in ("eN", "eS"))
    chi = datum.chi.cls
    assert cup(cup(chi, u), cup(chi, v)).is_zero()
    assert cup(datum.push_map.apply(u), datum.push_map.apply(v)).is_zero()


def test_gysin_on_the_tautological_heisenberg_datum_transfers():
    datum = tautological_datum(builtin_model("heisenberg"), euler=EulerData.of(chi="h", m=1), cap=9)
    report = check_gysin_transfer(datum, "x", "x", "y")
    assert report.status == "non-vanishing"
    assert not report.fixed_result.vanishes
    assert not report.ambient_result.vanishes


def test_gysin_rejects_an_undefined_scaled_product():
    with pytest.raises(UndefinedProductError):
        check_gysin_transfer(builtin_datum("rotation"), "eN", "eN", "eN")


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_pipeline_accepts_only_one_euler_source():
    datum = tautological_datum(builtin_model("heisenberg"), euler=EulerData.of(chi="h", m=1), cap=9)
    with pytest.raises(ValueError):
        run_transfer_pipeline(
            None, "x", "x", "y", datum=datum, euler=EulerData.of(chi="h", m=1)
        )
    with pytest.raises(ValueError):
        run_transfer_pipeline(None, "x", "x", "y")
    with pytest.raises(ValueError):
        run_transfer_pipeline(
            builtin_model("heisenberg"), "x", "x", "y", euler=EulerData.of(chi="h", m=1),
            datum=datum, tautological=True,
        )


def test_pipeline_flags_an_invalid_datum_before_anything_runs():
    result = run_transfer_pipeline(
        None, "eN", "eS", "eN", datum=builtin_datum("rotation-broken-push")
    )
    assert result.status == "invalid-datum"
    assert result.verdict == "inconclusive"
    assert result.datum_findings
    assert result.euler is None and result.gysin is None


def test_pipeline_premise_failure_without_datum():
    result = run_transfer_pipeline(
        builtin_model("torus"), "x", "x", "y", EulerData.of(chi="h", m=1)
    )
    assert result.status == "premise-failed"
    assert result.verdict == "inconclusive"
    assert result.euler is None
    assert "not defined" in result.premise_error


def test_pipeline_full_run_with_tautological_datum():
    datum = tautological_datum(builtin_model("heisenberg"), euler=EulerData.of(chi="h", m=1), cap=9)
    result = run_transfer_pipeline(None, "x", "x", "y", datum=datum)
    assert result.status == "ok"
    assert result.verdict == "non-vanishing"
    assert result.euler is not None and not result.euler.machinery.member
    assert result.gysin is not None and result.gysin.status == "non-vanishing"


def test_pipeline_rotation_datum_runs_the_transfer_despite_the_premise():
    result = run_transfer_pipeline(None, "eN", "eS", "eN", datum=builtin_datum("rotation"))
    assert result.status == "premise-failed"
    assert result.gysin is not None
    assert result.gysin.status == "inconclusive"
    assert result.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# scanning families
# ---------------------------------------------------------------------------


def test_default_family_scans_clean():
    report = scan_families(builtin_family("default"))
    assert report.findings == []
    assert len(report.rows) == 8
    by_name = {row.name: row for row in report.rows}
    assert by_name["heisenberg-h"].verdict == "non-vanishing"
    assert by_name["heisenberg-transfer"].verdict == "non-vanishing"
    assert by_name["torus-undefined"].status == "premise-failed"
    assert by_name["rotation-poles"].verdict == "inconclusive"
    assert not report.exhausted


def test_corrupted_family_flags_the_datum_not_a_counterexample():
    report = scan_families(builtin_family("corrupted-demo"))
    assert report.findings == []
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.status == "invalid-datum"
    assert "projection formula" in row.note


def test_scan_records_expectation_mismatches():
    cfg = ScanConfig(
        name="wrong-guess",
        base=builtin_model("heisenberg"),
        u="x",
        v="x",
        w="y",
        euler=EulerData.of(chi="h", m=1),
        expect="vanishes",
    )
    report = scan_families([cfg])
    assert len(report.findings) == 1
    assert "wrong-guess" in report.findings[0]


def test_scan_row_of_a_typo_is_invalid_input_without_a_finding():
    cfg = ScanConfig(
        name="typo",
        base=builtin_model("heisenberg"),
        u="nosuchname",
        v="x",
        w="y",
        euler=EulerData.of(chi="h", m=1),
    )
    report = scan_families([cfg])
    assert report.rows == [
        ScanRow(
            "typo",
            "invalid-input",
            "inconclusive",
            "unknown name 'nosuchname' in this algebra",
        )
    ]
    assert report.findings == []


def test_scan_budget_stops_early_and_reports_progress():
    configs = builtin_family("default")
    report = scan_families(configs, budget=3)
    assert report.completed == 3
    assert report.total == len(configs)
    assert report.exhausted
    with pytest.raises(ValueError):
        scan_families(configs, budget=-1)


# ---------------------------------------------------------------------------
# witness perturbations stay inside the coset
# ---------------------------------------------------------------------------


def _perturbed_representative(result, ring, da, dy):
    """Recompute the product representative after shifting the witnesses."""
    a_lift = ring.lift(result.inputs[0])
    c_lift = ring.lift(result.inputs[2])
    x_new = result.x_witness + da
    y_new = result.y_witness + dy
    return a_lift.bar() * y_new + x_new.bar() * c_lift


def test_witness_perturbations_move_within_the_indeterminacy():
    base = builtin_model("heisenberg")
    ring = CohomologyRing(base)
    x = ring.class_from_polynomial("x")
    y = ring.class_from_polynomial("y")
    result = triple_massey(x, x, y)
    assert result.indeterminacy.dim == 0

    cocycles = [
        base.from_polynomial("x", expected_degree=1),
        base.from_polynomial("y", expected_degree=1),
        base.from_polynomial("x - 3*y", expected_degree=1),
    ]
    rng = random.Random(20260818)
    for trial in range(24):
        da = cocycles[rng.randrange(3)].scale(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        )
        dy = cocycles[rng.randrange(3)].scale(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        )
        rep = _perturbed_representative(result, ring, da, dy)
        assert rep.d().is_zero()
        cls = ring.project(rep)
        # zero indeterminacy: the class itself must be reproduced
        assert cls == result.rep_class
        assert result.coset.contains(cls.terms)


def test_witness_perturbations_on_a_vanishing_product():
    base = builtin_model("torus")
    ring = CohomologyRing(base)
    x = ring.class_from_polynomial("x")
    result = triple_massey(x, x, x)
    assert result.vanishes

    cocycles = [
        base.from_polynomial("x", expected_degree=1),
        base.from_polynomial("y", expected_degree=1),
    ]
    rng = random.Random(573)
    for trial in range(20):
        da = cocycles[rng.randrange(2)].scale(rng.randint(-5, 5))
        dy = cocycles[rng.randrange(2)].scale(rng.randint(-5, 5))
        rep = _perturbed_representative(result, ring, da, dy)
        assert rep.d().is_zero()
        assert result.coset.contains(ring.project(rep).terms)
