from __future__ import annotations

import gc
import itertools
import os
import random
import weakref
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from masseyq.cdga import (
    CochainAlgebra,
    Element,
    build_free_cdga,
    tensor_polynomial_generator,
)
from masseyq.cohomology import (
    CohomologyClass,
    CohomologyRing,
    InducedMap,
    certify_ideal_membership,
    check_scaling_law,
    cup,
    ideal_degree_piece,
    ideal_products,
    triple_massey,
)
from masseyq import cohomology, linalg
from masseyq.linalg import AffineCoset, GradedVector, Subspace, densify, sparse_sum
from masseyq.errors import AlgebraValidationError, ConsistencyError, DegreeCapError
from masseyq.fileformat import resolve_model_spec
from masseyq.models import builtin_model
from oracles import (
    FreeCdgaOracle,
    _null_space,
    betti_oracle,
    dense_add,
    dense_cup,
    dense_lift,
    dense_project,
    dense_rows,
    dense_scale,
    dense_sub,
    differential_columns,
    differential_rows,
    ff_rref,
    heisenberg_massey_oracle,
    massey_coset_oracle,
    projected_product_reference,
    random_free_cdga,
    scale_coset_reference,
    solve_reference,
    tensor_embedding,
    tensor_retraction,
)
from test_linalg import _two_elimination_kernel


FILIFORM_8 = os.path.join(os.path.dirname(__file__), "golden", "filiform-8.alg")


def torus_ring(cap=3):
    a = build_free_cdga([("x", 1), ("y", 1)], {}, cap)
    return a, CohomologyRing(a)


def heisenberg_ring(cap=4):
    a = build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, cap)
    return a, CohomologyRing(a)


def sphere_ring(cap=8):
    a = build_free_cdga([("u", 2), ("v", 3)], {"v": "u*u"}, cap)
    return a, CohomologyRing(a)


# -- the quotient construction -------------------------------------------------


def test_torus_betti():
    _, ring = torus_ring()
    assert ring.betti() == (1, 2, 1)


def test_heisenberg_betti():
    _, ring = heisenberg_ring()
    assert ring.betti() == (1, 2, 2, 1)


def test_sphere_betti():
    _, ring = sphere_ring()
    assert ring.betti() == (1, 0, 1, 0, 0, 0, 0, 0)


def test_betti_against_rank_oracle():
    for a, _ in (torus_ring(), heisenberg_ring(), sphere_ring()):
        ring = CohomologyRing(a)
        assert ring.betti() == betti_oracle(a)


def test_heisenberg_class_representatives():
    _, ring = heisenberg_ring()
    assert [str(c) for c in ring.basis_classes(1)] == ["[x]", "[y]"]
    assert [str(c) for c in ring.basis_classes(2)] == ["[x*z]", "[y*z]"]
    assert [str(c) for c in ring.basis_classes(3)] == ["[x*y*z]"]


def test_project_lift_round_trip():
    a, ring = heisenberg_ring()
    for n in range(ring.top + 1):
        for cls in ring.basis_classes(n):
            assert ring.project(ring.lift(cls)) == cls


def test_lift_lands_on_cocycles_off_pivots():
    a, ring = heisenberg_ring()
    cls = ring.basis_class(2, 0) - ring.basis_class(2, 1).scale(Fraction(5, 3))
    rep = ring.lift(cls)
    assert rep.d().is_zero()
    assert ring.project(rep) == cls


def test_project_mods_out_coboundaries():
    a, ring = heisenberg_ring()
    x, y, z = (a.generator(n) for n in "xyz")
    rep = x * z + (x * y).scale(7)
    assert ring.project(rep) == ring.project(x * z)


def test_project_rejects_non_cocycles():
    a, ring = heisenberg_ring()
    with pytest.raises(AlgebraValidationError, match="not a cocycle"):
        ring.project(a.generator("z"))


def test_cohomology_degree_needs_cap():
    _, ring = heisenberg_ring(cap=4)
    with pytest.raises(DegreeCapError) as err:
        ring.class_dim(4)
    assert err.value.required_cap == 5


def test_unit_class_is_multiplicative_identity():
    _, ring = heisenberg_ring()
    one = ring.unit_class()
    for n in range(ring.top):
        for e in ring.basis_classes(n):
            assert cup(one, e) == e


def test_class_from_polynomial():
    _, ring = heisenberg_ring()
    cls = ring.class_from_polynomial("x*z - y*z")
    assert cls == ring.basis_class(2, 0) - ring.basis_class(2, 1)


# -- cup products --------------------------------------------------------------


def test_torus_cup_is_nonzero():
    _, ring = torus_ring()
    x, y = ring.basis_classes(1)
    assert not cup(x, y).is_zero()
    assert cup(x, y) == -cup(y, x)
    assert cup(x, x).is_zero()


def test_heisenberg_cup_kills_degree_one():
    _, ring = heisenberg_ring()
    x, y = ring.basis_classes(1)
    assert cup(x, y).is_zero()
    assert cup(x, x).is_zero()


def test_cup_beyond_top_raises():
    _, ring = torus_ring(cap=2)
    x, y = ring.basis_classes(1)
    with pytest.raises(DegreeCapError) as err:
        cup(x, y)
    assert err.value.required_cap == 3


def test_ideal_degree_piece():
    _, ring = heisenberg_ring()
    x, y = ring.basis_classes(1)
    assert ideal_degree_piece(ring, [x, y], 2).dim == 0
    piece3 = ideal_degree_piece(ring, [x, y], 3)
    assert piece3.dim == 1
    assert not piece3.reduce_row(cup(x, ring.basis_class(2, 1)).terms)


def _check_certificate(g1, g2, t):
    """The certificate's witness, checked from scratch: it proves the verdict."""
    ring, n = t.ring, t.degree
    columns = ideal_products(ring, [g1, g2], n)
    span = ideal_degree_piece(ring, [g1, g2], n)
    cert = certify_ideal_membership(g1, g2, t, columns, span)
    if cert.member:
        alpha, beta = cert.coefficients
        assert cup(g1, alpha) + cup(g2, beta) == t
        assert cert.functional is None
    else:
        phi = densify(cert.functional, ring.class_dim(n))
        dot = lambda v: sum(a * b for a, b in zip(phi, v))
        for g in (g1, g2):
            for e in ring.basis_classes(n - g.degree):
                assert dot(cup(g, e).coords) == 0
        assert dot(t.coords) != 0
        assert cert.coefficients is None
    return cert


def test_ideal_certificate_on_heisenberg():
    _, ring = heisenberg_ring()
    x, y = ring.basis_classes(1)
    xz, yz = ring.basis_classes(2)
    assert not _check_certificate(x, x, xz).member
    top = ring.basis_class(3, 0)
    assert _check_certificate(x, y, top).member
    assert _check_certificate(x, y, ring.zero_class(2)).member


def _filiform_triples():
    ring = CohomologyRing(resolve_model_spec(FILIFORM_8))
    x1, x2 = (ring.class_from_polynomial(p) for p in ("x1", "x2"))
    member = triple_massey(x1, x2, ring.class_from_polynomial("x1*x4*x5*x8"))
    outside = triple_massey(
        x1, x2, ring.class_from_polynomial("x2*x3*x6 - x2*x4*x5")
    )
    assert member.vanishes and member.indeterminacy.dim == 1
    assert not member.rep_class.is_zero()
    assert not outside.vanishes and outside.indeterminacy.dim == 1
    return member.inputs, outside.inputs


def test_triple_massey_ideal_verdict_is_certified():
    for inputs in _filiform_triples():
        result = triple_massey(*inputs)
        cert = _check_certificate(inputs[0], inputs[2], result.rep_class)
        assert result.in_ideal == cert.member == result.vanishes


@pytest.mark.parametrize("route", ["solve", "functional"])
def test_corrupted_certificate_raises(corrupt_certificate, route):
    member, outside = _filiform_triples()
    _, heis = heisenberg_ring()
    x, y = heis.basis_classes(1)
    _, torus = torus_ring()
    a, _ = torus.basis_classes(1)
    corrupt_certificate(route)
    # a member is solved; a non-member reads a functional off the echelon form
    if route == "solve":
        cases, message = [member, (a, a, a)], "solve gives no coefficients"
    else:
        cases, message = [outside, (x, x, y)], "the functional read off"
    for inputs in cases:
        with pytest.raises(ConsistencyError, match=rf"ideal membership in degree \d: {message}"):
            triple_massey(*inputs)


def test_a_perturbed_primitive_fails_the_cocycle_check(monkeypatch):
    # Shifting the x primitive of <x1, x2, x2> by a cochain e adds bar(e) C
    # to the representative, whose differential -d(e) C is nonzero when
    # d(e) C is; the projection's cocycle check must report it.
    ring = CohomologyRing(resolve_model_spec(FILIFORM_8))
    a, b, c = (ring.class_from_polynomial(p) for p in ("x1", "x2", "x2"))
    assert triple_massey(a, b, c).defined
    algebra, C = ring.algebra, ring.lift(c)
    n = a.degree + b.degree - 1
    k = next(
        k
        for k in range(algebra.dim(n))
        if not (algebra.basis_element(n, k).d() * C).is_zero()
    )
    real, calls = cohomology.solve_rows, []

    def perturbed(rows, cols, rhs):
        out = real(rows, cols, rhs)
        calls.append(cols)
        if len(calls) == 1:  # the first solve is the x primitive's
            out = sparse_sum([*out.items(), (k, 1)])
        return out

    monkeypatch.setattr(cohomology, "solve_rows", perturbed)
    with pytest.raises(
        ConsistencyError, match="assembled representative is not a cocycle: d gives"
    ):
        triple_massey(a, b, c)
    assert calls[0] == algebra.dim(n)


def test_the_certificate_reuses_the_eliminated_indeterminacy(monkeypatch):
    # Given the span, a non-member's functional is read off its echelon
    # form with no elimination, and a member costs its one solve.
    member, outside = _filiform_triples()
    _, heis = heisenberg_ring()
    x, y = heis.basis_classes(1)
    real = linalg._eliminate
    for inputs, eliminations in ((outside, 0), ((x, x, y), 0), (member, 1)):
        result = triple_massey(*inputs)
        calls = []
        monkeypatch.setattr(
            linalg, "_eliminate", lambda *args: calls.append(args) or real(*args)
        )
        cert = certify_ideal_membership(
            inputs[0], inputs[2], result.rep_class, result.ideal_columns,
            result.indeterminacy,
        )
        monkeypatch.setattr(linalg, "_eliminate", real)
        assert cert.member == result.vanishes == (eliminations == 1)
        assert len(calls) == eliminations


@pytest.mark.parametrize("extended", [False, True])
def test_a_dropped_ring_is_freed_without_the_cyclic_collector(extended):
    gc.collect()
    gc.disable()
    try:
        algebra = build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, 4)
        if extended:
            algebra = tensor_polynomial_generator(algebra, cap=6)
        ring = CohomologyRing(algebra)
        x, y = (ring.class_from_polynomial(p) for p in ("x", "y"))
        assert not triple_massey(x, x, y).vanishes
        refs = [weakref.ref(ring), weakref.ref(ring.block_ring), weakref.ref(algebra)]
        del algebra, ring, x, y
        assert [ref() for ref in refs] == [None, None, None]
        assert gc.collect() == 0  # and nothing else was left in a cycle
    finally:
        gc.enable()


# -- triple products -----------------------------------------------------------


def test_heisenberg_massey_is_defined_and_nonvanishing():
    _, ring = heisenberg_ring()
    x, y = ring.basis_classes(1)
    result = triple_massey(x, x, y)
    assert result.defined
    assert result.degree == 2
    assert str(result.representative) == "x*z"
    assert result.indeterminacy.dim == 0
    assert result.vanishes is False
    assert result.in_ideal is False


def test_heisenberg_massey_witnesses_solve_their_equations():
    a, ring = heisenberg_ring()
    x, y = ring.basis_classes(1)
    result = triple_massey(x, x, y)
    A = ring.lift(x)
    assert result.x_witness.d() == A.bar() * A
    assert result.y_witness.d() == A.bar() * ring.lift(y)
    assert result.representative.d().is_zero()


def test_heisenberg_massey_matches_brute_force_oracle():
    a, ring = heisenberg_ring()
    x, y = ring.basis_classes(1)
    result = triple_massey(x, x, y)
    oracle = heisenberg_massey_oracle()

    assert result.representative.coords == oracle["canonical"]
    # every representative the oracle found projects into our coset
    for coords in oracle["representatives"]:
        cls = ring.project(a.element(2, coords))
        assert result.coset.contains(cls.terms)
    # and the class spread the oracle saw matches our indeterminacy
    assert len(oracle["classes"]) == 1
    assert result.indeterminacy.dim == 0


def test_undefined_when_cup_obstructs():
    _, ring = torus_ring()
    x, y = ring.basis_classes(1)
    result = triple_massey(x, y, x)
    assert not result.defined
    assert "nonzero" in result.reason
    assert result.representative is None


def test_sphere_massey_vanishes():
    _, ring = sphere_ring()
    u = ring.basis_class(2, 0)
    result = triple_massey(u, u, u)
    assert result.defined
    assert result.degree == 5
    assert result.vanishes is True
    assert result.in_ideal is True
    assert result.representative.is_zero()


def test_massey_needs_cap():
    _, ring = heisenberg_ring(cap=2)
    x, y = ring.basis_classes(1)
    with pytest.raises(DegreeCapError) as err:
        triple_massey(x, x, y)
    assert err.value.required_cap == 3


def test_massey_rejects_degree_zero_inputs():
    _, ring = heisenberg_ring()
    x, _ = ring.basis_classes(1)
    with pytest.raises(AlgebraValidationError, match="positive degree"):
        triple_massey(ring.unit_class(), x, x)


def test_massey_shifts_by_coboundary_of_input_do_not_matter():
    a, ring = heisenberg_ring()
    x, y = ring.basis_classes(1)
    base = triple_massey(x, x, y)
    # same classes entered through different cocycle polynomials
    x2 = ring.class_from_polynomial("x")
    y2 = ring.class_from_polynomial("y")
    again = triple_massey(x2, x2, y2)
    assert again.rep_class == base.rep_class
    assert again.indeterminacy == base.indeterminacy


def test_ext_heisenberg_massey_embeds_unchanged():
    hb = build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, 4)
    ext = tensor_polynomial_generator(hb, cap=8)
    ring = CohomologyRing(ext)
    x = ring.class_from_polynomial("x")
    y = ring.class_from_polynomial("y")
    result = triple_massey(x, x, y)
    assert result.defined
    # the h-block structure keeps the canonical witnesses in the base
    assert str(result.representative) == "x*z"
    assert result.indeterminacy.dim == 0
    assert result.vanishes is False
    assert result.in_ideal is False


# -- the extension Betti pattern ------------------------------------------------


def test_extension_betti_is_convolution_with_h_powers():
    hb = build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, 4)
    ext = tensor_polynomial_generator(hb, cap=8)
    base_ring = CohomologyRing(ext.tensor_info.base)
    ext_ring = CohomologyRing(ext)

    def base_betti(n):
        b = base_ring.betti()
        return b[n] if 0 <= n < len(b) else 0

    for n in range(ext_ring.top + 1):
        expected = sum(base_betti(n - 2 * j) for j in range(n // 2 + 1))
        assert ext_ring.class_dim(n) == expected
    assert ext_ring.betti() == (1, 2, 3, 3, 3, 3, 3, 3)


def test_extension_betti_against_rank_oracle():
    hb = build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, 4)
    ext = tensor_polynomial_generator(hb, cap=8)
    assert CohomologyRing(ext).betti() == betti_oracle(ext)


# -- induced maps and functoriality ---------------------------------------------


def test_embedding_induces_injection_in_low_degrees():
    hb = build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, 4)
    ext = tensor_polynomial_generator(hb, cap=8)
    emb = tensor_embedding(hb, ext)
    hring = CohomologyRing(hb)
    ering = CohomologyRing(ext)
    f = InducedMap(emb, hring, ering)
    for n in range(hring.top + 1):
        image = Subspace.span_rows(ering.class_dim(n), f.columns(n))
        assert image.dim == hring.class_dim(n)


def test_retraction_kills_h():
    hb = build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, 4)
    ext = tensor_polynomial_generator(hb, cap=8)
    ret = tensor_retraction(ext, hb)
    ering = CohomologyRing(ext)
    hring = CohomologyRing(hb)
    f = InducedMap(ret, ering, hring)
    hcls = ering.class_from_polynomial("h")
    assert f.apply(hcls).is_zero()
    xcls = ering.class_from_polynomial("x")
    assert f.apply(xcls) == hring.class_from_polynomial("x")


def test_functoriality_along_embedding():
    hb = build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, 4)
    ext = tensor_polynomial_generator(hb, cap=8)
    emb = tensor_embedding(hb, ext)
    hring = CohomologyRing(hb)
    ering = CohomologyRing(ext)
    f = InducedMap(emb, hring, ering)
    x, y = hring.basis_classes(1)
    source_result = triple_massey(x, x, y)
    target_result = triple_massey(f.apply(x), f.apply(x), f.apply(y))
    assert f.maps_into(source_result, target_result)
    assert not target_result.vanishes


# -- the scaling containment -----------------------------------------------------


def test_scaling_law_on_extended_heisenberg_all_slots():
    hb = build_free_cdga([("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, 4)
    ext = tensor_polynomial_generator(hb, cap=10)
    ring = CohomologyRing(ext)
    x = ring.class_from_polynomial("x")
    y = ring.class_from_polynomial("y")
    xi = ring.class_from_polynomial("h")
    product = triple_massey(x, x, y)
    for slot in (1, 2, 3):
        holds, scaled = check_scaling_law(xi, product, slot)
        assert holds, f"slot {slot}"
        assert product.defined and scaled.defined


def test_scaling_law_rejects_odd_scalar():
    _, ring = heisenberg_ring()
    x, y = ring.basis_classes(1)
    with pytest.raises(AlgebraValidationError, match="even degree"):
        check_scaling_law(x, triple_massey(x, x, y), 1)


def test_scaling_law_rejects_bad_slot():
    _, ring = heisenberg_ring()
    x, y = ring.basis_classes(1)
    xi = ring.unit_class()
    with pytest.raises(ValueError, match="slot"):
        check_scaling_law(xi, triple_massey(x, x, y), 4)


def test_scaling_law_requires_defined_base():
    a, ring = torus_ring(cap=4)
    x, y = ring.basis_classes(1)
    xi = ring.project(a.unit())
    # unit has degree 0 and is even; base product undefined since [x][y] != 0
    with pytest.raises(AlgebraValidationError, match="not defined"):
        check_scaling_law(xi, triple_massey(x, y, x), 1)


# -- randomized agreement ---------------------------------------------------------


def test_random_algebras_betti_matches_oracle():
    rng = random.Random(404)
    for _ in range(15):
        gens, diffs, cap = random_free_cdga(rng)
        a = build_free_cdga(gens, diffs, cap)
        assert CohomologyRing(a).betti() == betti_oracle(a)


def test_random_cocycles_project_consistently():
    rng = random.Random(17)
    a, ring = heisenberg_ring()
    for _ in range(30):
        n = rng.randint(0, ring.top)
        cls_dim = ring.class_dim(n)
        cls = ring.zero_class(n)
        for i in range(cls_dim):
            cls = cls + ring.basis_class(n, i).scale(rng.randint(-3, 3))
        rep = ring.lift(cls)
        # shifting by a coboundary never moves the class
        if n >= 1 and a.dim(n - 1) > 0:
            noise = a.element(
                n - 1, [rng.randint(-2, 2) for _ in range(a.dim(n - 1))]
            )
            rep = rep + noise.d()
        assert ring.project(rep) == cls


# -- structure constants ---------------------------------------------------------

_COEFFS = [Fraction(c) for c in (-2, -1, 0, 0, 1, 2)] + [Fraction(1, 2)]


_TABLE_MODELS = [
    "sphere-cohomology",
    "truncated-polynomial",
    "two-points",
    "rotation-ambient",
]


@st.composite
def _rings_with_classes(draw):
    """A random free presentation or its h-extension, or the h-extension
    of a bundled table model past its cap; its ring, and classes.

    Two classes are drawn in every degree with nonzero cohomology up to
    the top, so one ring is asked for products across many degree pairs.
    A table model is not re-capped, so its extension has products that
    land in the base's cap degree, where no differential is stored.
    """
    if draw(st.integers(0, 3)) == 0:
        base = builtin_model(draw(st.sampled_from(_TABLE_MODELS)))
        algebra = tensor_polynomial_generator(
            base, cap=base.cap + draw(st.integers(1, 3))
        )
    else:
        rng = draw(st.randoms(use_true_random=False))
        gens, diffs, cap = random_free_cdga(rng)
        algebra = build_free_cdga(gens, diffs, cap)
        if draw(st.booleans()):
            algebra = tensor_polynomial_generator(
                algebra, cap=cap + draw(st.integers(1, 3))
            )
    ring = CohomologyRing(algebra)
    classes = []
    for n in range(ring.top + 1):
        dim = ring.class_dim(n)
        for _ in range(2 if dim else 0):
            coords = draw(
                st.lists(st.sampled_from(_COEFFS), min_size=dim, max_size=dim)
            )
            classes.append(CohomologyClass(ring, n, coords))
    pairs = [
        (a, b) for a in classes for b in classes if a.degree + b.degree <= ring.top
    ]
    return ring, classes, draw(st.permutations(pairs))


def _reference_product(fresh, a, b):
    """[lift a * lift b] computed on ``fresh``, a ring whose cache is unused."""
    left = fresh.lift(CohomologyClass(fresh, a.degree, a.coords))
    right = fresh.lift(CohomologyClass(fresh, b.degree, b.coords))
    return fresh.project(left * right).coords


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_rings_with_classes())
def test_cup_matches_the_projected_product_of_lifts(drawn):
    ring, classes, pairs = drawn
    fresh = CohomologyRing(ring.algebra)
    for a, b in pairs:
        assert cup(a, b).coords == _reference_product(fresh, a, b)
    for a in classes:
        for n in range(ring.top - a.degree + 1):
            dim = ring.class_dim(n + a.degree)
            columns = ideal_products(ring, [a], n + a.degree)
            assert [densify(col, dim) for col in columns] == [
                _reference_product(fresh, a, e) for e in ring.basis_classes(n)
            ]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_rings_with_classes())
def test_multiplication_map_matches_cup_and_the_scaled_coset_oracle(drawn):
    # Each coset of H^n has a drawn class as its point and the other drawn
    # classes of degree n as its direction.
    ring, classes, pairs = drawn
    for xi, x in pairs:
        fmap = InducedMap.multiplication(xi)
        assert fmap.apply(x) == cup(xi, x)
        n = x.degree
        others = [c.terms for c in classes if c.degree == n and c is not x]
        coset = AffineCoset(x.terms, Subspace.span_rows(ring.class_dim(n), others))
        assert fmap.apply_coset(coset, n) == scale_coset_reference(ring, xi, coset, n)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(_rings_with_classes())
def test_structure_constants_do_not_depend_on_fill_order(drawn):
    ring, _, _ = drawn
    basis = [e for n in range(ring.top + 1) for e in ring.basis_classes(n)]
    pairs = [(a, b) for a in basis for b in basis if a.degree + b.degree <= ring.top]
    forward = [cup(a, b).coords for a, b in pairs]
    other = CohomologyRing(ring.algebra)
    backward = [
        cup(
            CohomologyClass(other, a.degree, a.coords),
            CohomologyClass(other, b.degree, b.coords),
        ).coords
        for a, b in reversed(pairs)
    ]
    assert forward == backward[::-1]


def _well_formed(cls):
    """``cls``, once its terms are checked: in range, nonzero exact
    scalars (an int or a Fraction, never a float or a bool)."""
    dim = len(cls.coords)
    for k, v in cls.terms.items():
        assert 0 <= k < dim and type(v) in (int, Fraction) and v != 0, cls
    return cls


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_rings_with_classes(), st.sampled_from(_COEFFS))
def test_sparse_classes_agree_with_dense_class_arithmetic(drawn, c):
    ring, classes, pairs = drawn
    for a in classes:
        n = a.degree
        rep = _well_formed(ring.lift(a))
        assert rep.coords == dense_lift(ring, n, a.coords)
        # the representative, and it moved by a coboundary, project back
        for boundary in ring.coboundaries(n).rows[:1]:
            rep = rep + Element._trusted(ring.algebra, n, boundary)
        assert _well_formed(ring.project(rep)) == a
        assert dense_project(ring, rep) == a.coords
        assert _well_formed(a.scale(c)).coords == dense_scale(a.coords, c)
        assert _well_formed(c * a) == a.scale(c)
        assert _well_formed(-a).coords == dense_scale(a.coords, -1)
        again = CohomologyClass(ring, n, a.coords)
        assert again == a and hash(again) == hash(a)
        for b in classes:
            if b.degree != n:
                continue
            assert _well_formed(a + b).coords == dense_add(a.coords, b.coords)
            assert _well_formed(a - b).coords == dense_sub(a.coords, b.coords)
            assert (a == b) == (a.coords == b.coords)
            back = (a + b) - b
            assert back == a and hash(back) == hash(a)
    for a, b in pairs:
        assert _well_formed(cup(a, b)).coords == dense_cup(
            ring, a.degree, a.coords, b.degree, b.coords
        )


def test_classes_and_cochains_share_one_copy_of_the_arithmetic():
    shared = [
        "__init__",
        "_trusted",
        "__setattr__",
        "coords",
        "is_zero",
        "_check_compatible",
        "__add__",
        "__sub__",
        "__neg__",
        "scale",
        "__rmul__",
        "__eq__",
        "__hash__",
    ]
    assert all(name in vars(GradedVector) for name in shared)
    for kind in (CohomologyClass, Element):
        assert issubclass(kind, GradedVector)
        assert [name for name in shared if name in vars(kind)] == []


# -- coercion at the boundary ----------------------------------------------------


def test_outside_coordinates_are_coerced_and_internal_results_are_fractions():
    a, ring = heisenberg_ring()
    with pytest.raises(TypeError, match="floats"):
        a.element(1, [0.5, 0, 0])
    with pytest.raises(TypeError, match="floats"):
        CohomologyClass(ring, 1, [0.5, 0])
    x, y = ring.basis_classes(1)
    with pytest.raises(TypeError, match="floats"):
        x.scale(0.5)
    with pytest.raises(TypeError, match="bools"):
        a.element(1, [True, 0, 0])
    with pytest.raises(TypeError, match="bools"):
        x.scale(True)
    half = a.element(1, ["1/2", 0, 0])
    assert half.coords == (Fraction(1, 2), Fraction(0), Fraction(0))

    X, Y = ring.lift(x), ring.lift(y)
    z = a.named_element("z")
    outputs = [
        X * Y,
        a.multiply(X, z),
        z.d(),
        a.differential(X),
        X + Y,
        X - Y,
        X.scale(3),
        ring.lift(x.scale(2) + y),
        ring.project(X * z),
        cup(x, y),
        cup(x, ring.project(X * z)),
        cup(ring.zero_class(1), y),
        x + y,
        x - y,
        x.scale(2),
    ]
    for out in outputs:
        assert all(type(c) in (int, Fraction) for c in out.coords), out
        assert all(c != 0 for c in out.terms.values()), out


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_rings_with_classes())
def test_differential_squares_to_zero_as_matrices(drawn):
    # Cohomology trusts d*d = 0, which is checked where algebras enter.
    algebra = drawn[0].algebra
    for n in range(1, algebra.cap):
        outer = differential_rows(algebra, n)
        for column in differential_columns(algebra, n - 1):
            assert not any(
                sum(r * c for r, c in zip(row, column)) for row in outer
            )


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_rings_with_classes())
def test_sparse_fed_eliminations_match_the_fraction_free_oracle(drawn):
    # Cocycles, coboundaries and the Massey primitives are eliminated from
    # the sparse differential table; the oracle reads the dense matrices.
    ring = drawn[0]
    algebra = ring.algebra
    for n in range(ring.top + 1):
        cocycles = ring.cocycles(n)
        assert (dense_rows(cocycles), cocycles.pivots) == _two_elimination_kernel(
            differential_rows(algebra, n), algebra.dim(n)
        )
        coboundaries = ring.coboundaries(n)
        if n == 0:
            assert coboundaries.dim == 0
            continue
        basis, pivots = ff_rref(differential_columns(algebra, n - 1), algebra.dim(n))
        assert (dense_rows(coboundaries), coboundaries.pivots) == (
            basis[: len(pivots)],
            pivots,
        )
    basis = [e for n in range(1, ring.top + 1) for e in ring.basis_classes(n)]
    checked = 0
    for a, b, c in itertools.product(basis, repeat=3):
        if a.degree + b.degree + c.degree - 1 > ring.top or checked == 12:
            continue
        result = triple_massey(a, b, c)
        if not result.defined:
            continue
        A, B, C = ring.lift(a), ring.lift(b), ring.lift(c)
        for witness, left, right in ((result.x_witness, A, B), (result.y_witness, B, C)):
            n = witness.degree
            rows = differential_rows(algebra, n)
            rhs = (left.bar() * right).coords
            assert witness.coords == tuple(solve_reference(rows, algebra.dim(n), rhs))
        checked += 1


# Non-formal presentations beside the random ones, so that many drawn
# triple products are defined and do not vanish.
_NON_FORMAL = [
    ([("x", 1), ("y", 1), ("z", 1)], {"z": [(1, ("x", "y"))]}, 4),
    (
        [(f"x{i}", 1) for i in range(1, 6)],
        {f"x{i}": [(1, ("x1", f"x{i - 1}"))] for i in (3, 4, 5)},
        5,
    ),
    ([("a", 2), ("b", 2), ("c", 3)], {"c": [(1, ("a", "b"))]}, 7),
    ([("a", 1), ("b", 2), ("c", 2)], {"c": [(2, ("a", "b"))]}, 6),
]


@st.composite
def _massey_triples(draw):
    """A random free presentation (or a non-formal one) or its h-extension,
    its oracle, and up to eight triples of basis classes and four of random
    combinations, over the degree triples under the top."""
    if draw(st.integers(0, 2)):
        gens, diffs, cap = random_free_cdga(draw(st.randoms(use_true_random=False)))
    else:
        gens, diffs, cap = draw(st.sampled_from(_NON_FORMAL))
    algebra = build_free_cdga(gens, diffs, cap)
    if draw(st.booleans()):
        algebra = tensor_polynomial_generator(algebra, cap=cap + draw(st.integers(1, 3)))
        gens = gens + [("h", 2)]
    ring = CohomologyRing(algebra)
    degrees = [n for n in range(1, ring.top + 1) if ring.class_dim(n)]
    shapes = [
        (p, q, r)
        for p, q, r in itertools.product(degrees, repeat=3)
        if p + q + r - 1 <= ring.top
    ]

    basis = {n: ring.basis_classes(n) for n in degrees}
    triples = [
        triple
        for p, q, r in shapes
        for triple in itertools.product(basis[p], basis[q], basis[r])
    ]
    draw(st.randoms(use_true_random=False)).shuffle(triples)
    triples = triples[:8]
    for shape in draw(st.lists(st.sampled_from(shapes), max_size=4)) if shapes else []:
        triples.append(
            tuple(
                CohomologyClass(ring, n, draw(st.lists(
                    st.sampled_from(_COEFFS),
                    min_size=ring.class_dim(n),
                    max_size=ring.class_dim(n),
                )))
                for n in shape
            )
        )
    return ring, FreeCdgaOracle(gens, diffs), triples


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_massey_triples())
def test_triple_products_match_the_massey_coset_oracle(drawn):
    ring, oracle, triples = drawn
    for a, b, c in triples:
        _assert_matches_the_oracle(ring, oracle, triple_massey(a, b, c))


def _assert_matches_the_oracle(ring, oracle, result):
    """``result`` is the coset massey_coset_oracle finds for its inputs."""
    algebra = ring.algebra
    a, b, c = result.inputs

    def poly(el):
        labels = algebra.basis_labels(el.degree)
        return {oracle.exponents(l): c for l, c in zip(labels, el.coords) if c}

    def span(vectors, cols):
        reduced, pivots = ff_rref(vectors, cols)
        return reduced[: len(pivots)]

    want = massey_coset_oracle(
        oracle, *(poly(ring.lift(x)) for x in (a, b, c)), a.degree, b.degree, c.degree
    )
    # defined iff both neighbouring products vanish
    assert result.defined == want["defined"]
    assert result.defined == (cup(a, b).is_zero() and cup(b, c).is_zero())
    if not result.defined:
        return
    n, basis = want["degree"], want["basis"]
    coords = lambda el: [poly(el).get(e, Fraction(0)) for e in basis]
    cols = len(basis)
    # the same direction: lifts of the indeterminacy plus coboundaries
    lifts = [
        coords(ring.lift(CohomologyClass(ring, n, v)))
        for v in dense_rows(result.indeterminacy)
    ]
    assert span(list(want["coboundaries"]) + lifts, cols) == want["direction"]
    assert len(want["direction"]) == len(want["coboundaries"]) + result.indeterminacy.dim
    # the same coset: the two representatives differ by a direction vector
    diff = [x - y for x, y in zip(coords(result.representative), want["rep"])]
    assert len(span(list(want["direction"]) + [diff], cols)) == len(want["direction"])
    point = densify(result.coset.point, ring.class_dim(n))
    point = coords(ring.lift(CohomologyClass(ring, n, point)))
    diff = [x - y for x, y in zip(point, want["rep"])]
    assert len(span(list(want["direction"]) + [diff], cols)) == len(want["direction"])
    # vanishes iff 0 lies in the coset, and the ideal verdict agrees
    assert result.vanishes == want["vanishes"]
    assert result.in_ideal == result.vanishes


def _heisenberg_xxy():
    gens, diffs = [("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}
    ring = CohomologyRing(build_free_cdga(gens, diffs, 4))
    x, y = ring.basis_classes(1)
    return ring, FreeCdgaOracle(gens, {"z": [(1, ("x", "y"))]}), [(x, x, y)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_massey_triples())
@example(_heisenberg_xxy())  # x*x = 0 as cochains: the x-witness is 0
def test_a_zero_cochain_product_has_the_zero_primitive_without_a_solve(drawn):
    ring, oracle, triples = drawn
    real = CochainAlgebra.diff_rows
    for a, b, c in triples:
        first = triple_massey(a, b, c)  # builds the ring's degree data
        read = []
        with mock.patch.object(
            CochainAlgebra, "diff_rows", lambda alg, n: read.append(n) or real(alg, n)
        ):
            result = triple_massey(a, b, c)
        assert result == first
        if not result.defined:
            continue
        A, B, C = (ring.lift(x) for x in (a, b, c))
        products = (A.bar() * B, B.bar() * C)
        # one d read per nonzero product; a zero one has the zero primitive
        assert read == [p.degree - 1 for p in products if not p.is_zero()]
        for product, witness in zip(products, (result.x_witness, result.y_witness)):
            assert witness.d() == product
            assert witness.is_zero() == product.is_zero()
        _assert_matches_the_oracle(ring, oracle, result)


_TABLE_MODELS = [
    "sphere-cohomology",
    "truncated-polynomial",
    "two-points",
    "point",
    "rotation-ambient",
]


@st.composite
def _extensions(draw):
    """A random free presentation or a bundled table model, extended by h
    at a cap from its own cap (at least 2) to six above it."""
    if draw(st.booleans()):
        base = builtin_model(draw(st.sampled_from(_TABLE_MODELS)))
    else:
        gens, diffs, cap = random_free_cdga(draw(st.randoms(use_true_random=False)))
        base = build_free_cdga(gens, diffs, cap)
    low = max(base.cap, 2)  # h itself lives in degree 2
    return tensor_polynomial_generator(
        base, cap=draw(st.integers(low, base.cap + 6))
    )


def _residue(row, basis, pivots):
    """``row`` minus its pivot entries times the matching reduced basis rows."""
    out = list(row)
    for b, p in zip(basis, pivots):
        c = row[p]
        if c:
            out = [x - c * y for x, y in zip(out, b)]
    return tuple(out)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_extensions())
@example(tensor_polynomial_generator(builtin_model("sphere-cohomology"), cap=7))
@example(tensor_polynomial_generator(builtin_model("two-points"), cap=7))
def test_block_assembly_matches_the_dense_oracle(ext):
    # Degree data assembled from shifted base blocks equals the direct
    # computation on the extension's dense differential, block at the base
    # cap included, and so do the shifted structure constants.
    ring = CohomologyRing(ext)
    for n in range(ring.top + 1):
        cocycles, cocycle_pivots = _two_elimination_kernel(
            differential_rows(ext, n), ext.dim(n)
        )
        if n == 0:
            boundary, boundary_pivots = (), ()
        else:
            columns = differential_columns(ext, n - 1)
            reduced, boundary_pivots = ff_rref(columns, ext.dim(n))
            boundary = reduced[: len(boundary_pivots)]
        assert (dense_rows(ring.cocycles(n)), ring.cocycles(n).pivots) == (
            cocycles,
            cocycle_pivots,
        )
        assert (dense_rows(ring.coboundaries(n)), ring.coboundaries(n).pivots) == (
            boundary,
            boundary_pivots,
        )
        classes = [
            (row, p)
            for row, p in zip(cocycles, cocycle_pivots)
            if p not in boundary_pivots
        ]
        data = ring._degree(n)
        assert data.class_pivots == tuple(p for _, p in classes)
        reps = tuple(_residue(row, boundary, boundary_pivots) for row, _ in classes)
        assert tuple(densify(r, ext.dim(n)) for r in data.representatives) == reps
    for p in range(ring.top + 1):
        for q in range(ring.top + 1 - p):
            for i in range(ring.class_dim(p)):
                for j in range(ring.class_dim(q)):
                    terms = dict(ring._product(p, i, q, j))
                    assert 0 not in terms.values()
                    assert densify(terms, ring.class_dim(p + q)) == (
                        projected_product_reference(ring, p, i, q, j)
                    )


@st.composite
def _maps_with_kernels(draw):
    """Multiplication by a drawn class of an extension ring from
    ``_extensions``, the zero class included, and the embedding and the
    retraction between the ring and its block ring."""
    ring = CohomologyRing(draw(_extensions()))
    p = draw(st.integers(0, ring.top))
    dim = ring.class_dim(p)
    coords = draw(st.lists(st.sampled_from(_COEFFS), min_size=dim, max_size=dim))
    base = ring.block_ring
    return [
        InducedMap.multiplication(CohomologyClass(ring, p, coords)),
        InducedMap.leading_block(base, ring),
        InducedMap.leading_block(ring, base),
    ]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_maps_with_kernels())
def test_kernel_class_matches_the_fraction_free_rank_and_kernel(maps):
    # None exactly when the dense rank is the source dimension; otherwise
    # the first row of the reduced-echelon kernel basis, which maps to 0.
    for fmap in maps:
        for n in range(fmap.top + 1):
            cols = fmap.source.class_dim(n)
            height = fmap.target.class_dim(n + fmap.shift)
            dense = [densify(col, height) for col in fmap.columns(n)]
            rows = [[col[k] for col in dense] for k in range(height)]
            x = fmap.kernel_class(n)
            assert (x is None) == (len(ff_rref(rows, cols)[1]) == cols)
            if x is not None:
                assert fmap.apply(x).is_zero()
                assert x.coords == ff_rref(_null_space(rows, cols), cols)[0][0]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_rings_with_classes(), st.randoms(use_true_random=False))
def test_ideal_certificate_agrees_with_the_ideal_piece(drawn, rng):
    ring, classes, _ = drawn
    for _ in range(8):
        g1, g2 = rng.choice(classes), rng.choice(classes)
        targets = [t for t in classes if t.degree >= max(g1.degree, g2.degree)]
        if not targets:
            continue
        t = rng.choice(targets)
        _check_certificate(g1, g2, t)
        # a multiple of a generator is always a member
        rest = t.degree - g1.degree
        e = rng.choice(ring.basis_classes(rest) or [ring.zero_class(rest)])
        assert _check_certificate(g1, g2, cup(g1, e)).member
