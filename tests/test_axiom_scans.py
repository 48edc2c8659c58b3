"""The structure-constant axiom scans against the Element-level reference.

``validate_algebra`` and ``validate_morphism`` read products and
differentials straight from the lookups.  ``tests/oracles.py`` keeps the
same scans written with Element arithmetic; on valid and on deliberately
broken algebras and maps both must return the same findings, in the same
order, under every ``limit``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from masseyq.cdga import (
    AlgebraMorphism,
    CochainAlgebra,
    build_free_cdga,
    tensor_polynomial_generator,
    validate_algebra,
    validate_morphism,
)
from masseyq.models import BUILTIN_MODELS, builtin_datum, builtin_model
from oracles import (
    identity_morphism,
    random_free_cdga,
    tensor_embedding,
    tensor_retraction,
    validate_algebra_reference,
    validate_morphism_reference,
)

_COEFFS = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2))
_LIMITS = (None, 1, 3)


def _tables(a):
    """The product and differential tables of an algebra, read off its lookups."""
    mul = {}
    product = a.product_lookup(a.cap)
    for n1 in range(a.cap + 1):
        for n2 in range(a.cap + 1 - n1):
            for i1 in range(a.dim(n1)):
                for i2 in range(a.dim(n2)):
                    terms = product(n1, i1, n2, i2)
                    if terms:
                        mul[(n1, i1, n2, i2)] = list(terms)
    diff = {
        (n, i): list(terms)
        for n in range(a.cap)
        for i, terms in enumerate(a.diff_table(n))
        if terms
    }
    return mul, diff


def _merged(terms):
    """Sum repeated indices and drop zeros, as ``build_table_algebra`` stores terms."""
    out = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return tuple(sorted((k, c) for k, c in out.items() if c))


def _assemble(a, mul, diff):
    """A table algebra over a's basis with the given constants, not scanned."""
    products = {key: _merged(terms) for key, terms in mul.items()}
    return CochainAlgebra(
        a.cap,
        a.dims,
        [a.basis_labels(n) for n in range(a.cap + 1)],
        lambda n1, i1, n2, i2: products.get((n1, i1, n2, i2), ()),
        [
            tuple(_merged(diff.get((n, i), ())) for i in range(a.dim(n)))
            for n in range(a.cap)
        ],
        a._unit,
        a._names,
    )


def _mutant(a, rng, count):
    """a with ``count`` random edits to its product and differential tables."""
    mul, diff = _tables(a)
    dims = a.dims
    pairs = [
        (n1, i1, n2, i2)
        for n1 in range(a.cap + 1)
        for n2 in range(a.cap + 1 - n1)
        if dims[n1 + n2]
        for i1 in range(dims[n1])
        for i2 in range(dims[n2])
    ]
    cells = [(n, i) for n in range(a.cap) if dims[n + 1] for i in range(dims[n])]
    chains = [n for n in range(a.cap - 1) if dims[n] and dims[n + 1] and dims[n + 2]]
    for _ in range(count):
        edit = rng.choice(("add-product", "drop-product", "negate", "add-diff", "chain"))
        if edit == "add-product" and pairs:
            key = rng.choice(pairs)
            target = rng.randrange(dims[key[0] + key[2]])
            mul.setdefault(key, []).append((target, rng.choice(_COEFFS)))
        elif edit == "drop-product" and mul:
            del mul[rng.choice(sorted(mul))]
        elif edit == "negate" and mul:
            key = rng.choice(sorted(mul))
            mul[key] = [(k, -c) for k, c in mul[key]]
        elif edit == "add-diff" and cells:
            n, i = rng.choice(cells)
            diff.setdefault((n, i), []).append(
                (rng.randrange(dims[n + 1]), rng.choice(_COEFFS))
            )
        elif edit == "chain" and chains:
            # Every vector of degree n hits j, and d(j) != 0: d*d fails
            # on all of them unless old terms cancel.
            n = rng.choice(chains)
            j = rng.randrange(dims[n + 1])
            for i in range(dims[n]):
                diff.setdefault((n, i), []).append((j, rng.choice(_COEFFS)))
            diff.setdefault((n + 1, j), []).append(
                (rng.randrange(dims[n + 2]), rng.choice(_COEFFS))
            )
    return _assemble(a, mul, diff)


def _random_extension(rng):
    gens, diffs, cap = random_free_cdga(rng)
    base = build_free_cdga(gens, diffs, cap)
    return tensor_polynomial_generator(base, cap=cap + rng.randint(0, 1))


def _bundled(rng):
    name = rng.choice(sorted(BUILTIN_MODELS))
    return builtin_model(name)


def _assert_algebra_scans_agree(a):
    full = validate_algebra_reference(a)
    assert validate_algebra(a) == full
    for limit in _LIMITS[1:]:
        # With no findings at all the reference cannot stop early, so a
        # limited run of it would return [] again.
        expected = validate_algebra_reference(a, limit) if full else []
        assert validate_algebra(a, limit) == expected


def _assert_morphism_scans_agree(f):
    assert validate_morphism(f) == validate_morphism_reference(f)


def test_scans_agree_on_every_bundled_model_and_its_extension():
    for name in sorted(BUILTIN_MODELS):
        a = builtin_model(name)
        _assert_algebra_scans_agree(a)
        assert validate_algebra(a) == [], name
        if a.cap <= 4:
            ext = tensor_polynomial_generator(a, cap=a.cap + 2)
            _assert_algebra_scans_agree(ext)
            inner = ext.tensor_info.base
            _assert_morphism_scans_agree(tensor_embedding(inner, ext))
            _assert_morphism_scans_agree(tensor_retraction(ext, inner))
    datum = builtin_datum("rotation")
    _assert_algebra_scans_agree(datum.fixed)
    _assert_morphism_scans_agree(datum.restrict_map.morphism)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans())
def test_algebra_scan_matches_the_reference_on_mutated_tables(seed, count, extension):
    rng = random.Random(seed)
    a = _random_extension(rng) if extension else _bundled(rng)
    mutant = _mutant(a, rng, count)
    _assert_algebra_scans_agree(mutant)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_algebra_scan_matches_the_reference_on_random_extensions(seed):
    _assert_algebra_scans_agree(_random_extension(random.Random(seed)))


def _mutated_columns(f, rng, count):
    """The sparse columns of f with ``count`` random entries shifted; an
    entry that cancels to zero leaves its column."""
    columns = [[dict(c) for c in f.columns(n)] for n in range(f.trust_cap + 1)]
    shaped = [
        n for n in range(f.trust_cap + 1) if f.target.dim(n) and f.source.dim(n)
    ]
    for _ in range(count):
        if not shaped:
            break
        n = rng.choice(shaped)
        row = rng.randrange(f.target.dim(n))
        column = columns[n][rng.randrange(f.source.dim(n))]
        value = column.get(row, Fraction(0)) + rng.choice(_COEFFS)
        if value:
            column[row] = value
        else:
            del column[row]
    return columns


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("embedding", "retraction", "identity", "rotation")),
    st.integers(0, 3),
    st.booleans(),
)
def test_morphism_scan_matches_the_reference(seed, kind, count, break_target):
    rng = random.Random(seed)
    if kind == "rotation":
        f = builtin_datum("rotation").restrict_map.morphism
    else:
        ext = _random_extension(rng)
        inner = ext.tensor_info.base
        if kind == "embedding":
            f = tensor_embedding(inner, ext)
        elif kind == "retraction":
            f = tensor_retraction(ext, inner)
        else:
            f = identity_morphism(ext)
    target = f.target
    if break_target:
        target = _mutant(target, rng, 1 + count)
    source = target if f.source is f.target else f.source
    broken = AlgebraMorphism(source, target, _mutated_columns(f, rng, count))
    _assert_morphism_scans_agree(broken)


# -- the rotation shape: d = 0 and degree 0 spanned by the unit --------------------

# (degree, index) of the rotation ambient's basis vectors by label
_AMBIENT = {
    "E": (0, 0), "H1": (2, 0), "A1": (2, 1), "H2": (4, 0), "A2": (4, 1), "H3": (6, 0),
}


def _ambient_with(products):
    """The rotation ambient table with the products of the given label
    pairs set to the given terms (label, coefficient); not scanned."""
    a = builtin_model("rotation-ambient")
    mul, diff = _tables(a)
    for (left, right), terms in products.items():
        key = _AMBIENT[left] + _AMBIENT[right]
        mul[key] = [(_AMBIENT[label][1], c) for label, c in terms]
    return _assemble(a, mul, diff)


def test_the_rotation_ambient_has_the_shape_the_scan_skips_on():
    a = builtin_model("rotation-ambient")
    assert all(not any(a.diff_table(n)) for n in range(a.cap))
    assert a.dim(0) == 1 and a._unit == {0: 1}
    _assert_algebra_scans_agree(a)
    assert validate_algebra(a) == []


def test_an_associativity_defect_with_no_unit_factor_is_found():
    # H1 * H1 = 0 leaves (H1 * H1) * A1 = 0 against H1 * (H1 * A1) = A3:
    # a triple whose left product is zero and right product is not.
    dropped = _ambient_with({("H1", "H1"): []})
    # A1 * A2 = A2 * A1 = H3 keeps commutativity, but not associativity
    # on triples whose products are all nonzero, such as (H1, A1, A1).
    moved = _ambient_with({("A1", "A2"): [("H3", 1)], ("A2", "A1"): [("H3", 1)]})
    for mutant in (dropped, moved):
        _assert_algebra_scans_agree(mutant)
        found = validate_algebra(mutant)
        assert found and all(f.startswith("associativity fails") for f in found)
        assert not any("'E'" in f for f in found)
    assert "associativity fails on ('H1', 'H1', 'A1')" in validate_algebra(dropped)
    assert "associativity fails on ('H1', 'A1', 'A1')" in validate_algebra(moved)


def test_a_non_neutral_unit_is_found_in_every_tuple_it_spoils():
    # E * A2 = A2 * E = 2 * A2: commutative, but the unit is not neutral
    # on A2, so the tuples with the unit as a factor are scanned again.
    doubled = _ambient_with({("E", "A2"): [("A2", 2)], ("A2", "E"): [("A2", 2)]})
    _assert_algebra_scans_agree(doubled)
    found = validate_algebra(doubled)
    assert "associativity fails on ('E', 'E', 'A2')" in found
    assert found[-1] == "unit is not neutral on 'A2'"
    assert validate_algebra(doubled, limit=1) == [found[0]]
