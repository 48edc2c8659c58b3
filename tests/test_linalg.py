from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from masseyq import linalg
from masseyq.linalg import (
    AffineCoset,
    Matrix,
    Subspace,
    fr,
    _sparse_rows,
    apply_columns,
    columns_of_rows,
    densify,
    kernel_rows,
    rref,
    solve,
    solve_rows,
    sparse_combination,
    sparse_sum,
    sparsify,
    transpose,
    vector,
    zero_vector,
)
from oracles import (
    coset_contained_in_reference,
    coset_contains_reference,
    dense_rows,
    ff_rref,
    solve_reference,
)


def unit_vector(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(j == i)) for j in range(n))


def _kernel(m: Matrix) -> Subspace:
    """The null space of a dense matrix, by ``kernel_rows`` on its rows."""
    return kernel_rows(_sparse_rows(m), m.cols)


def _span(dim: int, vectors) -> Subspace:
    """The span of dense vectors, eliminated from their sparse rows."""
    return Subspace.span_rows(dim, [sparsify(vector(v)) for v in vectors])


def test_fr_accepts_ints_and_strings_but_not_floats():
    assert fr(3) == Fraction(3)
    assert fr("2/5") == Fraction(2, 5)
    assert fr(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(TypeError):
        fr(0.5)
    # an integral value comes back an int, whatever its spelling
    for value in (3, "3", "6/2", Fraction(6, 2), "-4/2"):
        assert type(fr(value)) is int, value
    assert type(fr("2/5")) is Fraction


def test_fr_refuses_bools_like_floats():
    # Python counts True as 1, but a bool is not a coefficient: taken as
    # it is, it would print as "True".
    for value in (True, False):
        with pytest.raises(TypeError, match="bools"):
            fr(value)
    with pytest.raises(TypeError, match="bools"):
        Matrix([[True]])
    with pytest.raises(TypeError, match="bools"):
        columns_of_rows([[False]], 1)


def test_public_constructors_coerce_and_reject_floats():
    # Internal results skip coercion; what comes from outside still pays it.
    for build in (
        lambda: Matrix([[0.5]]),
        lambda: columns_of_rows([[0.5]], 1),
        lambda: solve(Matrix([[1]]), (0.5,)),
    ):
        with pytest.raises(TypeError):
            build()
    # Integral values are ints, the others Fractions; never a float or bool.
    m = Matrix([[1], ["1/2"]])
    assert m.entries == ((Fraction(1),), (Fraction(1, 2),))
    assert [type(x) for row in m.entries for x in row] == [int, Fraction]
    s = Subspace.span_rows(2, [{0: 2, 1: 1}])
    assert s.rows == ({0: 1, 1: Fraction(1, 2)},)
    assert [type(s.rows[0][j]) for j in (0, 1)] == [int, Fraction]
    reduced, _ = rref(Matrix([[2, 3], [4, 1]]))
    assert all(type(x) in (int, Fraction) for row in reduced.entries for x in row)


def test_rref_collapses_dependent_rows():
    m = Matrix([[2, 4], [1, 2]])
    r, pivots = rref(m)
    assert r == Matrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_identity_fixed_point():
    m = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_fractional_pivots():
    m = Matrix([[fr("1/2"), 1], [1, 3]])
    r, pivots = rref(m)
    assert pivots == (0, 1)
    assert r == Matrix([[1, 0], [0, 1]])


def test_solve_picks_zero_free_variables():
    a = Matrix([[1, 1]])
    assert solve(a, vector([3])) == (Fraction(3), Fraction(0))


def test_solve_reports_inconsistency():
    a = Matrix([[1, 1], [1, 1]])
    assert solve(a, vector([1, 2])) is None


def test_solve_empty_shapes():
    a = Matrix([], cols=3)
    assert solve(a, vector([])) == zero_vector(3)
    b = Matrix([[0], [0]], cols=1)
    assert solve(b, vector([0, 0])) == zero_vector(1)
    assert solve(b, vector([1, 0])) is None


def test_kernel_of_sum_functional():
    k = _kernel(Matrix([[1, 1]]))
    assert k.rows == ({0: 1, 1: -1},)
    assert k.dim == 1


def test_kernel_dimension_plus_rank_is_cols():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(0, 5)
        cols = rng.randint(1, 5)
        m = Matrix(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        k = _kernel(m)
        assert k.dim + len(rref(m)[1]) == cols
        for v in dense_rows(k):
            assert not any(m.matvec(v))


def _sparse_matrix(rng, rows, cols, density):
    """A sparse rational matrix with some all-zero rows and columns."""
    dead_rows = set(rng.sample(range(rows), rows // 5))
    dead_cols = set(rng.sample(range(cols), cols // 5))
    entries = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if i in dead_rows or j in dead_cols or rng.random() >= density:
                row.append(Fraction(0))
            else:
                row.append(
                    Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3, 7]))
                )
        entries.append(row)
    # Repeat a few rows, scaled, so the rank drops below the row count.
    for _ in range(rows // 8):
        src, dst = rng.randrange(rows), rng.randrange(rows)
        entries[dst] = [Fraction(-2, 3) * x for x in entries[src]]
    return entries


def _sparse_cases():
    """Matrices up to 40x60 at about 10% density, as the algebras produce."""
    rng = random.Random(31)
    shapes = [(40, 60), (60, 40), (25, 25), (12, 50), (40, 60), (1, 30), (30, 1)]
    return [(_sparse_matrix(rng, rows, cols, 0.1), cols) for rows, cols in shapes]


def _dense_reduce(basis, pivots, v):
    out = list(v)
    for row, p in zip(basis, pivots):
        c = out[p]
        if c != 0:
            out = [a - c * b for a, b in zip(out, row)]
    return tuple(out)


def test_sparse_kernel_and_reduce_match_dense_references():
    rng = random.Random(37)
    for entries, cols in _sparse_cases():
        m = Matrix(entries, cols=cols)
        kernel = _kernel(m)
        assert kernel.dim == cols - len(rref(m)[1])
        for v in dense_rows(kernel):
            assert not any(m.matvec(v))

        row_space = _span(cols, entries)
        for _ in range(5):
            v = vector(_sparse_matrix(rng, 1, cols, 0.3)[0])
            assert densify(row_space.reduce_row(sparsify(v)), cols) == _dense_reduce(
                dense_rows(row_space), row_space.pivots, v
            )
        for row in entries:
            assert not row_space.reduce_row(sparsify(vector(row)))


_ENTRIES = [Fraction(c) for c in (-2, -1, 0, 0, 0, 1, 3)] + [Fraction(1, 2), Fraction(-5, 3)]


@st.composite
def _rational_matrices(draw):
    """Up to 6x6, zero-heavy, sometimes with a whole row or column zeroed."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = draw(
        st.lists(
            st.lists(st.sampled_from(_ENTRIES), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    if rows and draw(st.booleans()):
        entries[draw(st.integers(0, rows - 1))] = [Fraction(0)] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in entries:
            row[j] = Fraction(0)
    return entries, cols


def _two_elimination_kernel(entries, cols):
    """Null vectors from ff_rref of the matrix, then ff_rref of those."""
    reduced, pivots = ff_rref(entries, cols)
    gens = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -reduced[k][f]
        gens.append(v)
    basis, leads = ff_rref(gens, cols)
    return basis[: len(leads)], leads


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_rational_matrices())
@example(([], 3))  # no rows at all
@example(([[0, 0, 0], [0, 0, 0]], 3))  # rank 0
@example(([[1, 2], [0, 1], [3, 0]], 2))  # full column rank
@example(([[0, 1, 0], [0, 0, 0], [0, 2, 0]], 3))  # zero rows and columns
def test_kernel_basis_is_canonical_in_one_elimination(case):
    entries, cols = case
    kernel = _kernel(Matrix(entries, cols=cols))
    respan = Subspace.span_rows(cols, kernel.rows)
    assert (respan.rows, respan.pivots) == (kernel.rows, kernel.pivots)
    for v in dense_rows(kernel):
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in entries)
    assert kernel.dim == cols - len(ff_rref(entries, cols)[1])
    assert (dense_rows(kernel), kernel.pivots) == _two_elimination_kernel(entries, cols)


def _combination(draw, vectors, dim):
    """A drawn linear combination of dense vectors of length dim."""
    out = [Fraction(0)] * dim
    for v in vectors:
        c = draw(st.sampled_from(_ENTRIES))
        out = [a + c * b for a, b in zip(out, v)]
    return out


@st.composite
def _sparse_systems(draw):
    """Sparse rows x = b up to 7x6: zero-heavy, with zero rows, sometimes
    a repeated row, and a right-hand side that is empty, the image of a
    drawn x, or drawn freely (often inconsistent)."""
    entries, cols = draw(_rational_matrices())
    if entries and draw(st.booleans()):
        entries.append(list(entries[draw(st.integers(0, len(entries) - 1))]))
    kind = draw(st.sampled_from(["empty", "image", "free"]))
    if kind == "empty":
        b = []
    elif kind == "image":
        x = draw(st.lists(st.sampled_from(_ENTRIES), min_size=cols, max_size=cols))
        b = [sum((a * c for a, c in zip(row, x)), Fraction(0)) for row in entries]
    else:
        size = len(entries)
        b = draw(st.lists(st.sampled_from(_ENTRIES), min_size=size, max_size=size))
    return [sparsify(row) for row in entries], cols, sparsify(b)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_sparse_systems())
@example(([], 3, {}))  # no rows, empty right-hand side
@example(([{0: 1}, {0: 1}], 1, {0: 1}))  # a repeated row, two values
@example(([{}, {1: 2}], 2, {0: 1}))  # a zero row with a nonzero value
@example(([{0: 1, 1: 2}], 2, {}))  # empty right-hand side
@example(([{}, {}], 0, {1: 3}))  # no columns
def test_sparse_solve_matches_the_fraction_free_oracle(system):
    rows, cols, b = system
    before = [dict(row) for row in rows]
    got = solve_rows(rows, cols, b)
    want = solve_reference(
        [densify(row, cols) for row in rows], cols, densify(b, len(rows))
    )
    assert rows == before
    if want is None:
        assert got is None
    else:
        assert got is not None and 0 not in got.values()
        assert densify(got, cols) == tuple(want)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_sparse_systems())
@example(([], 0, {}))
def test_a_homogeneous_system_solves_to_zero_without_an_elimination(system):
    rows, cols, _ = system
    with mock.patch.object(linalg, "_eliminate", side_effect=AssertionError):
        assert solve_rows(rows, cols, {}) == {}
    dense = [densify(row, cols) for row in rows]
    assert solve_reference(dense, cols, [0] * len(rows)) == [0] * cols


@st.composite
def _coset_cases(draw):
    """Two cosets of Q^dim as dense (point, directions) and a vector.
    Sometimes the first lies in the second, and sometimes the vector lies
    in the first."""
    dim = draw(st.integers(0, 5))
    vectors = st.lists(st.sampled_from(_ENTRIES), min_size=dim, max_size=dim)
    big = (draw(vectors), draw(st.lists(vectors, max_size=3)))
    if draw(st.booleans()):
        point = [a + b for a, b in zip(big[0], _combination(draw, big[1], dim))]
        directions = [
            _combination(draw, big[1], dim) for _ in range(draw(st.integers(0, 2)))
        ]
    else:
        point, directions = draw(vectors), draw(st.lists(vectors, max_size=3))
    if draw(st.booleans()):
        v = [a + b for a, b in zip(point, _combination(draw, directions, dim))]
    else:
        v = draw(vectors)
    return dim, (point, directions), big, v


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_coset_cases())
@example((2, ([1, 0], [[1, -1]]), ([0, 1], [[2, -2], [0, 0]]), [0, 0]))
@example((2, ([1, 0], []), ([0, 0], [[1, 1]]), [1, 0]))
@example((0, ([], []), ([], [[]]), []))
def test_coset_containment_matches_the_dense_reference(case):
    dim, (point, directions), big, v = case
    coset = AffineCoset(sparsify(point), _span(dim, directions))
    other = AffineCoset(sparsify(big[0]), _span(dim, big[1]))
    assert coset.contains(sparsify(v)) == coset_contains_reference(
        point, directions, v, dim
    )
    assert coset.contains_zero() == coset_contains_reference(
        point, directions, [0] * dim, dim
    )
    assert coset.contained_in(other) == coset_contained_in_reference(
        (point, directions), big, dim
    )


def test_rref_matches_fraction_free_oracle():
    rng = random.Random(23)
    cases = []
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [
            [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(cols)]
            for _ in range(rows)
        ]
        cases.append((entries, cols))
    cases += _sparse_cases()
    for entries, cols in cases:
        ours, our_pivots = rref(Matrix(entries, cols=cols))
        theirs, their_pivots = ff_rref(entries, cols)
        assert our_pivots == their_pivots
        assert ours.entries == theirs


def test_solve_solutions_actually_solve():
    rng = random.Random(5)
    solved = 0
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = Matrix(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        x = vector([rng.randint(-3, 3) for _ in range(cols)])
        b = a.matvec(x)
        got = solve(a, b)
        assert got is not None
        assert a.matvec(got) == b
        solved += 1
    assert solved == 60


def test_subspace_membership_and_sum():
    # a vector lies in a subspace exactly when it reduces to zero; a sum is
    # the span of both bases
    s = _span(2, [[1, 1]])
    assert not s.reduce_row({0: 2, 1: 2})
    assert s.reduce_row({0: 1}) == {1: -1}
    t = _span(2, [[1, 0]])
    both = Subspace.span_rows(2, s.rows + t.rows)
    assert both.dim == 2
    assert not both.reduce_row({0: 5, 1: -7})


def test_subspace_reduce_is_idempotent_and_kills_members():
    rng = random.Random(77)
    for _ in range(30):
        dim = rng.randint(1, 5)
        gens = [
            sparsify([rng.randint(-3, 3) for _ in range(dim)])
            for _ in range(rng.randint(0, 3))
        ]
        s = Subspace.span_rows(dim, gens)
        v = sparsify([rng.randint(-3, 3) for _ in range(dim)])
        r = s.reduce_row(v)
        assert s.reduce_row(r) == r
        for g in gens:
            assert not s.reduce_row(g)
        assert not s.reduce_row(sparse_sum([*v.items(), *((k, -c) for k, c in r.items())]))


def test_subspace_canonical_basis_is_presentation_independent():
    a = _span(3, [[1, 2, 0], [0, 0, 1]])
    b = _span(3, [[2, 4, 2], [0, 0, -5], [1, 2, 3]])
    assert a == b
    assert hash(a) == hash(b)
    assert (a.rows, a.pivots) == (b.rows, b.pivots)
    assert a != _span(3, [[1, 2, 0]])


def test_contains_subspace():
    big = _span(3, [unit_vector(3, 0), unit_vector(3, 1)])
    small = _span(3, [[1, 1, 0]])
    assert big.contains_subspace(small)
    assert not small.contains_subspace(big)


def test_affine_coset_example():
    direction = _span(2, [[1, -1]])
    c = AffineCoset({0: 1}, direction)
    assert not c.contains_zero()


def test_affine_coset_zero_detection():
    direction = _span(2, [[1, -1]])
    c = AffineCoset({0: 2, 1: -2}, direction)
    assert c.contains_zero()
    assert c.contains({})


def test_affine_coset_point_is_reduced():
    direction = _span(2, [[1, -1]])
    a = AffineCoset({0: 1}, direction)
    b = AffineCoset({1: 1}, direction)
    assert a.point == b.point
    assert a == b
    assert hash(a) == hash(b)


def test_affine_coset_containment():
    small = AffineCoset({0: 1}, _span(3, [[0, 1, 0]]))
    big = AffineCoset({0: 1}, _span(3, [[0, 1, 0], [0, 0, 1]]))
    assert small.contained_in(big)
    assert not big.contained_in(small)


def test_matrix_ops_consistency():
    a = Matrix([[1, 2], [3, 4], [5, 6]])
    v = vector([1, 1])
    assert a.matvec(v) == vector([3, 7, 11])


def test_sparse_columns_agree_with_matvec_and_transpose_back():
    rng = random.Random(9)
    for _ in range(20):
        p, q = rng.randint(0, 4), rng.randint(0, 4)
        a = Matrix([[rng.randint(-3, 3) for _ in range(q)] for _ in range(p)], cols=q)
        rows = [{j: x for j, x in enumerate(row) if x} for row in a.entries]
        columns = transpose(rows, q)
        assert transpose(columns, p) == rows
        v = vector([rng.randint(-3, 3) for _ in range(q)])
        assert densify(apply_columns(columns, sparsify(v)), p) == a.matvec(v)


def test_update_that_cancels_to_an_exact_zero():
    # Row 2 minus row 1 cancels in columns 0 and 1 at once; the cancelled
    # entries must leave the elimination instead of lingering as zeros.
    m = Matrix([[1, 1, 0], [1, 1, 1]])
    reduced, pivots = rref(m)
    assert reduced == Matrix([[1, 1, 0], [0, 0, 1]])
    assert pivots == (0, 2)
    assert _kernel(m).rows == ({0: 1, 1: -1},)
    assert solve(m, vector([2, 3])) == vector([2, 0, 1])
    span = Subspace.span_rows(3, _sparse_rows(m))
    assert dense_rows(span) == reduced.entries
    assert span.rows == ({0: 1, 1: 1}, {2: 1})


def test_eliminations_with_no_rows():
    empty = Matrix([], cols=3)
    assert rref(empty) == (empty, ())
    kernel = _kernel(empty)
    assert kernel.rows == ({0: 1}, {1: 1}, {2: 1})
    assert kernel.pivots == (0, 1, 2)
    assert solve(empty, vector([])) == zero_vector(3)
    assert Subspace.span_rows(3, []) == Subspace.zero(3)


def test_eliminations_with_no_columns():
    flat = Matrix([[], []], cols=0)
    assert rref(flat) == (flat, ())
    assert _kernel(flat).dim == 0
    assert solve(flat, vector([0, 0])) == ()
    assert solve(flat, vector([1, 0])) is None
    assert Subspace.span_rows(0, [{}, {}]) == Subspace.zero(0)


# -- the sparse accumulator --------------------------------------------------------


def _two_pass_sum(terms):
    """Sum every term per index, then drop the zeros: the accumulator as it
    was before zeros were filtered only when one came out."""
    out = {}
    for k, c in terms:
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


# zero, unit and small int coefficients next to Fractions, integral ones too
_ACC_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)
# few indices, so they repeat
_ACC_TERMS = st.lists(st.tuples(st.integers(0, 5), _ACC_SCALARS), max_size=6)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(st.tuples(_ACC_SCALARS, _ACC_TERMS), max_size=6), st.data())
@example([(1, [(0, 1), (0, -1)])], None)  # an exact cancellation
@example([(0, [(2, 5)]), (2, [(1, 0)])], None)  # zero coefficients
@example([(2, [(3, 1), (1, 1)]), (-2, [(3, 1)]), (1, [(3, 4)])], None)  # back again
def test_sparse_accumulator_matches_the_two_pass_sum(pairs, data):
    if data is not None:
        # cancel some pairs exactly by appending their negation
        for c, terms in list(pairs):
            if data.draw(st.booleans()):
                pairs.append((-c, terms))
    flat = [(k, c * x) for c, terms in pairs for k, x in terms]
    want = _two_pass_sum(flat)
    combined = sparse_combination((c, iter(terms)) for c, terms in pairs)
    for got in (combined, sparse_sum(iter(flat))):
        assert got == want
        # the order of the terms reaches the output: dict order and types
        assert list(got.items()) == list(want.items())
        assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
        assert 0 not in got.values()


# -- eliminations with empty rows ---------------------------------------------------


@st.composite
def _matrices_with_empty_rows(draw):
    """A drawn matrix, sometimes zeroed whole, with empty rows put in
    between its rows."""
    entries, cols = draw(_rational_matrices())
    if draw(st.booleans()):
        entries = [[Fraction(0)] * cols for _ in entries]
    for _ in range(draw(st.integers(0, 4))):
        entries.insert(draw(st.integers(0, len(entries))), [Fraction(0)] * cols)
    return entries, cols


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_matrices_with_empty_rows(), st.data())
@example(([[0, 0, 0]] * 3, 3), None)  # all zero
@example(([[0, 0], [1, 2], [0, 0], [0, 0], [2, 4], [0, 0]], 2), None)
@example(([[0, 0, 0], [0, 1, 0], [0, 0, 0], [1, 0, 1]], 3), None)
def test_eliminations_of_empty_rows_match_the_fraction_free_oracle(case, data):
    entries, cols = case
    rows = [sparsify(vector(row)) for row in entries]
    reduced, pivots = ff_rref(entries, cols)
    span = Subspace.span_rows(cols, rows)
    assert (dense_rows(span), span.pivots) == (reduced[: len(pivots)], pivots)
    kernel = kernel_rows(rows, cols)
    assert (dense_rows(kernel), kernel.pivots) == _two_elimination_kernel(entries, cols)
    if data is None:
        b = [Fraction(k + 1) for k in range(len(entries))]
    else:
        size = len(entries)
        b = data.draw(st.lists(st.sampled_from(_ENTRIES), min_size=size, max_size=size))
    got = solve_rows(rows, cols, sparsify(vector(b)))
    want = solve_reference(entries, cols, b)
    assert (got is None) == (want is None)
    if want is not None:
        assert densify(got, cols) == tuple(want)


def test_a_zero_matrix_has_every_vector_in_its_kernel_and_solves_only_zero():
    rows = [{}, {}, {}]
    assert kernel_rows(rows, 2) == Subspace(2, [{0: 1}, {1: 1}], [0, 1])
    assert Subspace.span_rows(2, rows) == Subspace.zero(2)
    assert solve_rows(rows, 2, {}) == {}
    assert solve_rows(rows, 2, {1: 5}) is None
    assert solve_reference([[0, 0]] * 3, 2, [0, 5, 0]) is None
