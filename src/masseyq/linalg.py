"""Exact linear algebra over the rationals.

Scalars are exact rationals: an ``int`` when the value is integral, a
``fractions.Fraction`` (lowest terms, positive denominator) when it is
not.  Most coefficients are small integers, and an int skips the gcd a
Fraction pays on every operation.  An int and an integral Fraction agree
under ``==``, ``hash`` and ``str``, so either may stand for an integer
without changing any result or output.  ``_div`` is the one division of
coefficients; it makes a Fraction only where a remainder is left, so
``int / int`` never makes a float.

Every vector that leaves this module is sparse, a dict from index to
nonzero entry, summed by ``sparse_sum`` (``sparse_combination`` for a
linear combination of sparse terms): cochains, cohomology classes,
eliminated rows, solutions, and the points and functionals of cosets
and certificates.  A cochain (``Element``) and a class
(``CohomologyClass``) are both a ``GradedVector``: its ``terms`` are
that dict and its ``coords`` the dense tuple, a view computed on each
access.  A linear map is held as sparse columns, one per source basis
vector (``apply_columns``, ``transpose``); matrix data from outside,
such as datum files, is read into sparse columns where it enters
(``columns_of_rows``).  Dense tuples
remain only at public edges: ``coords``, and ``Matrix``, a dense
row-major grid, with ``rref`` and ``solve`` on it, public dense helpers
that nothing in the package calls; they are due for removal.

Coercion by ``fr``, and the refusal of floats and bools, happens at the
public constructors only: ``columns_of_rows``, ``Matrix(...)``, a
``GradedVector``'s and the right-hand side of ``solve``.  ``Subspace``
and ``AffineCoset`` wrap sparse data that masseyq computed itself, and
results such as the output of ``rref`` skip it too.

Every elimination runs on one core, ``_eliminate``: Gaussian elimination
and back substitution on sparse rows with a column -> rows index, so
pivot search and updates visit nonzero entries only, exact
cancellations are dropped and empty rows cost nothing.  ``solve_rows``,
``kernel_rows`` and ``Subspace.span_rows`` take sparse rows, as the
cochain algebras hand out their differentials, and so do ``rref`` and
``solve`` after reading their matrix.
Pivots are taken column by column from
the left, scaled to 1 and cleared above and below, so every reduced
form, particular solution and kernel basis is the unique reduced-echelon
one: the same input yields identical output on every run, whichever row
serves as pivot.  A kernel needs one elimination: on the column-reversed
matrix the null vectors, read back in the original order, already form
the reduced-echelon basis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

# An exact scalar: an int when integral, a Fraction otherwise.
Scalar = Union[int, Fraction]
Vector = tuple[Scalar, ...]
# Column index -> nonzero entry; a missing index is a zero.
SparseVector = dict[int, Scalar]

_ZERO = 0
_ONE = 1


def _q(x: Fraction) -> Scalar:
    """``x`` as an int when it is integral, else ``x`` itself."""
    return x.numerator if x.denominator == 1 else x


def _div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, the one division of coefficients.  For a
    and b as ``fr`` makes them, it is an int when it is integral and a
    Fraction otherwise."""
    if b == -1:
        return -a
    return _q(Fraction(a) / b)


def fr(value) -> Scalar:
    """Coerce an int, string like ``2/3``, or Fraction to an exact scalar:
    an int when the value is integral, a Fraction otherwise.  Floats and
    bools are refused."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    if isinstance(value, bool):
        raise TypeError("bools are not coefficients; pass int, str or Fraction")
    return _q(value if isinstance(value, Fraction) else Fraction(value))


def vector(entries: Iterable) -> Vector:
    return tuple(fr(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


class Matrix:
    """Immutable rational matrix, stored dense and row-major: a public
    dense helper, due for removal, that no code path of the package uses.

    Elimination reads it as sparse rows; ``matvec`` skips zero entries.
    ``entries`` is a sequence of rows, each entry coerced by ``fr``.
    Empty shapes are legal but the column count must then be passed
    explicitly, since it cannot be inferred from zero rows.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        rows = [tuple(fr(e) for e in row) for row in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} disagrees with row width {width}")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def _trusted(cls, entries: tuple[Vector, ...], cols: int) -> "Matrix":
        """Wrap rows that masseyq computed itself, without coercion.

        ``entries`` must be a tuple of equally long tuples of scalars,
        ``cols`` long each; nothing is checked.  Input from outside goes
        through the public constructor, which coerces and rejects floats.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def matvec(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"matvec shape mismatch: {self.cols} cols vs {len(v)}")
        nonzero = [(j, c) for j, c in enumerate(v) if c]
        return tuple(sum((r[j] * c for j, c in nonzero), _ZERO) for r in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.entries]}, cols={self.cols})"


def _sparse_rows(m: Matrix) -> list[SparseVector]:
    return [sparsify(r) for r in m.entries]


def apply_columns(columns: Sequence[SparseVector], v: SparseVector) -> SparseVector:
    """sum_i v[i] * columns[i] over the nonzeros of v."""
    return sparse_combination((c, columns[i].items()) for i, c in v.items())


def columns_of_rows(rows: Sequence[Sequence], cols: int) -> list[SparseVector]:
    """The ``cols`` sparse columns of a matrix given as rows of ``cols``
    entries each, coerced by ``fr`` (floats are refused); ValueError
    ("ragged rows") on a row of another length."""
    columns: list[SparseVector] = [{} for _ in range(cols)]
    for k, row in enumerate(rows):
        if len(row) != cols:
            raise ValueError("ragged rows")
        for j, entry in enumerate(row):
            value = fr(entry)
            if value:
                columns[j][k] = value
    return columns


def transpose(vectors: Sequence[SparseVector], n: int) -> list[SparseVector]:
    """The ``n`` sparse rows of the matrix whose columns are ``vectors``."""
    rows: list[SparseVector] = [{} for _ in range(n)]
    for j, vec in enumerate(vectors):
        for k, x in vec.items():
            rows[k][j] = x
    return rows


def densify(row: SparseVector, n: int) -> Vector:
    """The length-``n`` tuple with the entries of a sparse row."""
    out = [_ZERO] * n
    for j, v in row.items():
        out[j] = v
    return tuple(out)


def sparsify(v: Vector) -> SparseVector:
    """The nonzero entries of a tuple, by index."""
    return {j: x for j, x in enumerate(v) if x}


def sparse_combination(pairs: Iterable[tuple[Scalar, Iterable]]) -> SparseVector:
    """The nonzero coordinates of the sum of c * x over the ``(k, x)`` of
    each ``(c, terms)`` pair, in the order of each index's first term
    (Gustavson's sparse accumulator, ACM TOMS 4(3), 1978); a second pass
    drops zeros only when some coordinate came out zero."""
    out: SparseVector = {}
    zero = False
    for c, terms in pairs:
        for k, x in terms:
            out[k] = x = out[k] + c * x if k in out else c * x
            if not x:
                zero = True
    return {k: c for k, c in out.items() if c} if zero else out


def sparse_sum(terms: Iterable[tuple[int, Scalar]]) -> SparseVector:
    """The nonzero coordinates of a sum of ``(index, coefficient)`` terms."""
    return sparse_combination(((_ONE, terms),))


class GradedVector:
    """A vector in one degree of a graded space: its owner, its degree and
    its nonzero terms.

    ``terms`` maps index to nonzero scalar, never holds a zero and is
    read-only by convention; ``coords`` is the dense tuple, computed on
    each access.  A subclass names the owner (its slot ``_owner`` under a
    public alias), gives its dimension in a degree (``_dim(owner, n)``)
    and words the errors: ``_LENGTH`` (formatted with n, dim and degree),
    ``_OTHER_OWNER`` and ``_OTHER_DEGREE`` (with the two degrees).
    """

    __slots__ = ("_owner", "degree", "terms")

    def __init__(self, owner, degree: int, coords: Iterable):
        """Dense coordinates from outside, coerced by ``fr`` (floats are
        refused) and checked against the owner's dimension."""
        coords = vector(coords)
        dim = self._dim(owner, degree)
        if len(coords) != dim:
            raise ValueError(self._LENGTH.format(n=len(coords), dim=dim, degree=degree))
        object.__setattr__(self, "_owner", owner)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", sparsify(coords))

    @classmethod
    def _trusted(cls, owner, degree: int, terms: SparseVector):
        """Wrap terms that masseyq computed itself: indices below the
        owner's dimension, nonzero scalars; nothing is checked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "_owner", owner)
        object.__setattr__(obj, "degree", degree)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coords(self) -> Vector:
        return densify(self.terms, self._dim(self._owner, self.degree))

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "GradedVector"):
        if self._owner is not other._owner:
            raise ValueError(self._OTHER_OWNER)
        if self.degree != other.degree:
            raise ValueError(self._OTHER_DEGREE.format(self.degree, other.degree))

    def __add__(self, other):
        self._check_compatible(other)
        terms = sparse_sum([*self.terms.items(), *other.terms.items()])
        return self._trusted(self._owner, self.degree, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = fr(c)
        terms = {k: c * a for k, a in self.terms.items()} if c else {}
        return self._trusted(self._owner, self.degree, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, GradedVector)
            and self._owner is other._owner
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self._owner), self.degree, frozenset(self.terms.items())))


def _eliminate(
    rows: Iterable[SparseVector], cols: int
) -> tuple[list[SparseVector], tuple[int, ...]]:
    """The nonzero rows of the rref of sparse rows, sorted by pivot, and the pivots.

    Empty rows are dropped, the others copied in their order, not
    changed.  A column index records which
    rows are nonzero in each column, so finding a pivot and clearing its
    column visit those rows only, and each update touches the pivot row's
    nonzeros only.  Entries that cancel to zero are deleted.

    A forward pass takes the columns left to right; among the unfinished
    rows nonzero in a column the shortest becomes the pivot row, to limit
    fill-in, and the column is cleared in the other unfinished rows.
    Which row serves cannot change the result: the reduced row echelon
    form is unique.  A backward pass then clears each pivot column in the
    rows above, last pivot first.
    """
    work = [dict(r) for r in rows if r]
    if not work:
        return [], ()
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(work):
        for j in row:
            holders.setdefault(j, set()).add(i)
    finished = [False] * len(work)
    pivots: list[int] = []
    pivot_rows: list[int] = []
    for c in range(cols):
        if len(pivots) == len(work):
            break
        below = [i for i in holders.get(c, ()) if not finished[i]]
        if not below:
            continue
        r = min(below, key=lambda i: (len(work[i]), i))
        prow = work[r]
        inv = prow.pop(c)
        if inv != 1:
            for j in prow:
                prow[j] = _div(prow[j], inv)
        prow[c] = _ONE
        _clear_column(work, holders, r, c, below)
        finished[r] = True
        pivots.append(c)
        pivot_rows.append(r)
    # Last pivot first, so every pivot row used is already reduced.
    for c, r in zip(reversed(pivots), reversed(pivot_rows)):
        _clear_column(work, holders, r, c, holders[c])
    return [work[r] for r in pivot_rows], tuple(pivots)


def _clear_column(
    work: list[SparseVector],
    holders: dict[int, set[int]],
    r: int,
    c: int,
    targets: Iterable[int],
) -> None:
    """Subtract multiples of pivot row r (1 at column c) from the target
    rows so that they are zero at c, keeping the column index current.

    A target row already zero at c is skipped; updates touch columns
    other than c only, so ``targets`` may be ``holders[c]`` itself.
    """
    tail = [(j, v) for j, v in work[r].items() if j != c]
    for i in targets:
        if i == r:
            continue
        row = work[i]
        f = row.pop(c, None)
        if f is None:
            continue
        for j, v in tail:
            old = row.get(j)
            if old is None:
                row[j] = -f * v
                holders[j].add(i)
            else:
                new = old - f * v
                if new:
                    row[j] = new
                else:
                    del row[j]
                    holders[j].discard(i)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns)``: the nonzero rows of the reduced
    form in pivot order, then the zero rows.  Pivots are scaled to 1 and
    cleared above and below.  The rows are eliminated sparse (see
    ``_eliminate``) and densified on the way out.
    """
    reduced, pivots = _eliminate(_sparse_rows(m), m.cols)
    rows = [densify(row, m.cols) for row in reduced]
    rows += [zero_vector(m.cols)] * (m.rows - len(rows))
    return Matrix._trusted(tuple(rows), m.cols), pivots


def solve(a: Matrix, b: Vector) -> Optional[Vector]:
    """Canonical particular solution of ``a x = b``, or None if inconsistent.

    The dense edge of ``solve_rows``.
    """
    if len(b) != a.rows:
        raise ValueError(f"solve shape mismatch: {a.rows} rows vs rhs {len(b)}")
    x = solve_rows(_sparse_rows(a), a.cols, sparsify(vector(b)))
    return None if x is None else densify(x, a.cols)


def solve_rows(
    rows: Sequence[SparseVector], cols: int, b: SparseVector
) -> Optional[SparseVector]:
    """The solution of ``rows x = b`` for a matrix given as sparse rows
    with ``cols`` columns and ``b`` keyed by row, sparse; None if
    inconsistent.

    The solution sets every free variable to zero, so it is unique and
    reproducible; for b = 0 it is 0, returned without an elimination.
    Inconsistency is detected by a pivot appearing in the augmented
    column.
    """
    if not b:
        return {}
    augmented = list(rows)
    for k, c in b.items():
        augmented[k] = {**augmented[k], cols: c}
    reduced, pivots = _eliminate(augmented, cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    return {p: row[cols] for row, p in zip(reduced, pivots) if cols in row}


class Subspace:
    """A linear subspace of Q^n held as a reduced-echelon row basis.

    The stored basis is the canonical one (reduced row echelon form with
    zero rows dropped), so two Subspace objects are equal exactly when
    they describe the same subspace.  ``rows`` holds it sparse, as the
    elimination that built it left it.  The constructor wraps such rows
    and their pivots unchecked; ``span_rows`` builds a subspace from
    arbitrary sparse vectors.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(
        self, ambient_dim: int, rows: Sequence[SparseVector], pivots: Sequence[int]
    ):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span_rows(cls, ambient_dim: int, rows: Sequence[SparseVector]) -> "Subspace":
        """The span of sparse vectors of scalars in Q^ambient_dim, unchecked."""
        reduced, pivots = _eliminate(rows, ambient_dim)
        return cls(ambient_dim, reduced, pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce_row(self, row: SparseVector) -> SparseVector:
        """Residue of a sparse vector after eliminating all pivot
        coordinates; the residue is sparse too.

        A basis row is zero at the other pivots, so each pivot
        coordinate is eliminated once, in any order.
        """
        out = dict(row)
        for p, basis_row in zip(self.pivots, self.rows):
            c = out.get(p)
            if c:
                for j, b in basis_row.items():
                    new = out.get(j, _ZERO) - c * b
                    if new:
                        out[j] = new
                    else:
                        del out[j]
        return out

    def separating_functional(self, v: SparseVector) -> Optional[SparseVector]:
        """A functional zero on the subspace and not at v, or None if v lies in it.

        For a free column f, e_f - sum_k R_k[f] e_(p_k) over the rows R_k
        with pivots p_k is zero on every row, and its value at v is the f
        entry of v's residue, which is zero at the pivots: the first free
        column where the residue is nonzero gives the functional.
        """
        residue = self.reduce_row(v)
        if not residue:
            return None
        f = min(residue)
        phi = {p: -row[f] for p, row in zip(self.pivots, self.rows) if f in row}
        phi[f] = _ONE
        return phi

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return not any(self.reduce_row(row) for row in other.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __hash__(self):
        rows = tuple(frozenset(row.items()) for row in self.rows)
        return hash((self.ambient_dim, self.pivots, rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_rows(rows: Sequence[SparseVector], cols: int) -> Subspace:
    """Null space of a matrix given as sparse rows, by one elimination.

    Eliminate the matrix with its columns reversed.  The null vector of a
    free column f has a 1 at f, 0 at every other free column, and
    nonzeros only at pivot columns left of f (a pivot row is zero left
    of its pivot).  Mapped back to the original column order, each
    vector leads with its 1 and is 0 at the other leading columns: taken
    right to left, that is the reduced-echelon basis itself.  Each entry
    of a reduced row off its pivot is one entry of one null vector, so
    the basis is read off in one pass over the reduced rows.
    """
    last = cols - 1
    reduced, pivots = _eliminate(
        [{last - j: v for j, v in row.items()} for row in rows], cols
    )
    null: dict[int, SparseVector] = {}
    for row, p in zip(reduced, pivots):
        for f, v in row.items():
            if f != p:
                null.setdefault(f, {})[last - p] = -v
    pivot_set = set(pivots)
    basis, leads = [], []
    for f in reversed(range(cols)):
        if f not in pivot_set:
            vec = null.get(f, {})
            vec[last - f] = _ONE
            basis.append(vec)
            leads.append(last - f)
    return Subspace(cols, basis, leads)


class AffineCoset:
    """An affine coset ``point + direction`` inside Q^n.

    The point is a sparse vector, stored reduced against the direction
    subspace, so equal cosets get equal stored data, and v lies in the
    coset exactly when it reduces to the point.  Both are wrapped as
    masseyq computed them; nothing is checked.
    """

    __slots__ = ("point", "direction")

    def __init__(self, point: SparseVector, direction: Subspace):
        object.__setattr__(self, "point", direction.reduce_row(point))
        object.__setattr__(self, "direction", direction)

    def __setattr__(self, name, value):
        raise AttributeError("AffineCoset is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    def contains(self, v: SparseVector) -> bool:
        return self.direction.reduce_row(v) == self.point

    def contains_zero(self) -> bool:
        return not self.point

    def contained_in(self, other: "AffineCoset") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return other.contains(self.point) and other.direction.contains_subspace(
            self.direction
        )

    def __eq__(self, other):
        return (
            isinstance(other, AffineCoset)
            and self.direction == other.direction
            and self.point == other.point
        )

    def __hash__(self):
        return hash((frozenset(self.point.items()), self.direction))

    def __repr__(self):
        return f"AffineCoset(dim={self.direction.dim}, ambient={self.ambient_dim})"
