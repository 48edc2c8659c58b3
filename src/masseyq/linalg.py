"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values: always in lowest terms, always
with a positive denominator, so equality is literal equality and printing
is canonical (``p/q`` or ``p``).  Vectors are tuples of fractions and
matrices are immutable row-major grids, stored dense.

Coercion to Fraction, and the refusal of floats, happens at the public
constructors only: ``Matrix(...)``, ``Matrix.from_columns``,
``Subspace.span``, ``AffineCoset`` and the right-hand side of ``solve``.
Matrices that masseyq computes itself, such as the output of ``rref``,
skip it.

Elimination is Gauss-Jordan that skips zero entries, so its cost follows
the nonzeros of the sparse matrices the algebras produce.  It picks the
leftmost nonzero pivot and nothing else, which makes every reduced form,
particular solution and kernel basis canonical: the same input yields
identical output on every run.  ``kernel_basis`` needs one elimination:
on the column-reversed matrix the null vectors, read back in the
original order, already form the reduced-echelon basis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def fr(value) -> Fraction:
    """Coerce an int, string like ``2/3``, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    return Fraction(value)


def vector(entries: Iterable) -> Vector:
    return tuple(fr(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_is_zero(v: Vector) -> bool:
    return not any(v)


class Matrix:
    """Immutable rational matrix, stored dense and row-major.

    Elimination (rref, Subspace.reduce) and ``matvec`` skip zero entries.
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

        ``entries`` must be a tuple of equally long tuples of Fractions,
        ``cols`` long each; nothing is checked.  Input from outside goes
        through the public constructor, which coerces and rejects floats.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def _trusted_columns(cls, columns: Sequence[Vector], rows: int) -> "Matrix":
        """``from_columns`` for columns of Fractions masseyq computed itself."""
        entries = tuple(zip(*columns)) if columns else ((),) * rows
        return cls._trusted(entries, len(columns))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted((zero_vector(cols),) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._trusted(tuple(unit_vector(n, i) for i in range(n)), n)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: int) -> "Matrix":
        for c in columns:
            if len(c) != rows:
                raise ValueError(f"column length {len(c)} != rows {rows}")
        return cls(
            [[c[i] for c in columns] for i in range(rows)], cols=len(columns)
        )

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def matvec(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"matvec shape mismatch: {self.cols} cols vs {len(v)}")
        nonzero = [(j, c) for j, c in enumerate(v) if c]
        return tuple(sum((r[j] * c for j, c in nonzero), _ZERO) for r in self.entries)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matmul shape mismatch")
        return Matrix._trusted_columns(
            [self.matvec(other.column(j)) for j in range(other.cols)], self.rows
        )

    def augment(self, v: Vector) -> "Matrix":
        if len(v) != self.rows:
            raise ValueError("augment length mismatch")
        return Matrix._trusted(
            tuple(r + (fr(v[i]),) for i, r in enumerate(self.entries)),
            self.cols + 1,
        )

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)

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


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns)``.  The pivot in each step is the
    first nonzero entry in the leftmost unfinished column; pivots are
    scaled to 1 and cleared above and below.  Deterministic by
    construction, with no magnitude heuristics.

    Elimination touches nonzero entries only: the pivot row is zero left
    of its pivot, so each update subtracts its nonzero entries to the
    right of the pivot from the rows that are nonzero in the pivot column.
    """
    work = [list(r) for r in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        inv = prow[c]
        prow[c] = _ONE
        tail = [j for j in range(c + 1, m.cols) if prow[j]]
        if inv != 1:
            for j in tail:
                prow[j] /= inv
        for i in range(m.rows):
            row = work[i]
            f = row[c]
            if f and i != r:
                row[c] = _ZERO
                for j in tail:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix._trusted(tuple(map(tuple, work)), m.cols), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(a: Matrix, b: Vector) -> Optional[Vector]:
    """Canonical particular solution of ``a x = b``, or None if inconsistent.

    The solution sets every free variable to zero, so it is unique and
    reproducible.  Inconsistency is detected by a pivot appearing in the
    augmented column.
    """
    if len(b) != a.rows:
        raise ValueError(f"solve shape mismatch: {a.rows} rows vs rhs {len(b)}")
    reduced, pivots = rref(a.augment(b))
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for k, p in enumerate(pivots):
        x[p] = reduced.entries[k][a.cols]
    return tuple(x)


class Subspace:
    """A linear subspace of Q^n held as a reduced-echelon row basis.

    The stored basis is the canonical one (reduced row echelon form with
    zero rows dropped), so two Subspace objects are equal exactly when
    they describe the same subspace.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_nonzero")

    def __init__(self, ambient_dim: int, basis: Sequence[Vector], pivots: Sequence[int]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(v) for v in basis))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_nonzero", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError(
                    f"vector length {len(v)} != ambient dim {ambient_dim}"
                )
        return cls._trusted_span(ambient_dim, vecs)

    @classmethod
    def _trusted_span(cls, ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        """``span`` of vectors of Fractions that masseyq computed itself.

        Every vector must have length ``ambient_dim``; nothing is coerced
        or checked.
        """
        if not vectors:
            return cls(ambient_dim, [], [])
        reduced, pivots = rref(Matrix._trusted(tuple(vectors), ambient_dim))
        return cls(ambient_dim, reduced.entries[: len(pivots)], pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [], [])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Vector) -> Vector:
        """Residue of v after eliminating all pivot coordinates."""
        if len(v) != self.ambient_dim:
            raise ValueError("reduce length mismatch")
        out = list(v)
        for p, row, nonzero in zip(self.pivots, self.basis, self._nonzero_columns()):
            c = out[p]
            if c:
                for j in nonzero:
                    out[j] -= c * row[j]
        return tuple(out)

    def _nonzero_columns(self) -> tuple[tuple[int, ...], ...]:
        """Nonzero column indices of each basis row, computed once."""
        if self._nonzero is None:
            object.__setattr__(
                self,
                "_nonzero",
                tuple(
                    tuple(j for j, b in enumerate(row) if b)
                    for row in self.basis
                ),
            )
        return self._nonzero

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(v) for v in other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace._trusted_span(self.ambient_dim, self.basis + other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_basis(a: Matrix) -> Subspace:
    """Null space of ``a`` as a canonical Subspace of Q^cols, by one ``rref``.

    Eliminate ``a`` with its columns reversed.  The null vector of a
    free column f has a 1 at f, 0 at every other free column, and
    nonzeros only at pivot columns left of f (a pivot row is zero left
    of its pivot).  Mapped back to the original column order, each
    vector leads with its 1 and is 0 at the other leading columns: taken
    right to left, that is the reduced-echelon basis itself.
    """
    n = a.cols
    reduced, pivots = rref(Matrix._trusted(tuple(r[::-1] for r in a.entries), n))
    pivot_set = set(pivots)
    basis, leads = [], []
    for f in reversed(range(n)):
        if f in pivot_set:
            continue
        v = [_ZERO] * n
        v[n - 1 - f] = _ONE
        for k, p in enumerate(pivots):
            if p > f:
                break
            v[n - 1 - p] = -reduced.entries[k][f]
        basis.append(tuple(v))
        leads.append(n - 1 - f)
    return Subspace(n, basis, leads)


class AffineCoset:
    """An affine coset ``point + direction`` inside Q^n.

    The point is stored reduced against the direction subspace, so equal
    cosets get equal stored data.
    """

    __slots__ = ("point", "direction")

    def __init__(self, point: Vector, direction: Subspace):
        point = vector(point)
        if len(point) != direction.ambient_dim:
            raise ValueError("point length does not match the direction space")
        object.__setattr__(self, "point", direction.reduce(point))
        object.__setattr__(self, "direction", direction)

    def __setattr__(self, name, value):
        raise AttributeError("AffineCoset is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    def contains(self, v: Vector) -> bool:
        return self.direction.contains(vec_sub(vector(v), self.point))

    def contains_zero(self) -> bool:
        return vec_is_zero(self.point)

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
        return hash((self.point, self.direction))

    def __repr__(self):
        return f"AffineCoset(dim={self.direction.dim}, ambient={self.ambient_dim})"
