"""Cohomology of a capped cochain algebra, with triple Massey products.

The quotient H^n = ker(d)/im(d) is realized concretely: a canonical basis
of harmonic representatives is chosen by row-reducing the cocycle space
and dropping the pivots that belong to the coboundary space.  Cocycles,
coboundaries and the primitives of a triple product are eliminated from
the sparse rows and columns the algebra reads off its differential
table; no dense differential matrix is built on the way.  Projection
to class coordinates and lifting back to cocycles are exact inverse
operations on representatives, so every computation downstream has a
checkable witness in the cochain algebra.

A ring works by h-power blocks, H(A (x) Q[h]) = H(A) (x) Q[h], and
reads the cup product off structure constants that its base ring
computes once (see CohomologyRing).

Because the differential out of the top degree is not part of the data,
cohomology is only available in degrees up to cap-1; asking higher raises
DegreeCapError with the cap that would suffice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

from .cdga import AlgebraMorphism, CochainAlgebra, Element, PolyInput, Terms
from .errors import (
    AlgebraValidationError,
    ConsistencyError,
    DegreeCapError,
)
from .linalg import (
    AffineCoset,
    GradedVector,
    SparseVector,
    Subspace,
    apply_columns,
    kernel_rows,
    solve_rows,
    sparse_combination,
    transpose,
)

_ZERO = 0
_ONE = 1


@dataclass(frozen=True)
class _DegreeData:
    cocycles: Subspace
    coboundaries: Subspace
    class_pivots: tuple[int, ...]
    representatives: tuple[SparseVector, ...]
    # on an extension degree, the (h power, base degree, base class index)
    # of each class and the class offset of each h power; the defaults are
    # one block at offset 0
    split: tuple[tuple[int, int, int], ...] = ()
    offsets: tuple[int, ...] = (0,)

    @cached_property
    def class_index(self) -> dict[int, int]:
        return {p: i for i, p in enumerate(self.class_pivots)}


def _direct_sum(dim: int, parts: Sequence[tuple[int, _DegreeData]]) -> _DegreeData:
    """The data of a direct sum of blocks, each given with its column
    offset, in ascending order: every row and pivot shifted by it."""
    if len(parts) == 1:  # the one block with a basis sits at offset 0
        return parts[0][1]

    def shifted(field: str) -> Subspace:
        rows, pivots = [], []
        for offset, block in parts:
            space = getattr(block, field)
            rows += [{k + offset: v for k, v in row.items()} for row in space.rows]
            pivots += [p + offset for p in space.pivots]
        return Subspace(dim, rows, pivots)

    return _DegreeData(
        cocycles=shifted("cocycles"),
        coboundaries=shifted("coboundaries"),
        class_pivots=tuple(
            p + offset for offset, block in parts for p in block.class_pivots
        ),
        representatives=tuple(
            {k + offset: v for k, v in rep.items()}
            for offset, block in parts
            for rep in block.representatives
        ),
    )


def _class_coords(data: _DegreeData, terms: SparseVector) -> SparseVector:
    """Class coordinates of a cocycle: its residue read at the class pivots."""
    index = data.class_index
    reduced = data.coboundaries.reduce_row(terms)
    return {index[k]: v for k, v in reduced.items() if k in index}


class CohomologyClass(GradedVector):
    """An element of H^degree in class coordinates (see GradedVector)."""

    __slots__ = ()
    ring = GradedVector._owner
    _LENGTH = "class coordinate length {n} != dim H^{degree} = {dim}"
    _OTHER_OWNER = _OTHER_DEGREE = "classes live in different rings or degrees"

    @staticmethod
    def _dim(ring: "CohomologyRing", degree: int) -> int:
        return ring.class_dim(degree)

    def representative(self) -> Element:
        return self.ring.lift(self)

    def __str__(self):
        return f"[{self.representative()}]"

    def __repr__(self):
        return f"CohomologyClass(deg={self.degree}, {self})"


class CohomologyRing:
    """Cohomology of a cochain algebra in degrees 0..cap-1, block by block.

    ``block_ring`` is the ring of the base when the algebra is an
    extension base (x) Q[h], and the ring itself otherwise.  Degree n is
    the direct sum of the blocks ``(j, base degree, offset, size)`` of
    ``TensorInfo.row(n)``, and d is block diagonal with contiguous column
    blocks in ascending j.  A reduced row echelon form is unique, so that
    of d is the blocks' forms side by side: the data of degree n
    (cocycles, coboundaries, class pivots and representatives) is the
    block ring's data of each base degree shifted by its offset, and its
    record also holds the h power, base degree and base index of each
    class.  A plain ring's degree n is its own block.  Each base degree is
    eliminated once, on first use.  The class basis is canonical for the
    algebra's basis order, so coordinates are reproducible across runs.

    The block ring caches the products of base classes: the nonzero
    (class index, coefficient) terms of e_i * e_j, filled on first use by
    reducing the product of the two base representatives, a cocycle by
    the Leibniz rule, against the coboundaries.  ``_product`` shifts them
    into the class block of h^(a+b), as (e h^a)(f h^b) = (e f) h^(a+b),
    on each call.  Only the pairs some product needs are filled, and the
    cache lives exactly as long as the ring.

    A table base is not re-capped, and no differential is stored out of
    its cap, neither in the base nor in the extension.  So the block of
    base degree cap is all cocycles, its coboundaries are the image of d
    out of degree cap - 1, and products above the base cap are zero.
    """

    def __init__(self, algebra: CochainAlgebra):
        self.algebra = algebra
        info = algebra.tensor_info
        # None for a plain algebra, whose block ring is itself: holding self
        # would make every ring a reference cycle
        self._block_ring = None if info is None else CohomologyRing(info.base)
        self._data: dict[int, _DegreeData] = {}  # per extension degree
        # per base degree of this ring's algebra, when it serves as a block ring
        self._blocks: dict[int, _DegreeData] = {}
        self._base_products: dict[tuple[int, int, int, int], Terms] = {}

    @property
    def block_ring(self) -> "CohomologyRing":
        return self if self._block_ring is None else self._block_ring

    @property
    def top(self) -> int:
        """Highest degree in which cohomology is known: cap - 1."""
        return self.algebra.cap - 1

    def _degree(self, n: int) -> _DegreeData:
        if not (0 <= n <= self.top):
            raise DegreeCapError(
                f"cohomology in degree {n} needs cap at least {n + 1}, "
                f"have {self.algebra.cap}",
                required_cap=n + 1,
            )
        if self._block_ring is None:
            return self._block(n)
        data = self._data.get(n)
        if data is None:
            parts = []
            split: list[tuple[int, int, int]] = []
            offsets: list[int] = []
            for j, bdeg, offset, _ in self.algebra.tensor_info.row(n):
                # the blocks before j with no basis hold no classes
                offsets += [len(split)] * (j + 1 - len(offsets))
                block = self._block_ring._block(bdeg)
                parts.append((offset, block))
                split.extend((j, bdeg, k) for k in range(len(block.class_pivots)))
            offsets += [len(split)] * (n // 2 + 1 - len(offsets))
            whole = _direct_sum(self.algebra.dim(n), parts)
            data = replace(whole, split=tuple(split), offsets=tuple(offsets))
            self._data[n] = data
        return data

    def _block(self, n: int) -> _DegreeData:
        """The data of degree n of this ring's algebra as a block, 0 <= n <= cap."""
        data = self._blocks.get(n)
        if data is None:
            a = self.algebra
            dim = a.dim(n)
            if n < a.cap:
                cocycles = kernel_rows(a.diff_rows(n), dim)
            else:
                cocycles = Subspace(dim, [{i: _ONE} for i in range(dim)], range(dim))
            if n == 0:
                coboundaries = Subspace.zero(dim)
            else:
                coboundaries = Subspace.span_rows(dim, a.diff_columns(n - 1))
            boundary_pivots = set(coboundaries.pivots)
            class_pivots = []
            reps = []
            for row, pivot in zip(cocycles.rows, cocycles.pivots):
                if pivot not in boundary_pivots:
                    class_pivots.append(pivot)
                    reps.append(coboundaries.reduce_row(row))
            data = self._blocks[n] = _DegreeData(
                cocycles=cocycles,
                coboundaries=coboundaries,
                class_pivots=tuple(class_pivots),
                representatives=tuple(reps),
            )
        return data

    # -- dimensions ----------------------------------------------------------

    def class_dim(self, n: int) -> int:
        return len(self._degree(n).class_pivots)

    def betti(self) -> tuple[int, ...]:
        return tuple(self.class_dim(n) for n in range(self.top + 1))

    def cocycles(self, n: int) -> Subspace:
        return self._degree(n).cocycles

    def coboundaries(self, n: int) -> Subspace:
        return self._degree(n).coboundaries

    def is_cocycle(self, el: Element) -> bool:
        return el.algebra.differential(el).is_zero()

    # -- projection and lifting ----------------------------------------------

    def project(self, el: Element) -> CohomologyClass:
        """The class of a cocycle; rejects elements with d != 0."""
        if el.algebra is not self.algebra:
            raise ValueError("element lives in a different algebra")
        data = self._degree(el.degree)
        if not self.is_cocycle(el):
            raise AlgebraValidationError(
                f"element {el} of degree {el.degree} is not a cocycle "
                f"(d gives {el.d()})"
            )
        return CohomologyClass._trusted(self, el.degree, _class_coords(data, el.terms))

    def lift(self, cls: CohomologyClass) -> Element:
        """The canonical harmonic representative of a class."""
        if cls.ring is not self:
            raise ValueError("class belongs to a different ring")
        reps = self._degree(cls.degree).representatives
        terms = apply_columns(reps, cls.terms)
        return Element._trusted(self.algebra, cls.degree, terms)

    def h_block(self, cls: CohomologyClass, j: int) -> CohomologyClass:
        """The h^j coefficient of a class, a class of ``block_ring`` in
        degree ``cls.degree - 2j``."""
        n = cls.degree
        data = self._degree(n)
        bounds = data.offsets + (len(data.class_pivots),)
        lo, hi = bounds[j], bounds[j + 1]
        terms = {k - lo: v for k, v in cls.terms.items() if lo <= k < hi}
        return CohomologyClass._trusted(self.block_ring, n - 2 * j, terms)

    def _product(self, p: int, i: int, q: int, j: int) -> Terms:
        """The nonzero (class index, coefficient) terms of e_i * e_j, for
        basis classes e_i of H^p and e_j of H^q.

        The block ring's product of their base classes, shifted into the
        class block of the sum of their h powers.
        """
        if self._block_ring is None:
            return self._base_product(p, i, q, j)
        a, bp, bi = self._degree(p).split[i]
        b, bq, bj = self._degree(q).split[j]
        entry = self._block_ring._base_product(bp, bi, bq, bj)
        offset = self._degree(p + q).offsets[a + b]
        if offset:
            entry = tuple((offset + k, v) for k, v in entry)
        return entry

    def _base_product(self, p: int, i: int, q: int, j: int) -> Terms:
        """``_product`` for the basis classes of the blocks of degrees p and
        q of this ring's algebra, up to its cap; empty above it."""
        key = (p, i, q, j)
        entry = self._base_products.get(key)
        if entry is None:
            a, n = self.algebra, p + q
            if n > a.cap:
                entry = ()
            else:
                left = Element._trusted(a, p, self._block(p).representatives[i])
                right = Element._trusted(a, q, self._block(q).representatives[j])
                # a cocycle by Leibniz: reduced without a cocycle check
                terms = _class_coords(self._block(n), (left * right).terms)
                entry = tuple(sorted(terms.items()))
            self._base_products[key] = entry
        return entry

    def zero_class(self, n: int) -> CohomologyClass:
        self.class_dim(n)  # DegreeCapError above the top
        return CohomologyClass._trusted(self, n, {})

    def basis_class(self, n: int, i: int) -> CohomologyClass:
        dim = self.class_dim(n)
        if not (0 <= i < dim):
            raise IndexError(f"H^{n} has dimension {dim}, no index {i}")
        return CohomologyClass._trusted(self, n, {i: _ONE})

    def basis_classes(self, n: int) -> list[CohomologyClass]:
        return [self.basis_class(n, i) for i in range(self.class_dim(n))]

    def unit_class(self) -> CohomologyClass:
        return self.project(self.algebra.unit())

    def class_from_polynomial(self, poly: PolyInput) -> CohomologyClass:
        return self.project(self.algebra.from_polynomial(poly))

    def __repr__(self):
        return f"CohomologyRing(top={self.top})"


def cup(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Product of classes, read bilinearly off the ring's structure
    constants (see CohomologyRing): the projection of the product of the
    two canonical representatives."""
    if a.ring is not b.ring:
        raise ValueError("classes live in different rings")
    ring = a.ring
    p, q = a.degree, b.degree
    n = p + q
    if n > ring.top:
        raise DegreeCapError(
            f"cup product in degree {n} needs cap at least {n + 1}",
            required_cap=n + 1,
        )
    right = b.terms.items()
    terms = sparse_combination(
        (ca * cb, ring._product(p, i, q, j))
        for i, ca in a.terms.items()
        for j, cb in right
    )
    return CohomologyClass._trusted(ring, n, terms)


def ideal_products(
    ring: CohomologyRing, classes: Sequence[CohomologyClass], n: int
) -> list[SparseVector]:
    """Sparse class coordinates of each generator times each basis class of
    the complementary degree, generator by generator, in degree n.

    These products span the degree-n piece of the ideal the classes
    generate; graded commutativity makes one-sided products enough.
    """
    vectors = []
    for g in classes:
        if g.ring is not ring:
            raise ValueError("ideal generators must live in the given ring")
        p, rest = g.degree, n - g.degree
        if rest < 0:
            continue
        for j in range(ring.class_dim(rest)):
            vectors.append(
                sparse_combination(
                    (c, ring._product(p, i, rest, j)) for i, c in g.terms.items()
                )
            )
    return vectors


def ideal_degree_piece(
    ring: CohomologyRing, classes: Sequence[CohomologyClass], n: int
) -> Subspace:
    """The degree-n piece of the ideal generated by the given classes."""
    return Subspace.span_rows(ring.class_dim(n), ideal_products(ring, classes, n))


@dataclass(frozen=True)
class IdealCertificate:
    """A checked verdict on whether a class lies in the ideal (g1, g2).

    A member carries ``coefficients`` (alpha, beta) with
    g1 * alpha + g2 * beta equal to the class.  A non-member carries a
    ``functional`` on H^n, sparse by class index, that is zero on every
    product of a generator with a basis class and nonzero on the class.
    """

    member: bool
    coefficients: Optional[tuple[CohomologyClass, CohomologyClass]] = None
    functional: Optional[SparseVector] = None


def certify_ideal_membership(
    g1: CohomologyClass,
    g2: CohomologyClass,
    t: CohomologyClass,
    columns: Sequence[SparseVector],
    span: Subspace,
) -> IdealCertificate:
    """Decide whether t lies in the ideal of g1 and g2, with a checked certificate.

    ``columns`` are the products ``ideal_products`` lists for (g1, g2) in
    degree t.degree and ``span`` their span, already eliminated: a triple
    product's indeterminacy.  The verdict is whether the span holds t.  A
    non-member's functional is read off the span's echelon form and
    checked by dot products against every column and t.  A member is
    solved once, columns * (alpha, beta) = t, and checked by recomputing
    g1 * alpha + g2 * beta through ``cup``.  A failed check raises
    ConsistencyError.
    """
    ring, n = t.ring, t.degree
    phi = span.separating_functional(t.terms)
    if phi is not None:
        dot = lambda v: sum(phi.get(k, _ZERO) * c for k, c in v.items())
        if any(dot(col) for col in columns) or not dot(t.terms):
            raise ConsistencyError(
                f"ideal membership in degree {n}: the functional read off the "
                "indeterminacy's echelon form fails to vanish on the ideal or "
                "vanishes on the class"
            )
        return IdealCertificate(False, functional=phi)
    sol = solve_rows(transpose(columns, ring.class_dim(n)), len(columns), t.terms)
    if sol is not None:
        split = ring.class_dim(n - g1.degree)
        left = {k: c for k, c in sol.items() if k < split}
        right = {k - split: c for k, c in sol.items() if k >= split}
        alpha = CohomologyClass._trusted(ring, n - g1.degree, left)
        beta = CohomologyClass._trusted(ring, n - g2.degree, right)
    if sol is None or cup(g1, alpha) + cup(g2, beta) != t:
        raise ConsistencyError(
            f"ideal membership in degree {n}: solve gives no coefficients "
            "that reproduce the class through cup, although the "
            "indeterminacy contains it"
        )
    return IdealCertificate(True, coefficients=(alpha, beta))


@dataclass(frozen=True)
class MasseyResult:
    """Outcome of a triple product computation.

    When ``defined`` is false only ``reason`` and the failing products are
    populated.  Otherwise the result carries the full witness chain: the
    solved primitives x (with d x = sign-twisted a*b) and y (with
    d y = sign-twisted b*c), the assembled representative, its class, the
    indeterminacy subspace in class coordinates, and the coset.
    ``vanishes`` is the zero test of the coset's reduced point.
    ``in_ideal`` is the certified verdict of ``certify_ideal_membership``
    on whether the representative lies in the ideal of the two outer
    classes, whose degree piece is the indeterminacy; ``ideal_columns``
    are the products that span it, as ``ideal_products`` lists them.
    """

    defined: bool
    degree: int
    inputs: tuple[CohomologyClass, CohomologyClass, CohomologyClass]
    reason: Optional[str] = None
    left_product: Optional[CohomologyClass] = None
    right_product: Optional[CohomologyClass] = None
    x_witness: Optional[Element] = None
    y_witness: Optional[Element] = None
    representative: Optional[Element] = None
    rep_class: Optional[CohomologyClass] = None
    indeterminacy: Optional[Subspace] = None
    coset: Optional[AffineCoset] = None
    vanishes: Optional[bool] = None
    in_ideal: Optional[bool] = None
    ideal_columns: Optional[list[SparseVector]] = field(
        default=None, compare=False, repr=False
    )


def _primitive(el: Element) -> Element:
    """The canonical primitive of the exact cochain el; 0 for el = 0,
    which needs no differential."""
    alg, n = el.algebra, el.degree - 1
    terms = solve_rows(alg.diff_rows(n), alg.dim(n), el.terms) if el.terms else {}
    if terms is None:
        raise ConsistencyError(
            "product of representatives is not exact although the classes "
            "multiply to zero"
        )
    return Element._trusted(alg, n, terms)


def triple_massey(
    a: CohomologyClass, b: CohomologyClass, c: CohomologyClass
) -> MasseyResult:
    """The triple product of a, b, c as an explicit coset of H^{p+q+r-1}.

    Requires [a][b] = [b][c] = 0 (otherwise the result reports undefined).
    The representative is built from canonical primitives: with bar the
    degree-parity sign twist, x solves d x = bar(A) * B and y solves
    d y = bar(B) * C on canonical lifts, and the representative is
    bar(A) * y + bar(x) * C.  The indeterminacy a*H + H*c in the target
    degree is the degree piece of the ideal of a and c.
    """
    ring = a.ring
    if b.ring is not ring or c.ring is not ring:
        raise ValueError("all three classes must live in one ring")
    p, q, r = a.degree, b.degree, c.degree
    if min(p, q, r) < 1:
        raise AlgebraValidationError(
            "triple products need inputs of positive degree"
        )
    n = p + q + r - 1
    if n > ring.top:
        raise DegreeCapError(
            f"triple product lands in degree {n}, needs cap at least {n + 1}",
            required_cap=n + 1,
        )
    inputs = (a, b, c)

    left = cup(a, b)
    right = cup(b, c)
    if not left.is_zero() or not right.is_zero():
        reasons = []
        if not left.is_zero():
            reasons.append("the product of the first two classes is nonzero")
        if not right.is_zero():
            reasons.append("the product of the last two classes is nonzero")
        return MasseyResult(
            defined=False,
            degree=n,
            inputs=inputs,
            reason="; ".join(reasons),
            left_product=left,
            right_product=right,
        )

    A, B, C = ring.lift(a), ring.lift(b), ring.lift(c)

    x = _primitive(A.bar() * B)
    y = _primitive(B.bar() * C)

    rep = A.bar() * y + x.bar() * C
    try:
        rep_class = ring.project(rep)
    except AlgebraValidationError:
        raise ConsistencyError(
            f"assembled representative is not a cocycle: d gives {rep.d()}"
        ) from None

    products = ideal_products(ring, [a, c], n)
    indeterminacy = Subspace.span_rows(ring.class_dim(n), products)
    coset = AffineCoset(rep_class.terms, indeterminacy)
    certificate = certify_ideal_membership(a, c, rep_class, products, indeterminacy)

    return MasseyResult(
        defined=True,
        degree=n,
        inputs=inputs,
        left_product=left,
        right_product=right,
        x_witness=x,
        y_witness=y,
        representative=rep,
        rep_class=rep_class,
        indeterminacy=indeterminacy,
        coset=coset,
        vanishes=coset.contains_zero(),
        in_ideal=certificate.member,
        ideal_columns=products,
    )


def check_scaling_law(
    xi: CohomologyClass,
    base: MasseyResult,
    slot: int,
    product: Optional[Callable[..., MasseyResult]] = None,
) -> tuple[bool, MasseyResult]:
    """Verify xi * <a1,a2,a3> lies inside the product with xi in one slot.

    ``base`` is the already computed product <a1,a2,a3>; its inputs are
    read from ``base.inputs``.  ``slot`` is 1, 2 or 3 and names the input
    that absorbs xi.  The class xi must have even degree so that the
    scaled product is again defined.  ``product`` computes the scaled
    product, ``triple_massey`` by default; a caller passes a table's
    lookup to share it.  Returns whether the containment holds, and the
    scaled product.
    """
    if slot not in (1, 2, 3):
        raise ValueError("slot must be 1, 2 or 3")
    if xi.degree % 2 != 0:
        raise AlgebraValidationError(
            f"scaling class must have even degree, got {xi.degree}"
        )
    if not base.defined:
        raise AlgebraValidationError(
            f"base triple product is not defined: {base.reason}"
        )
    scaled_inputs = list(base.inputs)
    scaled_inputs[slot - 1] = cup(xi, scaled_inputs[slot - 1])
    scaled = (product or triple_massey)(*scaled_inputs)
    if not scaled.defined:
        raise ConsistencyError(
            "scaled triple product must be defined when the base product is; "
            f"got: {scaled.reason}"
        )
    return InducedMap.multiplication(xi).maps_into(base, scaled), scaled


class InducedMap:
    """A linear map on cohomology, H^n(source) -> H^(n + shift)(target) for
    0 <= n <= top, held as the sparse class columns of each degree: column
    i is the image of basis class i.  The constructor takes the map an
    algebra morphism induces (shift 0); ``leading_block``,
    ``multiplication`` and ``stored`` make the others.  Each degree's
    columns are filled, or read from the stored ones, on first use.
    """

    def __init__(
        self,
        morphism: AlgebraMorphism,
        source: CohomologyRing,
        target: CohomologyRing,
    ):
        if morphism.source is not source.algebra:
            raise ValueError("source ring does not match the morphism source")
        if morphism.target is not target.algebra:
            raise ValueError("target ring does not match the morphism target")

        def fill(n: int) -> list[SparseVector]:
            return [
                target.project(morphism.apply(source.lift(e))).terms
                for e in source.basis_classes(n)
            ]

        top = min(source.top, target.top, morphism.trust_cap)
        self._set(morphism, source, target, 0, top, fill)

    def _set(self, morphism, source, target, shift: int, top: int, fill) -> None:
        self.morphism: Optional[AlgebraMorphism] = morphism
        self.source, self.target = source, target
        self.shift, self.top, self._fill = shift, top, fill
        self._columns: dict[int, tuple[SparseVector, ...]] = {}

    @classmethod
    def _of(cls, source, target, shift, top, fill) -> "InducedMap":
        fmap = cls.__new__(cls)
        fmap._set(None, source, target, shift, top, fill)
        return fmap

    @classmethod
    def leading_block(
        cls, source: CohomologyRing, target: CohomologyRing
    ) -> "InducedMap":
        """The identity of a ring, the embedding of a block ring into its
        extension's ring (h^0) or the retraction back (h = 0).

        The extension lays out the block ring's classes of degree n first,
        at class offset 0, so base class i is extension class i: column i
        is {i: 1} below the target's class dimension and empty above it.
        """
        if not (
            source is target
            or target is source.block_ring
            or source is target.block_ring
        ):
            raise ValueError("rings are not an extension ring and its block ring")

        def fill(n: int) -> list[SparseVector]:
            size = target.class_dim(n)
            return [{i: _ONE} if i < size else {} for i in range(source.class_dim(n))]

        return cls._of(source, target, 0, min(source.top, target.top), fill)

    @classmethod
    def multiplication(cls, xi: CohomologyClass) -> "InducedMap":
        """Cup product with xi, from each degree n up to the ring top minus
        the degree of xi: column i of degree n is xi times basis class i,
        as ``ideal_products`` lists it."""
        ring, p = xi.ring, xi.degree
        return cls._of(
            ring, ring, p, ring.top - p, lambda n: ideal_products(ring, [xi], n + p)
        )

    @classmethod
    def stored(
        cls,
        source: CohomologyRing,
        target: CohomologyRing,
        shift: int,
        columns: Sequence[Sequence[SparseVector]],
    ) -> "InducedMap":
        """A map given as the sparse class columns of degrees 0..len - 1,
        such as a datum's pushforward; ValueError unless degree n + shift is
        at most the target's top and each degree n's columns make a
        dim H^(n + shift)(target) x dim H^n(source) matrix."""
        for n, degree_columns in enumerate(columns):
            if n + shift > target.top:
                raise ValueError(f"matrix in degree {n} lands above the target top")
            rows, cols = target.class_dim(n + shift), source.class_dim(n)
            if len(degree_columns) != cols or any(
                k >= rows for column in degree_columns for k in column
            ):
                raise ValueError(f"matrix in degree {n} must be {rows}x{cols}")
        return cls._of(source, target, shift, len(columns) - 1, lambda n: columns[n])

    def columns(self, n: int) -> tuple[SparseVector, ...]:
        """The images of the basis classes of H^n, as sparse class columns."""
        if not (0 <= n <= self.top):
            raise DegreeCapError(
                f"induced map unknown in degree {n} (top {self.top})",
                required_cap=n + 1,
            )
        columns = self._columns.get(n)
        if columns is None:
            columns = self._columns[n] = tuple(self._fill(n))
        return columns

    def apply(self, cls: CohomologyClass) -> CohomologyClass:
        if cls.ring is not self.source:
            raise ValueError("class does not live in the source ring")
        n = cls.degree + self.shift
        self.target.class_dim(n)  # DegreeCapError above the target's top
        terms = apply_columns(self.columns(cls.degree), cls.terms)
        return CohomologyClass._trusted(self.target, n, terms)

    def kernel_class(self, n: int) -> Optional[CohomologyClass]:
        """The first class of the reduced-echelon basis of the kernel on
        H^n, or None when the map is injective there."""
        columns = self.columns(n)
        height = self.target.class_dim(n + self.shift)
        kernel = kernel_rows(transpose(columns, height), len(columns))
        if not kernel.dim:
            return None
        return CohomologyClass._trusted(self.source, n, kernel.rows[0])

    def apply_coset(self, coset: AffineCoset, n: int) -> AffineCoset:
        """The image of a coset of H^n, a coset of H^(n + shift)."""
        columns = self.columns(n)
        dim = self.target.class_dim(n + self.shift)
        images = [apply_columns(columns, row) for row in coset.direction.rows]
        direction = Subspace.span_rows(dim, images)
        return AffineCoset(apply_columns(columns, coset.point), direction)

    def maps_into(self, source: MasseyResult, target: MasseyResult) -> bool:
        """Whether the coset of ``source`` maps into that of ``target``."""
        image = self.apply_coset(source.coset, source.degree)
        return image.contained_in(target.coset)
