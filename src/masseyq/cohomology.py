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

The cup product is read from the ring's structure constants: the class
coordinates of each product of two basis classes, computed once as the
projection of the product of their representatives and cached on the
ring.  By bilinearity of projection, a product of classes is the same
combination of these constants that projecting the product of lifts
would give.

Because the differential out of the top degree is not part of the data,
cohomology is only available in degrees up to cap-1; asking higher raises
DegreeCapError with the cap that would suffice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cdga import AlgebraMorphism, CochainAlgebra, Element
from .errors import (
    AlgebraValidationError,
    ConsistencyError,
    DegreeCapError,
)
from .linalg import (
    AffineCoset,
    Matrix,
    SparseVector,
    Subspace,
    Vector,
    densify,
    fr,
    kernel_basis,
    kernel_rows,
    solve,
    solve_rows,
    unit_vector,
    vector,
    zero_vector,
)


@dataclass(frozen=True)
class _DegreeData:
    cocycles: Subspace
    coboundaries: Subspace
    class_pivots: tuple[int, ...]
    representatives: tuple[SparseVector, ...]


class CohomologyClass:
    """An element of H^degree, stored in class coordinates."""

    __slots__ = ("ring", "degree", "coords")

    def __init__(self, ring: "CohomologyRing", degree: int, coords):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coords", vector(coords))
        if len(self.coords) != ring.class_dim(degree):
            raise ValueError(
                f"class coordinate length {len(self.coords)} != "
                f"dim H^{degree} = {ring.class_dim(degree)}"
            )

    @classmethod
    def _trusted(
        cls, ring: "CohomologyRing", degree: int, coords: Vector
    ) -> "CohomologyClass":
        """Wrap class coordinates that masseyq computed itself.

        ``coords`` must be a tuple of Fractions of length
        ``ring.class_dim(degree)``; nothing is coerced or checked.  Input
        from outside goes through the public constructor.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "degree", degree)
        object.__setattr__(obj, "coords", coords)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("CohomologyClass is immutable")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def representative(self) -> Element:
        return self.ring.lift(self)

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._check(other)
        return CohomologyClass._trusted(
            self.ring,
            self.degree,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._check(other)
        return CohomologyClass._trusted(
            self.ring,
            self.degree,
            tuple(a - b for a, b in zip(self.coords, other.coords)),
        )

    def scale(self, c) -> "CohomologyClass":
        c = fr(c)
        return CohomologyClass._trusted(
            self.ring, self.degree, tuple(c * a for a in self.coords)
        )

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, CohomologyClass):
            return cup(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _check(self, other):
        if self.ring is not other.ring or self.degree != other.degree:
            raise ValueError("classes live in different rings or degrees")

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyClass)
            and self.ring is other.ring
            and self.degree == other.degree
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.ring), self.degree, self.coords))

    def __str__(self):
        return f"[{self.representative()}]"

    def __repr__(self):
        return f"CohomologyClass(deg={self.degree}, {self})"


class CohomologyRing:
    """Cohomology of a cochain algebra in degrees 0..cap-1.

    All per-degree data is computed on first use and cached.  The class
    basis in each degree is canonical for the algebra's basis order, so
    coordinates are reproducible across runs.

    The ring also caches its structure constants, one basis pair at a
    time: the entry for ``(p, i, q, j)`` holds the class coordinates of
    e_i * e_j, where e_i and e_j are the basis classes of H^p and H^q.
    An entry is filled on first use by projecting the product of the two
    representatives, so the cocycle check of ``project`` runs on every
    product that enters the cache.  Only the pairs some product needs are
    filled, and the cache lives exactly as long as the ring.
    """

    def __init__(self, algebra: CochainAlgebra):
        self.algebra = algebra
        self._data: dict[int, _DegreeData] = {}
        self._products: dict[tuple[int, int, int, int], Vector] = {}

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
        if n not in self._data:
            a = self.algebra
            dim = a.dim(n)
            cocycles = kernel_rows(a.diff_rows(n), dim)
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
            self._data[n] = _DegreeData(
                cocycles=cocycles,
                coboundaries=coboundaries,
                class_pivots=tuple(class_pivots),
                representatives=tuple(reps),
            )
        return self._data[n]

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
        reduced = data.coboundaries.reduce(el.coords)
        coords = tuple(reduced[p] for p in data.class_pivots)
        return CohomologyClass._trusted(self, el.degree, coords)

    def lift(self, cls: CohomologyClass) -> Element:
        """The canonical harmonic representative of a class."""
        if cls.ring is not self:
            raise ValueError("class belongs to a different ring")
        data = self._degree(cls.degree)
        out = list(zero_vector(self.algebra.dim(cls.degree)))
        for c, rep in zip(cls.coords, data.representatives):
            if c:
                for k, v in rep.items():
                    out[k] += c * v
        return Element._trusted(self.algebra, cls.degree, tuple(out))

    def _product(self, p: int, i: int, q: int, j: int) -> Vector:
        """Class coordinates of e_i * e_j for basis classes e_i of H^p, e_j of H^q.

        Computed on first use as the projection of the product of the two
        harmonic representatives, then cached for the life of the ring.
        """
        key = (p, i, q, j)
        entry = self._products.get(key)
        if entry is None:
            a = self.algebra
            left = Element._trusted(
                a, p, densify(self._degree(p).representatives[i], a.dim(p))
            )
            right = Element._trusted(
                a, q, densify(self._degree(q).representatives[j], a.dim(q))
            )
            entry = self.project(left * right).coords
            self._products[key] = entry
        return entry

    def zero_class(self, n: int) -> CohomologyClass:
        return CohomologyClass(self, n, zero_vector(self.class_dim(n)))

    def basis_class(self, n: int, i: int) -> CohomologyClass:
        dim = self.class_dim(n)
        if not (0 <= i < dim):
            raise IndexError(f"H^{n} has dimension {dim}, no index {i}")
        return CohomologyClass._trusted(self, n, unit_vector(dim, i))

    def basis_classes(self, n: int) -> list[CohomologyClass]:
        return [self.basis_class(n, i) for i in range(self.class_dim(n))]

    def unit_class(self) -> CohomologyClass:
        return self.project(self.algebra.unit())

    def class_from_polynomial(
        self, poly, expected_degree: Optional[int] = None
    ) -> CohomologyClass:
        return self.project(
            self.algebra.from_polynomial(poly, expected_degree=expected_degree)
        )

    def __repr__(self):
        return f"CohomologyRing(top={self.top})"


def cup(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Product of classes, read bilinearly from the ring's structure constants.

    Only pairs of nonzero coordinates are looked up, and each pair's
    product of basis classes is computed once per ring (see
    CohomologyRing).  The result equals the projection of the product of
    the two canonical representatives.
    """
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
    out = list(zero_vector(ring.class_dim(n)))
    right = [(j, cb) for j, cb in enumerate(b.coords) if cb]
    for i, ca in enumerate(a.coords):
        if ca:
            for j, cb in right:
                c = ca * cb
                for k, v in enumerate(ring._product(p, i, q, j)):
                    if v:
                        out[k] += c * v
    return CohomologyClass._trusted(ring, n, tuple(out))


def cup_matrix(ring: CohomologyRing, xi: CohomologyClass, n: int) -> Matrix:
    """Matrix of multiplication by xi from H^n to H^{n + deg xi}."""
    cols = [cup(xi, e).coords for e in ring.basis_classes(n)]
    return Matrix._trusted_columns(cols, ring.class_dim(n + xi.degree))


def ideal_products(
    ring: CohomologyRing, classes: Sequence[CohomologyClass], n: int
) -> list[Vector]:
    """Class coordinates of each generator times each basis class of the
    complementary degree, generator by generator, in degree n.

    These products span the degree-n piece of the ideal the classes
    generate; graded commutativity makes one-sided products enough.
    """
    vectors = []
    for g in classes:
        if g.ring is not ring:
            raise ValueError("ideal generators must live in the given ring")
        rest = n - g.degree
        if rest < 0:
            continue
        for e in ring.basis_classes(rest):
            vectors.append(cup(g, e).coords)
    return vectors


def ideal_degree_piece(
    ring: CohomologyRing, classes: Sequence[CohomologyClass], n: int
) -> Subspace:
    """The degree-n piece of the ideal generated by the given classes."""
    return Subspace._trusted_span(ring.class_dim(n), ideal_products(ring, classes, n))


@dataclass(frozen=True)
class IdealCertificate:
    """A checked verdict on whether a class lies in the ideal (g1, g2).

    A member carries ``coefficients`` (alpha, beta) with
    g1 * alpha + g2 * beta equal to the class.  A non-member carries a
    ``functional`` on H^n that is zero on every product of a generator
    with a basis class and nonzero on the class.
    """

    member: bool
    coefficients: Optional[tuple[CohomologyClass, CohomologyClass]] = None
    functional: Optional[Vector] = None


def certify_ideal_membership(
    g1: CohomologyClass,
    g2: CohomologyClass,
    t: CohomologyClass,
    columns: Sequence[Vector],
) -> IdealCertificate:
    """Decide whether t lies in the ideal of g1 and g2, with a checked certificate.

    The columns are the products g1 * e and then g2 * e over the class
    bases of the complementary degrees, as ``ideal_products`` lists them
    for (g1, g2) in degree t.degree, and one ``solve`` of
    columns * (alpha, beta) = t gives the verdict.  A solution is checked
    by recomputing g1 * alpha + g2 * beta through ``cup``.  Without one,
    ``kernel_basis`` of the transposed system yields the functionals that
    vanish on the ideal; the first that is nonzero on t is the
    certificate, checked by dot products against every column.  A failed
    check raises ConsistencyError.
    """
    ring, n = t.ring, t.degree
    dim = ring.class_dim(n)
    sol = solve(Matrix._trusted_columns(columns, dim), t.coords)
    if sol is not None:
        split = ring.class_dim(n - g1.degree)
        alpha = CohomologyClass._trusted(ring, n - g1.degree, sol[:split])
        beta = CohomologyClass._trusted(ring, n - g2.degree, sol[split:])
        if cup(g1, alpha) + cup(g2, beta) != t:
            raise ConsistencyError(
                f"ideal membership in degree {n}: solve gives coefficients "
                "but recomputing them through cup does not reproduce the class"
            )
        return IdealCertificate(True, coefficients=(alpha, beta))
    rows = Matrix._trusted(tuple(columns), dim)
    at_t = Matrix._trusted((t.coords,), dim)
    phi = next((f for f in kernel_basis(rows).basis if any(at_t.matvec(f))), None)
    if phi is None or any(rows.matvec(phi)):
        raise ConsistencyError(
            f"ideal membership in degree {n}: solve finds no coefficients "
            "but kernel_basis gives no functional that vanishes on the "
            "ideal and not on the class"
        )
    return IdealCertificate(False, functional=phi)


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
    classes.  For triple products the indeterminacy is that ideal's
    degree piece, so the two verdicts agree; disagreement raises
    ConsistencyError instead of returning.
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

    alg = ring.algebra
    A, B, C = ring.lift(a), ring.lift(b), ring.lift(c)

    ab = A.bar() * B
    x_coords = solve_rows(alg.diff_rows(p + q - 1), alg.dim(p + q - 1), ab.coords)
    if x_coords is None:
        raise ConsistencyError(
            "product of representatives is not exact although the classes "
            "multiply to zero"
        )
    x = alg.element(p + q - 1, x_coords)

    bc = B.bar() * C
    y_coords = solve_rows(alg.diff_rows(q + r - 1), alg.dim(q + r - 1), bc.coords)
    if y_coords is None:
        raise ConsistencyError(
            "product of representatives is not exact although the classes "
            "multiply to zero"
        )
    y = alg.element(q + r - 1, y_coords)

    rep = A.bar() * y + x.bar() * C
    if not rep.d().is_zero():
        raise ConsistencyError(
            f"assembled representative is not a cocycle: d gives {rep.d()}"
        )
    rep_class = ring.project(rep)

    products = ideal_products(ring, [a, c], n)
    indeterminacy = Subspace._trusted_span(ring.class_dim(n), products)
    coset = AffineCoset(rep_class.coords, indeterminacy)
    vanishes = coset.contains_zero()

    certificate = certify_ideal_membership(a, c, rep_class, products)
    if certificate.member != vanishes:
        raise ConsistencyError(
            f"the zero test and the ideal certificate of a triple product "
            f"disagree in degree {n}; the indeterminacy is the ideal piece, "
            "so this indicates corrupted data"
        )

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
        vanishes=vanishes,
        in_ideal=certificate.member,
    )


def scale_coset(
    ring: CohomologyRing, xi: CohomologyClass, coset: AffineCoset, n: int
) -> AffineCoset:
    """The image of a coset of H^n under multiplication by xi."""
    m = cup_matrix(ring, xi, n)
    point = m.matvec(coset.point)
    direction = Subspace._trusted_span(
        ring.class_dim(n + xi.degree), [m.matvec(v) for v in coset.direction.basis]
    )
    return AffineCoset(point, direction)


@dataclass(frozen=True)
class ContainmentReport:
    """One coset-containment check with its witnesses."""

    holds: bool
    scaled: AffineCoset
    target: AffineCoset


def check_scaling_law(
    xi: CohomologyClass, base: MasseyResult, slot: int
) -> tuple[ContainmentReport, MasseyResult, MasseyResult]:
    """Verify xi * <a1,a2,a3> lies inside the product with xi in one slot.

    ``base`` is the already computed product <a1,a2,a3>; its inputs are
    read from ``base.inputs``.  ``slot`` is 1, 2 or 3 and names the input
    that absorbs xi.  The class xi must have even degree so that the
    scaled product is again defined.  Returns the containment report
    together with both product results.
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
    ring = base.inputs[0].ring
    scaled_inputs = list(base.inputs)
    scaled_inputs[slot - 1] = cup(xi, scaled_inputs[slot - 1])
    scaled = triple_massey(*scaled_inputs)
    if not scaled.defined:
        raise ConsistencyError(
            "scaled triple product must be defined when the base product is; "
            f"got: {scaled.reason}"
        )
    image = scale_coset(ring, xi, base.coset, base.degree)
    report = ContainmentReport(
        holds=image.contained_in(scaled.coset), scaled=image, target=scaled.coset
    )
    return report, base, scaled


class InducedMap:
    """The map on cohomology induced by an algebra morphism."""

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
        self.morphism = morphism
        self.source = source
        self.target = target
        self.top = min(source.top, target.top, morphism.trust_cap)
        self._matrices: dict[int, Matrix] = {}

    def matrix(self, n: int) -> Matrix:
        if not (0 <= n <= self.top):
            raise DegreeCapError(
                f"induced map unknown in degree {n} (top {self.top})",
                required_cap=n + 1,
            )
        if n not in self._matrices:
            cols = []
            for e in self.source.basis_classes(n):
                image = self.morphism.apply(self.source.lift(e))
                cols.append(self.target.project(image).coords)
            self._matrices[n] = Matrix._trusted_columns(
                cols, self.target.class_dim(n)
            )
        return self._matrices[n]

    def apply(self, cls: CohomologyClass) -> CohomologyClass:
        if cls.ring is not self.source:
            raise ValueError("class does not live in the source ring")
        return CohomologyClass(
            self.target, cls.degree, self.matrix(cls.degree).matvec(cls.coords)
        )

    def apply_coset(self, coset: AffineCoset, n: int) -> AffineCoset:
        m = self.matrix(n)
        return AffineCoset(
            m.matvec(coset.point),
            Subspace._trusted_span(
                self.target.class_dim(n),
                [m.matvec(v) for v in coset.direction.basis],
            ),
        )


def check_functoriality(
    fmap: InducedMap,
    a: CohomologyClass,
    b: CohomologyClass,
    c: CohomologyClass,
) -> tuple[ContainmentReport, MasseyResult, MasseyResult]:
    """Verify the image of <a,b,c> lies inside <f a, f b, f c>."""
    source_result = triple_massey(a, b, c)
    if not source_result.defined:
        raise AlgebraValidationError(
            f"source triple product is not defined: {source_result.reason}"
        )
    fa, fb, fc = fmap.apply(a), fmap.apply(b), fmap.apply(c)
    target_result = triple_massey(fa, fb, fc)
    if not target_result.defined:
        raise ConsistencyError(
            "image triple product must be defined when the source product is; "
            f"got: {target_result.reason}"
        )
    image = fmap.apply_coset(source_result.coset, source_result.degree)
    report = ContainmentReport(
        holds=image.contained_in(target_result.coset),
        scaled=image,
        target=target_result.coset,
    )
    return report, source_result, target_result
