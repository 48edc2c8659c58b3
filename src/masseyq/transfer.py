"""Euler-class machinery for circle actions and the transfer of products.

The central objects are an equivariant model of a fixed-point component
(the cohomology ring of the base algebra with a central degree-2
polynomial generator adjoined), Euler data (weighted line bundles, or a
class polynomial with m) and the Euler class it builds, and a transfer
datum tying an ambient equivariant model to the fixed one through
restriction and pushforward maps.

A verdict on ideal membership is whether the ideal's degree piece, the
indeterminacy a triple product has eliminated, holds the class.  Its
certificate is verified by a check of a different kind: a non-member's
separating functional, read off that echelon form, by dot products; a
member's coefficients, solved once, by recomputing them through the cup
product.  Where a conclusion also has a genuinely independent route,
such as non-vanishing of the embedded product through the retraction to
the base, both are computed and must agree.  A failed certificate or a
disagreement raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .cdga import (
    H_NAME,
    CochainAlgebra,
    Element,
    PolyInput,
    parse_polynomial,
    tensor_polynomial_generator,
    validate_morphism,
)
from .cohomology import (
    CohomologyClass,
    CohomologyRing,
    InducedMap,
    MasseyResult,
    certify_ideal_membership,
    check_scaling_law,
    cup,
    ideal_degree_piece,
    ideal_products,
    triple_massey,
)
from .errors import (
    AlgebraValidationError,
    ConsistencyError,
    DegreeCapError,
    ParseError,
    PremiseError,
    UndefinedProductError,
)
from .linalg import Subspace, kernel_rows, solve_rows, transpose
from .report import STATUS_INTERNAL, STATUS_INVALID, outcome


# --------------------------------------------------------------------------
# Equivariant setup
# --------------------------------------------------------------------------


def build_setup(base: CochainAlgebra, cap: Optional[int] = None) -> CohomologyRing:
    """The equivariant model of a trivial circle action on the base: the
    cohomology ring of base (x) Q[h].  Its ``block_ring`` is the ring of
    its own base (the re-capped copy of a free base), computed once for
    every h-power block; the embedding and the retraction h = 0 are
    ``InducedMap.leading_block`` between the two.
    """
    return CohomologyRing(tensor_polynomial_generator(base, cap=cap))


class SetupTable:
    """The equivariant setups of one request, an extension ring per (base,
    cap), their Euler classes, one per (ring, Euler data), and the triple
    products computed over them, one per (ring, inputs).

    A caller makes one table per request, passes it to everything that
    needs a setup and drops it with the request; nothing outlives it.
    Bases and Euler data are told apart by object: a request resolves
    each spec once, so configs over one model share its ring, while two
    equal bases given as distinct objects get a ring each.  Triple
    products are told apart by ring object and by the degree and terms of
    each input, so Lemma 3.2's chain and the Gysin stage compute each
    distinct product once.
    """

    def __init__(self):
        # id() keys; each entry holds what it was keyed by, so the id is
        # not reused while the table lives.
        self._setups: dict[tuple[int, int], tuple[CochainAlgebra, CohomologyRing]] = {}
        self._classes: dict[
            tuple[int, int], tuple[CohomologyRing, EulerData, EulerClass]
        ] = {}
        self._products: dict[tuple, tuple[CohomologyRing, MasseyResult]] = {}

    def setup(self, base: CochainAlgebra, cap: Optional[int] = None) -> CohomologyRing:
        """``build_setup(base, cap)``, built once per table."""
        cap = base.cap if cap is None else cap
        key = (id(base), cap)
        entry = self._setups.get(key)
        if entry is None:
            entry = self._setups[key] = (base, build_setup(base, cap))
        return entry[1]

    def euler_class(self, ring: CohomologyRing, euler: EulerData) -> EulerClass:
        """``euler.build(ring)``, built once per table."""
        key = (id(ring), id(euler))
        entry = self._classes.get(key)
        if entry is None:
            entry = self._classes[key] = (ring, euler, euler.build(ring))
        return entry[2]

    def massey(
        self, a: CohomologyClass, b: CohomologyClass, c: CohomologyClass
    ) -> MasseyResult:
        """``triple_massey(a, b, c)``, computed once per table; an
        exception is raised again on each call, not stored."""
        key = tuple(
            (id(x.ring), x.degree, frozenset(x.terms.items())) for x in (a, b, c)
        )
        entry = self._products.get(key)
        if entry is None:
            # stored only once computed, so all three share the ring held
            entry = self._products[key] = (a.ring, triple_massey(a, b, c))
        return entry[1]


def formal_degree(algebra: CochainAlgebra, poly: PolyInput) -> int:
    """Degree of a homogeneous polynomial read off the factor names alone."""
    terms = parse_polynomial(poly) if isinstance(poly, str) else list(poly)
    degrees = set()
    for coeff, factors in terms:
        if coeff == 0:
            continue
        degrees.add(sum(algebra.name_degree(nm) for nm in factors))
    if not degrees:
        raise AlgebraValidationError(
            "a zero polynomial has no degree and cannot name a product input"
        )
    if len(degrees) > 1:
        raise AlgebraValidationError(
            f"polynomial is not homogeneous: term degrees {sorted(degrees)}"
        )
    return degrees.pop()


# --------------------------------------------------------------------------
# h-power block decomposition
# --------------------------------------------------------------------------


def class_h_components(cls: CohomologyClass) -> dict[int, CohomologyClass]:
    """The nonzero h^j coefficients of an extension class, by j: classes of
    the block ring (see CohomologyRing.h_block)."""
    ring = cls.ring
    top = ring.block_ring.top
    out = {}
    for j in range(cls.degree // 2 + 1):
        component = ring.h_block(cls, j)
        if component.is_zero():
            continue
        if component.degree > top:
            raise DegreeCapError(
                f"h^{j} component lives in base degree {component.degree}, "
                f"above the base ring top {top}",
                required_cap=component.degree + 1,
            )
        out[j] = component
    return out


# --------------------------------------------------------------------------
# Euler classes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedLineBundle:
    """An equivariant line bundle datum: base first Chern class and weight."""

    c1: PolyInput
    weight: int


@dataclass(frozen=True, eq=False)
class EulerClass:
    """An equivariant Euler class in an extension ring.

    For a sum of weighted line bundles the class is the product of the
    factors c1 + weight * h and ``weights`` records the weights; a class
    can also be given directly (weights None) as long as its top h-power
    coefficient is a nonzero degree-0 base class.
    """

    cls: CohomologyClass
    element: Element
    m: int
    weights: Optional[tuple[int, ...]]

    @cached_property
    def top_coefficient(self) -> CohomologyClass:
        """The h^m coefficient of ``cls``, a class of the block ring."""
        return self.cls.ring.h_block(self.cls, self.m)

    @cached_property
    def zero_divisor(self) -> ZeroDivisorReport:
        """``verify_not_zero_divisor`` in the class's ring, run once."""
        return verify_not_zero_divisor(self.cls.ring, self)


class EulerClassError(AlgebraValidationError):
    """A class polynomial that gives no Euler class.

    ``finding`` says the same as a finding against a transfer datum.
    """

    def __init__(self, message: str, finding: str):
        super().__init__(message)
        self.finding = finding


# The bundles-or-chi-with-m rule, as its two failures read against the
# keys of a family config; the command line words them for its flags.
_KEY_WORDS = (
    "give bundles or chi with m, not both",
    "a config needs Euler data: bundles, or chi with m",
)


@dataclass(frozen=True, eq=False)
class EulerData:
    """Euler data: weighted line bundles, or a class polynomial with m.

    Made by ``EulerData.of``, which owns the rule that exactly one of the
    two forms is given, and turned into a class by ``build``.  Each
    ``SetupTable`` builds one class per ring and Euler-data object.
    """

    bundles: Optional[tuple[WeightedLineBundle, ...]]
    polynomial: PolyInput
    m: int

    @classmethod
    def of(
        cls,
        bundles: Sequence[WeightedLineBundle] = (),
        chi: PolyInput = None,
        m: Optional[int] = None,
        line: Optional[int] = None,
        words: tuple[str, str] = _KEY_WORDS,
    ) -> "EulerData":
        """Bundles, or chi together with m; ParseError (at ``line``, worded
        by ``words``) when both forms or neither is given."""
        if bundles and (chi is not None or m is not None):
            raise ParseError(words[0], line=line)
        if bundles:
            return cls(tuple(bundles), None, len(bundles))
        if chi is None or m is None:
            raise ParseError(words[1], line=line)
        return cls(None, chi, m)

    def build(self, ring: CohomologyRing) -> EulerClass:
        """The Euler class in an extension ring."""
        if self.bundles is not None:
            return euler_class(ring, self.bundles)
        return euler_class_from_polynomial(ring, self.polynomial, self.m)


def euler_class(
    ring: CohomologyRing, bundles: Sequence[WeightedLineBundle]
) -> EulerClass:
    """Multiply out the Euler class of weighted line bundles in a ring."""
    if not bundles:
        raise AlgebraValidationError("at least one line bundle is required")
    ext = ring.algebra
    h_el = ext.named_element(H_NAME)
    chi = ext.unit()
    weights = []
    for i, b in enumerate(bundles):
        if isinstance(b.weight, bool) or not isinstance(b.weight, int) or not b.weight:
            raise AlgebraValidationError(
                f"bundle {i} has weight {b.weight!r}; weights must be "
                "nonzero integers"
            )
        c1 = ext.from_polynomial(b.c1, expected_degree=2)
        if not c1.d().is_zero():
            raise AlgebraValidationError(
                f"bundle {i} first Chern class is not a cocycle"
            )
        # the h^0 block comes first in each degree; a term past it has h
        if max(c1.terms, default=-1) >= ext.tensor_info.block(2, 0)[3]:
            raise AlgebraValidationError(
                f"bundle {i} first Chern class must come from the base "
                "(no h terms)"
            )
        chi = chi * (c1 + h_el.scale(b.weight))
        weights.append(b.weight)
    m = len(bundles)
    lead = 1
    for k in weights:
        lead *= k
    # each h-part of a cocycle is a cocycle, and one of degree 0 is zero
    # exactly when its class is: the class blocks are the coefficients
    cls = ring.project(chi)
    if ring.h_block(cls, m) != ring.block_ring.unit_class().scale(lead):
        raise ConsistencyError(
            "top h coefficient of the Euler class is not the product of "
            "the weights"
        )
    return EulerClass(cls=cls, element=chi, m=m, weights=tuple(weights))


def euler_class_from_polynomial(
    ring: CohomologyRing, poly: PolyInput, m: int
) -> EulerClass:
    """An Euler class given directly, e.g. for a disconnected fixed set."""
    if m < 1:
        raise AlgebraValidationError("m must be at least 1")
    el = ring.algebra.from_polynomial(poly, expected_degree=2 * m)
    if not el.d().is_zero():
        raise EulerClassError(
            "Euler class polynomial is not a cocycle", "Euler class is not a cocycle"
        )
    cls = ring.project(el)
    if ring.h_block(cls, m).is_zero():
        raise EulerClassError(
            f"Euler class must have a nonzero h^{m} coefficient",
            f"Euler class has no h^{m} term; it cannot come from a rank {m} "
            "normal bundle",
        )
    return EulerClass(cls=cls, element=el, m=m, weights=None)


@dataclass(frozen=True)
class ZeroDivisorReport:
    """Result of checking that cup product with a class is injective."""

    ok: bool
    degrees_checked: tuple[int, ...]
    failed_degree: Optional[int] = None


def verify_not_zero_divisor(
    ring: CohomologyRing, chi: EulerClass
) -> ZeroDivisorReport:
    """Check that multiplication by the Euler class is injective.

    Covers every degree whose product still fits under the cap.  With
    chi = c h^m + (lower h powers), the top h block of chi x is c times
    that of x, so chi is injective when c is a unit of H^0 of the base
    (Allday and Puppe, Cohomological Methods in Transformation Groups,
    ch. 3).  Otherwise, in each degree n, the span of chi times the basis
    classes of H^n is ranked, since the lower terms can still make chi
    injective.  For a genuine Euler class c is the product of the
    weights, so a failure flags corrupted input data.
    """
    degrees = range(ring.top - 2 * chi.m + 1)
    if not _top_is_unit(ring, chi):
        for n in degrees:
            image = ideal_degree_piece(ring, [chi.cls], n + 2 * chi.m)
            if image.dim != ring.class_dim(n):
                return ZeroDivisorReport(False, tuple(range(n + 1)), failed_degree=n)
    return ZeroDivisorReport(ok=True, degrees_checked=tuple(degrees))


def _top_is_unit(ring: CohomologyRing, chi: EulerClass) -> bool:
    """Whether the top coefficient c of chi has an inverse u in H^0 of the
    base: one solve of c u = 1, checked by ``cup``."""
    base = ring.block_ring
    c = chi.top_coefficient
    one = base.unit_class()
    dim = base.class_dim(0)
    sol = solve_rows(transpose(ideal_products(base, [c], 0), dim), dim, one.terms)
    inverse = None if sol is None else CohomologyClass._trusted(base, 0, sol)
    if inverse is not None and cup(c, inverse) != one:
        raise ConsistencyError(
            "top h coefficient of the Euler class: solve gives an inverse "
            "but recomputing it through cup does not reproduce the unit"
        )
    return sol is not None


_ZERO_DIVISOR = (
    "Euler class is a zero divisor: multiplication fails to be injective "
    "out of degree {}"
)
_KILLED_KERNEL = (
    "pushforward has a kernel in degree {}; the kernel class is killed by "
    "the Euler class, contradicting the zero-divisor property"
)


# --------------------------------------------------------------------------
# The h-comparison membership certificate
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HComparisonReport:
    """Outcome of testing the witness against the scaled-generator ideal.

    ``fired`` means a checked certificate shows that the witness avoids
    the ideal.  When the witness is a member the report carries the
    certified coefficients a and b of z = (chi u) a + (chi w) b.
    """

    fired: bool
    solution_a: Optional[CohomologyClass] = None
    solution_b: Optional[CohomologyClass] = None


def h_comparison_check(
    chi: EulerClass,
    z: CohomologyClass,
    scaled: MasseyResult,
    u: CohomologyClass,
    w: CohomologyClass,
    x: CohomologyClass,
) -> HComparisonReport:
    """Decide membership of z = chi^3 x in the ideal of chi u and chi w.

    ``scaled`` is the defined product <chi u, chi v, chi w> in the degree
    of z, whose ideal columns and indeterminacy span that ideal's degree
    piece.  Certifies z = (chi u) a + (chi w) b over the extension ring,
    or a functional separating z from the ideal; the latter fires.  A
    member is checked by a second route: t = chi^2 x - u a - w b is
    killed by chi, so it vanishes, chi being no zero divisor there.

    Nothing more is read off a member.  With chi = c h^m + (lower powers
    of h), the h^(2m) coefficient of chi^2 x = u a + w b is
    c^2 x = u a_2m + w b_2m.  Were c a unit of H^0 of the base, x would
    lie in the base ideal (u, w) and the base product would vanish, which
    the premise excludes.  So a member is found only when c is no unit
    (say, one of two idempotents of H^0), and then c^2 x in (u, w) says
    nothing about x.
    """
    ring = chi.cls.ring
    chi_u, _, chi_w = scaled.inputs
    certificate = certify_ideal_membership(
        chi_u, chi_w, z, scaled.ideal_columns, scaled.indeterminacy
    )
    if not certificate.member:
        return HComparisonReport(fired=True)
    a_cls, b_cls = certificate.coefficients

    embed = InducedMap.leading_block(ring.block_ring, ring)
    x_ext = embed.apply(x)
    u_ext = embed.apply(u)
    w_ext = embed.apply(w)
    chi2 = cup(chi.cls, chi.cls)
    t = cup(chi2, x_ext) - cup(u_ext, a_cls) - cup(w_ext, b_cls)
    if not cup(chi.cls, t).is_zero():
        raise ConsistencyError(
            "chi * (chi^2 x - u a - w b) should reproduce z - z = 0"
        )
    if not t.is_zero():
        raise ConsistencyError(
            "found a class killed by the Euler class although the "
            "zero-divisor check passed"
        )
    return HComparisonReport(fired=False, solution_a=a_cls, solution_b=b_cls)


# --------------------------------------------------------------------------
# The Euler-scaled product check
# --------------------------------------------------------------------------


@dataclass(eq=False)
class EulerScaledReport:
    """Results of the Euler-scaled triple product check.

    Every containment the check verifies holds here: a failed one raises
    ConsistencyError instead of making a report.
    """

    ring: CohomologyRing
    chi: EulerClass
    degrees: tuple[int, int, int]
    ext_cap: int
    zero_divisor: ZeroDivisorReport
    base_result: MasseyResult
    embedded_result: MasseyResult
    embedded_nonvanishing: bool
    scaled_result: MasseyResult
    witness: CohomologyClass
    machinery: HComparisonReport
    verdict: str


def required_cap(
    base: CochainAlgebra, u: PolyInput, v: PolyInput, w: PolyInput, m: int
) -> int:
    """Smallest extension cap with room for chi^3 x and its verification.

    chi has degree 2m, so the fully scaled product lives in degree
    6m + |u| + |v| + |w| - 1 and the membership checks need one degree
    above it.
    """
    return 6 * m + sum(formal_degree(base, x) for x in (u, v, w))


def check_euler_scaled_massey(
    base: CochainAlgebra,
    u: PolyInput,
    v: PolyInput,
    w: PolyInput,
    euler: EulerData,
    min_cap: Optional[int] = None,
    setups: Optional[SetupTable] = None,
) -> EulerScaledReport:
    """Check that a non-vanishing triple product survives Euler scaling.

    Starting from a non-vanishing product <u, v, w> over the base (the
    premise; PremiseError otherwise), this verifies the full chain in the
    degree-2 extension: the embedded product is non-vanishing by two
    routes, multiplying the Euler class into each slot in turn keeps the
    cosets nested, and the witness chi^3 x lies in the fully scaled
    product but outside the ideal of the scaled outer classes, so the
    scaled product cannot vanish.  The cap is sized automatically from
    the input degrees and never truncates the given base presentation.
    With ``setups`` the extension ring, the Euler class and the triple
    products come from that table.
    """
    required = required_cap(base, u, v, w, euler.m)
    cap = max(required, min_cap or 0, base.cap)
    setups = setups or SetupTable()
    ring = setups.setup(base, cap)
    base_ring = ring.block_ring
    chi = setups.euler_class(ring, euler)

    zero_divisor = chi.zero_divisor
    if not zero_divisor.ok:
        raise AlgebraValidationError(_ZERO_DIVISOR.format(zero_divisor.failed_degree))

    u_cls = base_ring.class_from_polynomial(u)
    v_cls = base_ring.class_from_polynomial(v)
    w_cls = base_ring.class_from_polynomial(w)

    try:
        base_result = setups.massey(u_cls, v_cls, w_cls)
    except AlgebraValidationError as exc:
        raise PremiseError(f"the base triple product is not available: {exc}")
    if not base_result.defined:
        raise PremiseError(
            f"the base triple product is not defined: {base_result.reason}"
        )
    if base_result.vanishes:
        raise PremiseError(
            "the base triple product vanishes; there is nothing to scale"
        )

    embed = InducedMap.leading_block(base_ring, ring)
    U = embed.apply(u_cls)
    V = embed.apply(v_cls)
    W = embed.apply(w_cls)
    embedded_result = setups.massey(U, V, W)
    if not embedded_result.defined:
        raise ConsistencyError(
            "embedded triple product must be defined when the base one is"
        )
    embedded_nonvanishing = not embedded_result.vanishes

    # the base product does not vanish (the premise), so the embedded one
    # does not exactly when the retraction maps it into the base coset
    retract = InducedMap.leading_block(ring, base_ring)
    if embedded_nonvanishing != retract.maps_into(embedded_result, base_result):
        raise ConsistencyError(
            "direct zero test and base-projection route disagree about the "
            "embedded product"
        )

    if not embed.maps_into(base_result, embedded_result):
        raise ConsistencyError(
            "the embedded image of the base product must land inside the "
            "extension's product"
        )

    scaled_result = embedded_result
    for slot in (1, 2, 3):
        holds, scaled_result = check_scaling_law(
            chi.cls, scaled_result, slot, setups.massey
        )
        if not holds:
            raise ConsistencyError(
                f"scaling containment fails at step {slot} of the chain"
            )

    x_ext = embed.apply(base_result.rep_class)
    z = cup(chi.cls, cup(chi.cls, cup(chi.cls, x_ext)))
    if not scaled_result.coset.contains(z.terms):
        raise ConsistencyError(
            "chi^3 times the base representative must lie in the fully "
            "scaled product"
        )

    # z lies in the coset, so it avoids the indeterminacy exactly when the
    # product does not vanish: the certificate decides both at once
    machinery = h_comparison_check(
        chi, z, scaled_result, u_cls, w_cls, base_result.rep_class
    )

    verdict = "non-vanishing" if machinery.fired else "vanishes"
    return EulerScaledReport(
        ring=ring,
        chi=chi,
        degrees=(u_cls.degree, v_cls.degree, w_cls.degree),
        ext_cap=cap,
        zero_divisor=zero_divisor,
        base_result=base_result,
        embedded_result=embedded_result,
        embedded_nonvanishing=embedded_nonvanishing,
        scaled_result=scaled_result,
        witness=z,
        machinery=machinery,
        verdict=verdict,
    )


# --------------------------------------------------------------------------
# Transfer data
# --------------------------------------------------------------------------


class HamiltonianTransferDatum:
    """Restriction and pushforward between two equivariant models.

    ``restrict_map`` runs from the cohomology of a model of the whole
    space, ``ambient_ring``, to that of a fixed locus (a
    polynomial-generator extension), ``fixed_ring``; ``ambient`` and
    ``fixed`` are their algebras.  ``push_map`` runs back, raising degrees
    by 2m.  Both are ``InducedMap`` columns: the restriction is induced by
    a cochain-level ring map, its ``morphism``, and a stored pushforward
    is read in from datum data.  ``euler`` is the datum's Euler data and
    ``chi`` its one Euler class in the fixed ring.  The defining relation
    is restrict(push(x)) = chi * x.  ``findings`` validates the datum
    once per object.
    """

    def __init__(
        self,
        name: str,
        restrict_map: InducedMap,
        push_map: InducedMap,
        euler: EulerData,
        chi: Optional[EulerClass] = None,
    ):
        self.name = name
        self.restrict_map = restrict_map
        self.push_map = push_map
        self.ambient_ring = restrict_map.source
        self.fixed_ring = restrict_map.target
        self.ambient = self.ambient_ring.algebra
        self.fixed = self.fixed_ring.algebra
        self.euler = euler
        self._chi = chi

    @property
    def m(self) -> int:
        return self.euler.m

    @property
    def chi(self) -> EulerClass:
        """The Euler class in the fixed ring, built from ``euler`` on first
        use; raises when the Euler data gives no class."""
        if self._chi is None:
            self._chi = self.euler.build(self.fixed_ring)
        return self._chi

    @cached_property
    def findings(self) -> tuple[str, ...]:
        """``validate_transfer_datum(self)``, run once per datum."""
        return tuple(validate_transfer_datum(self))

    def push(self, cls: CohomologyClass) -> CohomologyClass:
        if cls.ring is not self.fixed_ring:
            raise ValueError("pushforward input must live in the fixed ring")
        n = cls.degree
        if n > self.push_map.top:
            raise DegreeCapError(
                f"no pushforward matrix in degree {n}", required_cap=n
            )
        return self.push_map.apply(cls)

    def __repr__(self):
        return f"HamiltonianTransferDatum({self.name!r}, m={self.m})"


class TautologicalDatum(HamiltonianTransferDatum):
    """The datum of ``tautological_datum``, the only place one is built:
    one ring on both sides, identity restriction, push = multiplication
    by chi.  Its type marks it as trusted by ``validate_transfer_datum``.
    """


def validate_transfer_datum(datum: HamiltonianTransferDatum) -> list[str]:
    """All structural findings against a transfer datum, empty when valid.

    Checks, in order: the fixed model is a polynomial-generator extension and
    the Euler data gives an Euler class; the restriction is a ring map
    commuting with the differentials and injective on cohomology degree by
    degree; the projection formula restrict(push(e)) = chi * e holds on a
    class basis; the Euler class is not a zero divisor; the pushforward has
    full column rank, any kernel being traced back to the zero-divisor
    property through the projection formula.  The Euler class and the
    restriction are checked independently, and a finding against either
    ends the checks after both.

    On a ``TautologicalDatum`` (identity restriction, push =
    multiplication by chi), past the checks on m and the fixed model,
    only the zero-divisor check can fail, and a class chi kills in its
    failed degree is a kernel class of push, so that is all it runs.
    """
    findings: list[str] = []
    if datum.m < 1:
        findings.append(f"m must be at least 1, got {datum.m}")
        return findings
    if datum.fixed.tensor_info is None:
        findings.append("fixed model must be a polynomial-generator extension")
        return findings
    if isinstance(datum, TautologicalDatum):
        zd = datum.chi.zero_divisor
        if zd.ok:
            return []
        return [f.format(zd.failed_degree) for f in (_ZERO_DIVISOR, _KILLED_KERNEL)]
    try:
        chi = datum.chi
    except EulerClassError as exc:
        findings.append(exc.finding)
    except Exception as exc:
        known = outcome(exc)
        if known is None or known.status != STATUS_INVALID:
            raise
        findings.append(f"Euler class polynomial is invalid: {exc}")

    rmap, push = datum.restrict_map, datum.push_map
    for msg in validate_morphism(rmap.morphism):
        findings.append(f"restriction: {msg}")
    if findings:
        return findings

    fring, aring = datum.fixed_ring, datum.ambient_ring
    for n in range(rmap.top + 1):
        image = Subspace.span_rows(fring.class_dim(n), rmap.columns(n))
        if image.dim != aring.class_dim(n):
            findings.append(
                f"restriction is not injective on cohomology in degree {n}"
            )
            break

    for n in range(push.top + 1):
        columns = push.columns(n)
        if len(columns) != fring.class_dim(n):
            findings.append(
                f"pushforward matrix in degree {n} has {len(columns)} columns, "
                f"want {fring.class_dim(n)}"
            )
            return findings
        target_degree = n + 2 * datum.m
        if target_degree > aring.top:
            findings.append(
                f"pushforward matrix in degree {n} lands in degree "
                f"{target_degree}, above the ambient top {aring.top}"
            )
            return findings
        height = aring.class_dim(target_degree)
        row = max((k for column in columns for k in column), default=-1)
        if row >= height:
            findings.append(
                f"pushforward matrix in degree {n} has an entry in row {row}, "
                f"want {height} rows"
            )
            return findings

    formula_top = min(push.top, min(fring.top, rmap.top) - 2 * datum.m)
    for n in range(formula_top + 1):
        if any(
            rmap.apply(datum.push(e)) != cup(chi.cls, e)
            for e in fring.basis_classes(n)
        ):
            findings.append(
                f"projection formula fails in degree {n}: "
                "restrict(push(e)) != chi * e on a basis class"
            )
            break

    zd = chi.zero_divisor
    if not zd.ok:
        findings.append(_ZERO_DIVISOR.format(zd.failed_degree))

    for n in range(push.top + 1):
        columns = push.columns(n)
        height = aring.class_dim(n + 2 * datum.m)
        kern = kernel_rows(transpose(columns, height), len(columns))
        if not kern.dim:
            continue
        x = CohomologyClass._trusted(fring, n, kern.rows[0])
        if cup(chi.cls, x).is_zero():
            findings.append(_KILLED_KERNEL.format(n))
        else:
            findings.append(
                f"pushforward has a kernel in degree {n} although the "
                "projection formula forces chi * x = 0 for kernel classes; "
                "the formula itself must be broken"
            )
        break

    return findings


def tautological_datum(
    base: CochainAlgebra,
    euler: EulerData,
    cap: Optional[int] = None,
    setups: Optional[SetupTable] = None,
) -> HamiltonianTransferDatum:
    """The datum with ambient equal to fixed and push = cup with chi.

    Restriction is the identity, so the projection formula holds by
    construction; useful as a reference datum and for exercising the
    pipeline end to end without extra geometry.  The datum is built with
    the extension ring of the base (polynomial generator h) as both of
    its rings and that ring's Euler class; ``push`` is multiplication by
    chi, up to the top degree minus 2m.  With ``setups`` the ring and the
    class are that table's.
    """
    setups = setups or SetupTable()
    ring = setups.setup(base, cap)
    chi = setups.euler_class(ring, euler)
    return TautologicalDatum(
        name="tautological",
        restrict_map=InducedMap.leading_block(ring, ring),
        push_map=InducedMap.multiplication(chi.cls),
        euler=euler,
        chi=chi,
    )


def tautological_from_parts(
    base: CochainAlgebra,
    triple: tuple[PolyInput, PolyInput, PolyInput],
    euler: EulerData,
    min_cap: Optional[int],
    setups: Optional[SetupTable] = None,
) -> HamiltonianTransferDatum:
    """Size and build the ambient-equals-fixed datum for a configuration,
    at the cap the Euler stage over the same base and triple picks."""
    cap = required_cap(base, triple[0], triple[1], triple[2], euler.m)
    cap = max(cap, base.cap, min_cap or 0)
    return tautological_datum(base, euler, cap=cap, setups=setups)


# --------------------------------------------------------------------------
# The transfer check
# --------------------------------------------------------------------------


@dataclass(eq=False)
class GysinReport:
    """Results of a transfer along a datum; a failed check raises
    ConsistencyError instead of making a report."""

    status: str  # "non-vanishing" or "inconclusive"
    fixed_result: MasseyResult
    ambient_result: MasseyResult


def check_gysin_transfer(
    datum: HamiltonianTransferDatum,
    u: PolyInput,
    v: PolyInput,
    w: PolyInput,
    setups: Optional[SetupTable] = None,
) -> GysinReport:
    """Transfer a non-vanishing scaled product from the fixed locus upstairs.

    u, v and w are polynomials in the fixed model's names.  The product
    <chi u, chi v, chi w> must be defined there (UndefinedProductError
    otherwise).  The ambient inputs are the pushforwards; their
    consecutive products vanish both by restriction and by direct
    computation, the restriction maps the ambient product coset into the
    fixed one, and non-vanishing downstairs therefore transfers upstairs.
    A vanishing fixed product is reported as inconclusive.  The two
    products come from ``setups``, or from a table of this call, so over a
    tautological datum, where the pushforward is multiplication by chi in
    the fixed ring, the ambient product is the fixed one.
    """
    setups = setups or SetupTable()
    fring = datum.fixed_ring
    chi_cls = datum.chi.cls
    u_cls = fring.class_from_polynomial(u)
    v_cls = fring.class_from_polynomial(v)
    w_cls = fring.class_from_polynomial(w)

    chi_u = cup(chi_cls, u_cls)
    chi_v = cup(chi_cls, v_cls)
    chi_w = cup(chi_cls, w_cls)
    fixed_result = setups.massey(chi_u, chi_v, chi_w)
    if not fixed_result.defined:
        raise UndefinedProductError(
            "the scaled product over the fixed locus is not defined: "
            f"{fixed_result.reason}"
        )

    U = datum.push(u_cls)
    V = datum.push(v_cls)
    W = datum.push(w_cls)
    rmap = datum.restrict_map

    for a, b, chi_a, chi_b in ((U, V, chi_u, chi_v), (V, W, chi_v, chi_w)):
        pushed, scaled = cup(a, b), cup(chi_a, chi_b)
        if rmap.apply(pushed) != scaled:
            raise ConsistencyError(
                "restriction of the pushed product disagrees with the product "
                "of the scaled classes"
            )
        if scaled.is_zero() and not pushed.is_zero():
            raise ConsistencyError(
                "pushed product is nonzero although its restriction vanishes "
                "and the restriction is injective"
            )

    ambient_result = setups.massey(U, V, W)
    if not ambient_result.defined:
        raise ConsistencyError(
            "ambient product must be defined once both obstructions vanish"
        )

    if not rmap.maps_into(ambient_result, fixed_result):
        raise ConsistencyError(
            "restriction does not map the ambient product into the fixed one"
        )

    if fixed_result.vanishes:
        status = "inconclusive"
    else:
        if ambient_result.vanishes:
            raise ConsistencyError(
                "ambient product vanishes although its restriction coset "
                "avoids zero"
            )
        status = "non-vanishing"
    return GysinReport(
        status=status,
        fixed_result=fixed_result,
        ambient_result=ambient_result,
    )


# --------------------------------------------------------------------------
# The full pipeline
# --------------------------------------------------------------------------


@dataclass(eq=False)
class PipelineReport:
    """Outcome of the full premise, scaling and transfer run."""

    status: str  # "ok", "premise-failed" or "invalid-datum"
    verdict: str  # "non-vanishing", "vanishes" or "inconclusive"
    premise_error: Optional[str] = None
    datum_findings: Optional[list[str]] = None
    euler: Optional[EulerScaledReport] = None
    gysin: Optional[GysinReport] = None
    gysin_error: Optional[str] = None


def run_transfer_pipeline(
    base: Optional[CochainAlgebra],
    u: PolyInput,
    v: PolyInput,
    w: PolyInput,
    euler: Optional[EulerData] = None,
    datum: Optional[HamiltonianTransferDatum] = None,
    tautological: bool = False,
    min_cap: Optional[int] = None,
    setups: Optional[SetupTable] = None,
) -> PipelineReport:
    """Run the whole verification: premise, Euler scaling, then transfer.

    Without a datum this is the Euler-scaled check alone.  With a datum,
    the datum is validated first (status "invalid-datum" with findings if
    it is broken), the Euler-scaled stage runs over the datum's fixed
    base, and the transfer stage pushes the product into the ambient
    model.  A failed premise skips the scaling stage but still attempts
    the transfer, whose hypothesis is independent of it.
    ``tautological`` builds the datum first, over ``base`` with
    ``euler``, sized by ``tautological_from_parts``.

    The rings, Euler classes and triple products come from ``setups``, or
    from a table of this call.  The findings are the datum's own, computed
    once per datum object, so a datum shared by the configs of one request
    is validated once.  Over a stored datum the Euler stage rebuilds the
    extension of the datum's fixed base by the same deterministic
    construction that made the fixed model, so the two agree by
    construction and are not compared; over a tautological datum it runs
    over ``base`` at the datum's cap, so its ring and class are the
    datum's own.
    """
    setups = setups or SetupTable()
    if tautological:
        if datum is not None:
            raise ValueError("a tautological run builds its own datum")
        datum = tautological_from_parts(base, (u, v, w), euler, min_cap, setups)
    if datum is not None and datum.findings:
        return PipelineReport(
            status="invalid-datum",
            verdict="inconclusive",
            datum_findings=list(datum.findings),
        )
    if datum is not None and not tautological:
        if euler is not None:
            raise ValueError(
                "with a datum, the Euler data comes from the datum itself"
            )
        base = datum.fixed.tensor_info.base
        euler = datum.euler
    elif base is None:
        raise ValueError("pass a base algebra or a datum")

    euler_report: Optional[EulerScaledReport] = None
    premise_error: Optional[str] = None
    try:
        euler_report = check_euler_scaled_massey(
            base,
            u,
            v,
            w,
            euler,
            min_cap=min_cap,
            setups=setups,
        )
    except PremiseError as exc:
        premise_error = str(exc)

    gysin_report: Optional[GysinReport] = None
    gysin_error: Optional[str] = None
    if datum is not None:
        try:
            gysin_report = check_gysin_transfer(datum, u, v, w, setups)
        except (UndefinedProductError, DegreeCapError) as exc:
            gysin_error = str(exc)

    status = "ok" if premise_error is None else "premise-failed"
    if gysin_report is not None and gysin_report.status == "non-vanishing":
        verdict = "non-vanishing"
    elif euler_report is not None:
        verdict = euler_report.verdict
    else:
        verdict = "inconclusive"

    return PipelineReport(
        status=status,
        verdict=verdict,
        premise_error=premise_error,
        euler=euler_report,
        gysin=gysin_report,
        gysin_error=gysin_error,
    )


# --------------------------------------------------------------------------
# Family scans
# --------------------------------------------------------------------------


@dataclass(eq=False)
class ScanConfig:
    """One family member: a model, a triple and an expected outcome.

    A stored datum is an object; ``tautological`` marks a config whose
    datum its row builds over ``base`` with ``euler``.
    """

    name: str
    base: Optional[CochainAlgebra]
    u: PolyInput
    v: PolyInput
    w: PolyInput
    euler: Optional[EulerData] = None
    datum: Optional[HamiltonianTransferDatum] = None
    tautological: bool = False
    min_cap: Optional[int] = None
    expect: Optional[str] = None  # a status or a verdict


@dataclass(frozen=True)
class ScanRow:
    name: str
    status: str
    verdict: str
    note: str = ""


@dataclass(eq=False)
class ScanReport:
    rows: list[ScanRow]
    findings: list[str]
    total: int = 0
    completed: int = 0

    @property
    def exhausted(self) -> bool:
        return self.completed < self.total


def scan_families(
    configs: Sequence[ScanConfig],
    budget: Optional[int] = None,
) -> ScanReport:
    """Run the pipeline over a family and collect anomalies.

    Every config produces a row with the status its config reports
    alone; an exception gets the status ``report.outcome`` gives it and
    its message as note.  Findings record hard failures (row
    ``internal`` for a ConsistencyError, ``error`` for an exception the
    table does not know) and expectations the run contradicts.
    ``budget`` bounds the number of configurations run; the report
    records how far the scan got.

    All configs share one ``SetupTable`` of this call, tautological data
    included, so configs over the same base and cap build one extension
    ring; sharing changes no row.  A config past the budget
    builds nothing.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    setups = SetupTable()
    rows: list[ScanRow] = []
    findings: list[str] = []
    run = configs if budget is None else configs[:budget]
    for cfg in run:
        try:
            result = run_transfer_pipeline(
                cfg.base,
                cfg.u,
                cfg.v,
                cfg.w,
                euler=cfg.euler,
                datum=cfg.datum,
                tautological=cfg.tautological,
                min_cap=cfg.min_cap,
                setups=setups,
            )
        except Exception as exc:
            known = outcome(exc)
            status = "error" if known is None else known.status
            row = ScanRow(cfg.name, status, "inconclusive", str(exc))
            if status in ("error", STATUS_INTERNAL):
                findings.append(f"{cfg.name}: {type(exc).__name__}: {exc}")
        else:
            note = ""
            if result.status == "invalid-datum" and result.datum_findings:
                note = result.datum_findings[0]
            elif result.premise_error:
                note = result.premise_error
            elif result.gysin_error:
                note = result.gysin_error
            row = ScanRow(cfg.name, result.status, result.verdict, note)
        rows.append(row)
        if cfg.expect is not None and cfg.expect not in (row.status, row.verdict):
            findings.append(
                f"{cfg.name}: expected {cfg.expect!r}, got status "
                f"{row.status!r} with verdict {row.verdict!r}"
            )
    return ScanReport(
        rows=rows, findings=findings, total=len(configs), completed=len(run)
    )
