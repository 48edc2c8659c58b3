"""Bundled example models, transfer data and scan families.

Every constructor returns a fresh algebra, so callers may re-cap or
extend without sharing state.  The rotation datum at the bottom is the
one worked geometric example: the weight-1 circle action on the
two-sphere, with the equivariant cohomology of the sphere presented by
its two fixed-point restrictions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .cdga import (
    AlgebraMorphism,
    CochainAlgebra,
    build_free_cdga,
    build_table_algebra,
    tensor_polynomial_generator,
)
from .cohomology import CohomologyRing, InducedMap
from .errors import AlgebraValidationError
from .transfer import (
    EulerData,
    HamiltonianTransferDatum,
    ScanConfig,
    WeightedLineBundle,
)


def heisenberg(cap: int = 4) -> CochainAlgebra:
    """Three degree-1 generators with dz = x*y; the smallest non-formal case."""
    return build_free_cdga(
        [("x", 1), ("y", 1), ("z", 1)], {"z": "x*y"}, cap
    )


def torus(cap: int = 3) -> CochainAlgebra:
    """Exterior algebra on two degree-1 generators, zero differential."""
    return build_free_cdga([("x", 1), ("y", 1)], {}, cap)


def even_sphere(cap: int = 8) -> CochainAlgebra:
    """Minimal model of the two-sphere: u in degree 2, v in degree 3, dv = u*u."""
    return build_free_cdga([("u", 2), ("v", 3)], {"v": "u*u"}, cap)


def sphere_cohomology(cap: int = 2) -> CochainAlgebra:
    """The cohomology of the two-sphere as a table: one class in degree 2."""
    if cap < 2:
        raise AlgebraValidationError("the degree-2 class needs cap >= 2")
    dims = [1 if n in (0, 2) else 0 for n in range(cap + 1)]
    names = [["one"] if n == 0 else (["s"] if n == 2 else []) for n in range(cap + 1)]
    products = {(0, 0, 0, 0): [(0, 1)]}
    if cap >= 2:
        products[(0, 0, 2, 0)] = [(0, 1)]
        products[(2, 0, 0, 0)] = [(0, 1)]
    return build_table_algebra(dims, products, names=names)


def truncated_polynomial(power: int = 4, degree: int = 2) -> CochainAlgebra:
    """Q[u]/(u^power) with |u| = degree even, presented degreewise."""
    if power < 2:
        raise AlgebraValidationError("need at least u itself, so power >= 2")
    if degree < 2 or degree % 2:
        raise AlgebraValidationError("the generator degree must be even and >= 2")
    cap = degree * (power - 1)
    dims = [0] * (cap + 1)
    names: list[list[str]] = [[] for _ in range(cap + 1)]
    label = {0: "one", 1: "u"}
    for k in range(power):
        dims[degree * k] = 1
        names[degree * k] = [label.get(k, f"u{k}")]
    products = {}
    for k in range(power):
        for l in range(power - k):
            products[(degree * k, 0, degree * l, 0)] = [(0, 1)]
    return build_table_algebra(dims, products, names=names)


def point(cap: int = 1) -> CochainAlgebra:
    """The one-dimensional algebra concentrated in degree 0.

    The default cap keeps one empty degree above the point so that the
    degree-0 cohomology is computable.
    """
    if cap < 1:
        raise AlgebraValidationError("keep one empty degree above the point")
    dims = [1] + [0] * cap
    names = [["pt"]] + [[] for _ in range(cap)]
    return build_table_algebra(dims, {(0, 0, 0, 0): [(0, 1)]}, names=names)


def two_points(cap: int = 1) -> CochainAlgebra:
    """Functions on two points: orthogonal idempotents eN and eS."""
    if cap < 1:
        raise AlgebraValidationError("keep one empty degree above the points")
    dims = [2] + [0] * cap
    names = [["eN", "eS"]] + [[] for _ in range(cap)]
    products = {
        (0, 0, 0, 0): [(0, 1)],
        (0, 1, 0, 1): [(1, 1)],
    }
    return build_table_algebra(dims, products, names=names)


def rotation_ambient(cap: int = 9) -> CochainAlgebra:
    """Circle-equivariant cohomology of the sphere, by fixed-point data.

    Classes are pairs (north, south) of polynomials in the degree-2
    class h that agree modulo h.  In degree 2k the basis is Hk, the
    class restricting to (h^k, h^k), followed by Ak, restricting to
    (h^k, 0); products are computed componentwise.
    """
    if cap < 3:
        raise AlgebraValidationError("the pair basis starts in degree 2")
    dims = [1 if n == 0 else (2 if n % 2 == 0 else 0) for n in range(cap + 1)]
    names: list[list[str]] = [["E"]] + [[] for _ in range(cap)]
    for n in range(2, cap + 1, 2):
        names[n] = [f"H{n // 2}", f"A{n // 2}"]
    products: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
    for n in range(0, cap + 1, 2):
        for j in range(dims[n]):
            products[(0, 0, n, j)] = [(j, 1)]
            if n:
                products[(n, j, 0, 0)] = [(j, 1)]
    top_k = cap // 2
    for k in range(1, top_k):
        for l in range(1, top_k - k + 1):
            # (h^k,h^k)(h^l,h^l) = (h^{k+l},h^{k+l}); any factor A kills
            # the south component.
            products[(2 * k, 0, 2 * l, 0)] = [(0, 1)]
            products[(2 * k, 0, 2 * l, 1)] = [(1, 1)]
            products[(2 * k, 1, 2 * l, 0)] = [(1, 1)]
            products[(2 * k, 1, 2 * l, 1)] = [(1, 1)]
    return build_table_algebra(dims, products, names=names)


def rotation_datum(fixed_cap: int = 8, ambient_cap: int = 9) -> HamiltonianTransferDatum:
    """Restriction and pushforward for the weight-1 rotation of the sphere.

    The fixed locus is the two poles, extended by the degree-2 class h.
    The rotation acts on the normal line at the north pole with weight 1
    and at the south pole with weight -1, so the equivariant Euler class
    of the normal bundle is eN*h - eS*h.  Restriction evaluates an
    ambient pair at the poles; the pushforward is the unique map
    satisfying restrict(push(c)) = chi*c, namely eN h^k -> A(k+1) and
    eS h^k -> A(k+1) - H(k+1).  Nothing is validated here:
    ``validate_transfer_datum`` checks the datum wherever one enters.
    """
    if fixed_cap < 5 or ambient_cap < fixed_cap:
        raise AlgebraValidationError(
            "need room for the scaled classes: fixed_cap >= 5 and an "
            "ambient cap at least as large"
        )
    ambient = rotation_ambient(ambient_cap)
    fixed = tensor_polynomial_generator(two_points(), "h", cap=fixed_cap)

    # E restricts to eN + eS; in degree 2k, Hk to (eN + eS) h^k, Ak to eN h^k.
    one = Fraction(1)
    restrict = []
    for n in range(fixed_cap + 1):
        if n == 0:
            restrict.append([{0: one, 1: one}])
        elif n % 2 == 0:
            restrict.append([{0: one, 1: one}, {0: one}])
        else:
            restrict.append([])
    # On class coordinates (eN h^k, eS h^k) -> (H(k+1), A(k+1)).
    push = [
        [{1: one}, {0: -one, 1: one}] if n % 2 == 0 else []
        for n in range(fixed_cap - 1)
    ]

    ambient_ring, fixed_ring = CohomologyRing(ambient), CohomologyRing(fixed)
    return HamiltonianTransferDatum(
        name="rotation",
        restrict_map=InducedMap(
            AlgebraMorphism(ambient, fixed, restrict), ambient_ring, fixed_ring
        ),
        push_map=InducedMap.stored(fixed_ring, ambient_ring, 2, push),
        euler=EulerData.of(chi="eN*h - eS*h", m=1),
    )


def broken_projection_datum() -> HamiltonianTransferDatum:
    """The rotation datum with one pushforward entry off by one.

    The degree-2 pushforward no longer satisfies the projection formula,
    so validation must reject it; negative control for the datum checks.
    """
    good = rotation_datum()
    push = [good.push_map.columns(n) for n in range(good.push_map.top + 1)]
    # The H2 entry of the image of eN h, 0 in the good datum, becomes 1.
    push[2] = [{0: Fraction(1), 1: Fraction(1)}, push[2][1]]
    return HamiltonianTransferDatum(
        name="rotation-broken-push",
        restrict_map=good.restrict_map,
        push_map=InducedMap.stored(good.fixed_ring, good.ambient_ring, 2, push),
        euler=good.euler,
    )


BUILTIN_MODELS: dict[str, Callable[[], CochainAlgebra]] = {
    "heisenberg": heisenberg,
    "torus": torus,
    "even-sphere": even_sphere,
    "sphere-cohomology": sphere_cohomology,
    "truncated-polynomial": truncated_polynomial,
    "point": point,
    "two-points": two_points,
    "rotation-ambient": rotation_ambient,
}


def builtin_model(name: str) -> CochainAlgebra:
    key = name.strip().lower().replace("_", "-")
    if key not in BUILTIN_MODELS:
        known = ", ".join(sorted(BUILTIN_MODELS))
        raise KeyError(f"unknown model {name!r}; known models: {known}")
    return BUILTIN_MODELS[key]()


BUILTIN_DATA: dict[str, Callable[[], HamiltonianTransferDatum]] = {
    "rotation": rotation_datum,
    "rotation-broken-push": broken_projection_datum,
}


def builtin_datum(name: str) -> HamiltonianTransferDatum:
    key = name.strip().lower().replace("_", "-")
    if key not in BUILTIN_DATA:
        known = ", ".join(sorted(BUILTIN_DATA))
        raise KeyError(f"unknown datum {name!r}; known data: {known}")
    return BUILTIN_DATA[key]()


def default_scan_configs() -> list[ScanConfig]:
    """The bundled verification family.

    Mixes the non-formal witness in its three Euler-class variants with
    formal controls and both transfer data; each row carries the outcome
    it must reproduce, so a clean scan really checks something.  Rows on
    the same model share one instance.  The rows with chi = h share one
    Euler-data value, so two rows over one setup share its class.
    """
    heis, tor = heisenberg(), torus()
    chi_h = EulerData.of(chi="h", m=1)
    return [
        ScanConfig(
            name="heisenberg-h",
            base=heis,
            u="x",
            v="x",
            w="y",
            euler=chi_h,
            expect="non-vanishing",
        ),
        ScanConfig(
            name="heisenberg-twisted-line",
            base=heis,
            u="x",
            v="x",
            w="y",
            euler=EulerData.of([WeightedLineBundle("x*z", 2)]),
            expect="non-vanishing",
        ),
        ScanConfig(
            name="heisenberg-two-lines",
            base=heis,
            u="x",
            v="x",
            w="y",
            euler=EulerData.of(
                [WeightedLineBundle(None, 1), WeightedLineBundle(None, 1)]
            ),
            expect="non-vanishing",
        ),
        ScanConfig(
            name="heisenberg-transfer",
            base=heis,
            u="x",
            v="x",
            w="y",
            euler=chi_h,
            tautological=True,
            expect="non-vanishing",
        ),
        ScanConfig(
            name="torus-undefined",
            base=tor,
            u="x",
            v="x",
            w="y",
            euler=chi_h,
            expect="premise-failed",
        ),
        ScanConfig(
            name="torus-vanishing",
            base=tor,
            u="x",
            v="x",
            w="x",
            euler=chi_h,
            expect="premise-failed",
        ),
        ScanConfig(
            name="even-sphere-formal",
            base=even_sphere(),
            u="u",
            v="u",
            w="u",
            euler=chi_h,
            expect="premise-failed",
        ),
        ScanConfig(
            name="rotation-poles",
            base=None,
            u="eN",
            v="eS",
            w="eN",
            datum=rotation_datum(),
            expect="inconclusive",
        ),
    ]


def corrupted_scan_configs() -> list[ScanConfig]:
    """A family whose only datum is broken; the scan must flag the datum."""
    return [
        ScanConfig(
            name="rotation-broken-push",
            base=None,
            u="eN",
            v="eS",
            w="eN",
            datum=broken_projection_datum(),
            expect="invalid-datum",
        ),
    ]


BUILTIN_FAMILIES: dict[str, Callable[[], list[ScanConfig]]] = {
    "default": default_scan_configs,
    "corrupted-demo": corrupted_scan_configs,
}


def builtin_family(name: str) -> list[ScanConfig]:
    """A bundled family."""
    key = name.strip().lower().replace("_", "-")
    if key not in BUILTIN_FAMILIES:
        known = ", ".join(sorted(BUILTIN_FAMILIES))
        raise KeyError(f"unknown family {name!r}; known families: {known}")
    return BUILTIN_FAMILIES[key]()
