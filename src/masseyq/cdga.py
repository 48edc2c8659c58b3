"""Graded-commutative cochain algebras over the rationals, truncated at a cap.

Two presentations are supported behind one interface.  A free presentation
takes generators with degrees and a differential on the generators; the
monomial basis is enumerated per degree (odd generators square to zero) and
the differential is extended as a degree +1 derivation.  A table
presentation takes explicit per-degree dimensions, structure constants and
differentials, and is validated against the graded axioms on
construction.  The degree-2 extension of a valid base is valid by
construction and is not checked again; its maps to and from the base are
read off the cohomology's class blocks (see InducedMap.leading_block).
validate_algebra and validate_morphism scan tables and user-supplied
maps once, where they enter, reading the structure constants directly.
A morphism is held as sparse columns, into which matrix data is read once.

Every algebra reads its structure constants through one lookup, called by
``multiply`` for each product of two basis vectors it needs.  Only a table
presentation stores them.  A free algebra computes the product of two
monomials when asked (one signed monomial, or zero), and the extension
computes a product from the base lookup shifted into the right power of
h; neither tabulates its products.  Differentials are tabulated degree by
degree.  A free algebra and an extension take their dimensions from the
Poincare series, which is checked against SIZE_LIMIT before any basis is
built, and build the basis and the differential of a degree when that
degree is first read.

An Element holds its nonzero terms (basis index -> scalar), as do the
unit and the names; arithmetic, products and differentials visit those
only, and the dense ``coords`` tuple is computed when asked for.

Every algebra carries an explicit degree cap.  Products or differentials
that would land above the cap raise DegreeCapError; nothing is ever
silently truncated.  The basis order is fixed (degree first, then
lexicographic in declaration order), so all coordinate output is
deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    AlgebraError,
    AlgebraValidationError,
    BudgetError,
    DegreeCapError,
    DifferentialSquareError,
    ParseError,
)
from .linalg import (
    GradedVector,
    Scalar,
    SparseVector,
    _q,
    apply_columns,
    fr,
    solve_rows,
    sparse_combination,
    sparse_sum,
)

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# The name of the degree-2 generator of every extension base (x) Q[h].
H_NAME = "h"
_ONE = 1
_MINUS_ONE = -1

# A parsed polynomial: list of (coefficient, ordered factor names).
PolyTerms = list[tuple[Scalar, tuple[str, ...]]]
PolyInput = Union[str, PolyTerms, None]


def _tokenize_poly(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            m = re.match(r"\d+(?:\s*/\s*\d+)?", text[i:])
            lit = m.group(0)
            tokens.append(("num", lit.replace(" ", ""), i))
            i += len(lit)
            continue
        m = NAME_RE.match(text, i)
        if m:
            tokens.append(("name", m.group(0), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r} in polynomial at column {i + 1}")
    return tokens


def parse_polynomial(text: str) -> PolyTerms:
    """Parse ``3/2*x*y - z`` style polynomials.

    The grammar is sums and differences of terms; a term is rational
    coefficients and names joined by explicit ``*``.  Returns a list of
    (coefficient, factor names in written order); zero-coefficient terms
    are dropped.
    """
    tokens = _tokenize_poly(text)
    if not tokens:
        raise ParseError("empty polynomial")
    terms: PolyTerms = []
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, None)

    while pos < len(tokens):
        sign = _ONE
        kind, val, col = peek()
        while kind in ("+", "-"):
            if kind == "-":
                sign = -sign
            pos += 1
            kind, val, col = peek()
        coeff = sign
        factors: list[str] = []
        while True:
            kind, val, col = peek()
            if kind == "num":
                try:
                    coeff = _q(coeff * Fraction(val))
                except ZeroDivisionError:
                    raise ParseError(
                        f"zero denominator in {val!r} at column {col + 1}"
                    ) from None
                except ValueError:
                    # past Python's limit on the digits of an int
                    raise ParseError(
                        f"number at column {col + 1} is too long or malformed"
                    ) from None
            elif kind == "name":
                factors.append(val)
            elif kind is None:
                raise ParseError("polynomial ends after an operator")
            else:
                raise ParseError(
                    f"expected a coefficient or name at column {col + 1}, "
                    f"found {val!r}"
                )
            pos += 1
            kind, val, col = peek()
            if kind == "*":
                pos += 1
                continue
            break
        kind, val, col = peek()
        if kind not in ("+", "-", None):
            raise ParseError(
                f"expected '+', '-' or end of polynomial at column {col + 1}, "
                f"found {val!r}"
            )
        if coeff != 0:
            terms.append((coeff, tuple(factors)))
    return terms


@dataclass(frozen=True)
class GeneratorDecl:
    """A generator name with its cohomological degree (at least 1)."""

    name: str
    degree: int


class TensorInfo:
    """The basis of ``base (x) Q[h]``, laid out a degree at a time.

    Degree n is the sum over j of h^j (x) base^(n-2j), in ascending j, so
    the extension's dims fix every block: that of h^j in degree n has
    base degree b = n - 2j, offset dims[n] - dims[b] and size dims[b] -
    dims[b - 2].  ``block(n, j)`` gives ``(j, b, offset, size)`` for any
    2j <= n, ``row(n)`` the blocks of degree n with a basis.  Like
    _FreeBasis, ``grow(n)`` builds the labels and the ``(j, base index)``
    split of each basis index of every degree up to n, and
    ``differential(n)`` the shifted base d out of degree n; the algebra
    shares ``labels`` and ``diff``.
    """

    def __init__(self, base: "CochainAlgebra", dims: tuple[int, ...]):
        self.base, self.dims = base, dims
        self.labels: list[tuple[str, ...]] = []
        self.splits: list[tuple[tuple[int, int], ...]] = []
        self.diff: list[Optional[tuple[Terms, ...]]] = [None] * (len(dims) - 1)
        # the base degrees with a basis, ascending
        self.support = [b for b in range(len(dims)) if self.block(b, 0)[3]]
        splits, bcap, base_product = self.splits, base.cap, base.product_lookup(0)

        # (h^j1 (x) e)(h^j2 (x) f) = h^(j1+j2) (x) e*f, shifted into the block
        # of h^(j1+j2); a table base is zero above its cap.  grow has built
        # every base degree with a basis that the lookup reads.
        def product(n1: int, i1: int, n2: int, i2: int) -> Terms:
            j1, k1 = splits[n1][i1]
            j2, k2 = splits[n2][i2]
            b1, b2 = n1 - 2 * j1, n2 - 2 * j2
            if b1 + b2 > bcap:
                return ()
            toff = dims[n1 + n2] - dims[b1 + b2]
            return tuple((toff + k, c) for k, c in base_product(b1, k1, b2, k2))

        self.product = product

    def block(self, n: int, j: int) -> Optional[tuple[int, int, int, int]]:
        if not 0 <= 2 * j <= n:
            return None
        b, dims = n - 2 * j, self.dims
        return (j, b, dims[n] - dims[b], dims[b] - (dims[b - 2] if b > 1 else 0))

    def row(self, n: int) -> list[tuple[int, int, int, int]]:
        """The blocks of degree n with nonzero size, in ascending j."""
        return [
            self.block(n, (n - b) // 2)
            for b in reversed(self.support)
            if b <= n and (n - b) % 2 == 0
        ]

    def grow(self, n: int) -> None:
        for degree in range(len(self.labels), min(n, len(self.diff)) + 1):
            labels, split = [], []
            for j, b, _, size in self.row(degree):
                powers = [H_NAME] * j
                labels += [
                    "*".join(([] if label == "1" else [label]) + powers) or "1"
                    for label in self.base.basis_labels(b)
                ]
                split += [(j, i) for i in range(size)]
            self.labels.append(tuple(labels))
            self.splits.append(tuple(split))

    def differential(self, n: int) -> tuple[Terms, ...]:
        """d out of degree n, block j into block j of degree n + 1; a table
        base stores no d out of its cap, above which it is zero."""
        table: list[Terms] = []
        for j, b, _, size in self.row(n):
            if b < self.base.cap:
                toff = self.dims[n + 1] - self.dims[b + 1]
                table += [
                    tuple((toff + k, c) for k, c in terms) if toff else terms
                    for terms in self.base.diff_table(b)
                ]
            else:
                table += [()] * size
        self.diff[n] = table = tuple(table)
        return table


class Element(GradedVector):
    """A homogeneous element of a CochainAlgebra: a degree and its nonzero
    terms (see GradedVector)."""

    __slots__ = ()
    algebra = GradedVector._owner
    _LENGTH = "coordinate length {n} != dim {dim} in degree {degree}"
    _OTHER_OWNER = "elements live in different algebras"
    _OTHER_DEGREE = "degree mismatch: {} vs {}"

    @staticmethod
    def _dim(algebra: "CochainAlgebra", degree: int) -> int:
        return algebra.dim(degree)

    def bar(self) -> "Element":
        """Sign twist: ``(-1)^degree`` times the element."""
        return self if self.degree % 2 == 0 else self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def d(self) -> "Element":
        return self.algebra.differential(self)

    def __str__(self):
        parts = []
        labels = self.algebra.basis_labels(self.degree)
        for i, c in sorted(self.terms.items()):
            label = labels[i]
            if label == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(label)
            elif c == -1:
                parts.append(f"-{label}")
            else:
                parts.append(f"{c}*{label}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Element(deg={self.degree}, {self})"


Terms = tuple[tuple[int, Scalar], ...]
# (p, i, q, j) -> nonzero (k, coefficient) terms of e_i * e_j in degree p+q,
# where e_i and e_j are basis vectors of degrees p and q; () means zero.
ProductLookup = Callable[[int, int, int, int], Terms]
MulTable = Mapping[tuple[int, int, int, int], Terms]


class CochainAlgebra:
    """A graded-commutative differential algebra truncated at ``cap``.

    Instances come from build_free_cdga, build_table_algebra or
    tensor_polynomial_generator; the constructor itself is internal.
    Structure constants are read through ``product``, a lookup
    ``(p, i, q, j) -> ((k, c), ...)`` that ``multiply`` calls for each
    pair of nonzero terms, so a presentation decides whether it
    stores its products (tables) or computes them on demand (free
    algebras and the h-extension).  ``unit`` and the entries of ``names``
    (name -> (degree, terms)) are sparse terms.

    The dimensions of every degree are known on construction.  A free
    presentation or an extension builds the basis of a degree, and the
    differential out of it, the first time that degree is read (see
    _FreeBasis and TensorInfo); a table has every degree built.  Every
    reader of the tables goes through ``basis_labels``, ``product_lookup``
    or ``diff_table``, which build what they hand out first; ``multiply``
    and ``differential`` make the same check once per call.

    Degrees run 0..cap.  The differential maps degree n to n+1 and is
    stored for n < cap only, so cocycles in degree cap cannot be verified;
    consumers treating cohomology must stop at cap-1.
    """

    def __init__(
        self,
        cap: int,
        dims: Sequence[int],
        labels: list[tuple[str, ...]],
        product: ProductLookup,
        diff: list[Optional[tuple[Terms, ...]]],
        unit: SparseVector,
        names: Mapping[str, tuple[int, SparseVector]],
        free_recipe=None,
        basis: Union["_FreeBasis", TensorInfo, None] = None,
    ):
        self.cap = cap
        self._dims = tuple(dims)
        # One tuple of labels per built degree, and per degree n < cap the
        # terms of d of each basis vector (None until built).  A free
        # algebra shares both lists with its basis, which appends and
        # fills them.
        self._labels = labels
        self._product = product
        self._diff = diff
        self._unit = unit
        self._names = dict(names)
        self._free_recipe = free_recipe
        self.tensor_info = basis if isinstance(basis, TensorInfo) else None
        self._basis = basis

    # -- basis bookkeeping -------------------------------------------------

    def dim(self, n: int) -> int:
        if not (0 <= n <= self.cap):
            raise DegreeCapError(
                f"degree {n} outside [0, cap={self.cap}]", required_cap=n
            )
        return self._dims[n]

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    def basis_label(self, n: int, i: int) -> str:
        return self.basis_labels(n)[i]

    def basis_labels(self, n: int) -> tuple[str, ...]:
        if n >= len(self._labels) and self._basis is not None:
            self._basis.grow(n)
        return self._labels[n]

    def product_lookup(self, n: int) -> ProductLookup:
        """The structure-constant lookup, with every degree up to n built:
        it answers for each pair of basis vectors whose product lands in
        degree n or below."""
        if n >= len(self._labels) and self._basis is not None:
            self._basis.grow(n)
        return self._product

    def diff_table(self, n: int) -> tuple[Terms, ...]:
        """d out of degree n < cap: the nonzero (index, coefficient) terms
        of d of each basis vector, in ascending index."""
        self._check_diff_degree(n)
        table = self._diff[n]
        return self._basis.differential(n) if table is None else table

    # -- element constructors ----------------------------------------------

    def element(self, degree: int, coords: Iterable) -> Element:
        return Element(self, degree, coords)

    def zero(self, degree: int) -> Element:
        self.dim(degree)  # DegreeCapError outside [0, cap]
        return Element._trusted(self, degree, {})

    def basis_element(self, n: int, i: int) -> Element:
        if not (0 <= i < self.dim(n)):
            raise IndexError(f"basis index {i} out of range in degree {n}")
        return Element._trusted(self, n, {i: _ONE})

    def unit(self) -> Element:
        return Element._trusted(self, 0, self._unit)

    def named_element(self, name: str) -> Element:
        if name not in self._names:
            raise ParseError(f"unknown name {name!r} in this algebra")
        degree, terms = self._names[name]
        return Element._trusted(self, degree, terms)

    def has_name(self, name: str) -> bool:
        return name in self._names

    def name_degree(self, name: str) -> int:
        if name not in self._names:
            raise ParseError(f"unknown name {name!r} in this algebra")
        return self._names[name][0]

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def generator(self, name: str) -> Element:
        return self.named_element(name)

    # -- arithmetic ----------------------------------------------------------

    def multiply(self, a: Element, b: Element) -> Element:
        if a.algebra is not self or b.algebra is not self:
            raise ValueError("elements live in a different algebra")
        n = a.degree + b.degree
        if n > self.cap:
            raise DegreeCapError(
                f"product degree {n} exceeds cap {self.cap}", required_cap=n
            )
        if n >= len(self._labels):
            self._basis.grow(n)
        p, q, product = a.degree, b.degree, self._product
        right = b.terms.items()
        terms = sparse_combination(
            (c1 * c2, product(p, i1, q, i2))
            for i1, c1 in a.terms.items()
            for i2, c2 in right
        )
        return Element._trusted(self, n, terms)

    def differential(self, a: Element) -> Element:
        if a.algebra is not self:
            raise ValueError("element lives in a different algebra")
        n = a.degree + 1
        if n > self.cap:
            raise DegreeCapError(
                f"differential lands in degree {n}, above cap {self.cap}",
                required_cap=n,
            )
        table = self._diff[a.degree]
        if table is None:
            table = self._basis.differential(a.degree)
        terms = sparse_combination((c, table[i]) for i, c in a.terms.items())
        return Element._trusted(self, n, terms)

    def diff_columns(self, n: int) -> list[SparseVector]:
        """Columns of d: degree n -> n+1 as sparse vectors, read from the table."""
        return [dict(terms) for terms in self.diff_table(n)]

    def diff_rows(self, n: int) -> list[SparseVector]:
        """Rows of d: degree n -> n+1 as sparse vectors, read from the table."""
        table = self.diff_table(n)
        rows: list[SparseVector] = [{} for _ in range(self.dim(n + 1))]
        for i, terms in enumerate(table):
            for j, s in terms:
                rows[j][i] = s
        return rows

    def _check_diff_degree(self, n: int) -> None:
        if not 0 <= n < self.cap:
            raise DegreeCapError(
                f"no differential out of degree {n} at cap {self.cap}",
                required_cap=n + 1,
            )

    # -- polynomial input ----------------------------------------------------

    def from_polynomial(
        self, poly: PolyInput, expected_degree: Optional[int] = None
    ) -> Element:
        """Evaluate a polynomial in the algebra's names to an Element.

        Accepts the string grammar of parse_polynomial or its parsed form.
        The result must be homogeneous; the formal degree of every term
        (sum of factor degrees, independent of cancellation) must agree,
        and match ``expected_degree`` when given.  A polynomial with no
        nonzero terms needs ``expected_degree`` to fix its degree.
        """
        if poly is None:
            terms: PolyTerms = []
        elif isinstance(poly, str):
            terms = parse_polynomial(poly)
        else:
            terms = [(fr(c), tuple(fs)) for c, fs in poly]
        degree = expected_degree
        result: Optional[Element] = None
        for coeff, factors in terms:
            if coeff == 0:
                continue
            term_degree = 0
            term = self.unit().scale(coeff)
            for name in factors:
                g = self.named_element(name)
                term_degree += g.degree
                term = self.multiply(term, g)
            if degree is None:
                degree = term_degree
            elif term_degree != degree:
                raise AlgebraValidationError(
                    f"polynomial is not homogeneous: term of degree {term_degree} "
                    f"next to degree {degree}"
                    if expected_degree is None
                    else f"polynomial has a term of degree {term_degree}, "
                    f"expected degree {degree}"
                )
            result = term if result is None else result + term
        if result is not None:
            return result
        if degree is None:
            raise AlgebraValidationError(
                "cannot infer the degree of a zero polynomial; "
                "pass an expected degree"
            )
        return self.zero(degree)

    def __repr__(self):
        kind = "table" if self._free_recipe is None else "free"
        return f"CochainAlgebra(kind={kind}, cap={self.cap}, dims={list(self.dims)})"


# --------------------------------------------------------------------------
# Free presentation
# --------------------------------------------------------------------------


# The most degrees plus basis elements an algebra may have up to its cap,
# checked on the Poincare series before any monomial is built (see
# series_dims).  m0(16) at cap 17 (65,554) fits; an exterior algebra on 20
# generators (1,048,576 monomials) does not.
SIZE_LIMIT = 200_000


def series_dims(
    cap: int, degrees: Sequence[int], start: Sequence[int] = (1,)
) -> tuple[int, ...]:
    """Coefficients 0..cap of start(t) * prod(1 + t^odd) / prod(1 - t^even).

    With ``start`` = 1 these are the degree dimensions of the free
    graded-commutative algebra on generators of the given degrees (Felix,
    Halperin, Thomas, *Rational Homotopy Theory*, GTM 205, section 12);
    with the dims of a base and ``degrees = (2,)``, those of base (x) Q[h].

    The size, cap + 1 degrees plus the sum of the coefficients, is counted
    while the product is multiplied out, and BudgetError is raised as soon
    as it passes SIZE_LIMIT: the cap alone is checked before the
    coefficients are allocated, and each generator then costs one pass
    over the degrees.
    """

    def over(size: int) -> BudgetError:
        return BudgetError(
            f"the algebra up to cap {cap} needs at least {size} degrees "
            f"and basis elements; the limit is {SIZE_LIMIT}",
            required_size=size,
            size_limit=SIZE_LIMIT,
        )

    size = cap + 1 + sum(start[: cap + 1])
    if size > SIZE_LIMIT:
        raise over(size)
    dims = list(start[: cap + 1]) + [0] * (cap + 1 - len(start))
    for d in degrees:
        # times 1 + t^d, descending so that each old term moves up once;
        # times 1/(1 - t^d) = 1 + t^d + t^2d + ..., ascending so that the
        # moved terms move on again
        for n in range(cap, d - 1, -1) if d % 2 else range(d, cap + 1):
            c = dims[n - d]
            if c:
                dims[n] += c
                size += c
                if size > SIZE_LIMIT:
                    raise over(size)
    return tuple(dims)


def _monomial_product(shapes, index) -> ProductLookup:
    """The product lookup of a free presentation over its basis tables.

    A product of monomials is one signed monomial, or zero when an odd
    generator repeats.  Its Koszul sign counts the odd letters of the
    right factor that move left past odd letters of the left factor.
    """

    def product(n1: int, i1: int, n2: int, i2: int) -> Terms:
        key1, odd1, crossing1 = shapes[n1][i1]
        key2, odd2, _ = shapes[n2][i2]
        if odd1 & odd2:
            return ()
        sign = _MINUS_ONE if (odd2 & crossing1).bit_count() & 1 else _ONE
        return ((index[key1 + key2][1], sign),)

    return product


class _FreeBasis:
    """The monomial basis and differential of a free presentation, built a
    degree at a time.

    ``grow(n)`` builds the monomials of every degree up to n, in ascending
    degree: their exponent tuples, labels and shapes, and their entries in
    ``index``.  ``differential(n)`` builds d out of degree n, which needs
    the monomials up to degree n + 1.  ``labels`` has one tuple per built
    degree, so its length tells how far the basis is built; ``diff[n]`` is
    None until d out of degree n is built.  The algebra shares both lists.
    """

    def __init__(
        self, gens: tuple[GeneratorDecl, ...], cap: int, dims: tuple[int, ...]
    ):
        self.gens = gens
        self.cap = cap
        self.dims = dims
        # Exponent tuples are packed into integers in base cap+1.  No
        # exponent of a monomial within the cap exceeds the cap, so the key
        # of a product is the sum of the keys of its factors.
        self.weights = [(cap + 1) ** j for j in range(len(gens))]
        # reach[j]: the highest degree up to the cap that the generators
        # from position j on can make
        reach = [0]
        for g in reversed(gens):
            reach.append(min(cap, reach[-1] + g.degree) if g.degree % 2 else cap)
        self.reach = reach[::-1]
        self.monomials: list[list[tuple[int, ...]]] = []
        self.labels: list[tuple[str, ...]] = []
        # Per degree: (key, odd mask, crossing mask) of each basis monomial.
        # Bit j of the odd mask is set when the monomial contains the odd
        # generator j; bit j of the crossing mask is the parity of the odd
        # generators after j that it contains.
        self.shapes: list[list[tuple[int, int, int]]] = []
        self.index: dict[int, tuple[int, int]] = {}  # key -> (degree, index)
        # (j, r) -> (exponents, key, odd mask, odd-letter parity, crossing
        # mask, label) of each monomial of degree r in the generators from
        # position j on; "" labels the empty one
        self.tails: dict[tuple[int, int], list[tuple]] = {
            (len(gens), 0): [((), 0, 0, 0, 0, "")]
        }
        self.diff: list[Optional[tuple[Terms, ...]]] = [None] * cap
        # d(g) as (index, c, -c) for each nonzero term c, by generator
        # position; build_free_cdga fills it before any d is built
        self.d_terms: dict[int, list[tuple[int, Scalar, Scalar]]] = {}
        self.product = _monomial_product(self.shapes, self.index)

    def grow(self, n: int) -> None:
        """Build the monomials of every degree up to n (at most the cap).

        A monomial of degree r in the generators from position j on is
        g_j^e times one in those from j + 1 on, of degree r - e*|g_j|, for
        e descending; so the monomials come in descending lexicographic
        order on their exponent tuples (x*y, x*z, y*z), and each one's key,
        odd mask, crossing mask and label extend those of its tail.  The
        tails are kept in ``tails`` for the degrees still to come.
        """
        gens, weights, reach, tails = self.gens, self.weights, self.reach, self.tails
        count = len(gens)

        def exponents(j: int, r: int) -> range:
            # e descending; odd generators square to zero, and the
            # generators after j must be able to make up the rest
            d = gens[j].degree
            top = min(r // d, 1) if d % 2 else r // d
            return range(top, max(0, -((reach[j + 1] - r) // d)) - 1, -1)

        for degree in range(len(self.labels), min(n, self.cap) + 1):
            if not self.dims[degree]:
                self.monomials.append([])
                self.shapes.append([])
                self.labels.append(())
                continue
            # the remainders each position must make up, top down, less
            # those whose tails are already known
            need: list[set[int]] = [{degree}] + [set() for _ in range(count)]
            for j, g in enumerate(gens):
                for r in need[j]:
                    for e in exponents(j, r):
                        if (j + 1, r - e * g.degree) not in tails:
                            need[j + 1].add(r - e * g.degree)
            for j in range(count - 1, -1, -1):
                g, w = gens[j], weights[j]
                # an odd letter sets bit j of the odd mask and flips the parity
                bit, flip = (1 << j, 1) if g.degree % 2 else (0, 0)
                for r in need[j]:
                    records: list[tuple] = []
                    for e in exponents(j, r):
                        tail = tails[(j + 1, r - e * g.degree)]
                        # bit j of the crossing mask: the parity of the odd
                        # letters after j
                        if not e:
                            records += [
                                ((0,) + x, k, m, p, c | p << j, label)
                                for x, k, m, p, c, label in tail
                            ]
                            continue
                        word, ew = "*".join([g.name] * e), e * w
                        records += [
                            (
                                (e,) + x,
                                k + ew,
                                m | bit,
                                p ^ flip,
                                c | p << j,
                                f"{word}*{label}" if label else word,
                            )
                            for x, k, m, p, c, label in tail
                        ]
                    tails[(j, r)] = records
            records = tails.pop((0, degree))
            for i, (_, key, _, _, _, _) in enumerate(records):
                self.index[key] = (degree, i)
            self.monomials.append([rec[0] for rec in records])
            self.shapes.append([(rec[1], rec[2], rec[4]) for rec in records])
            self.labels.append(tuple(rec[5] or "1" for rec in records))
        if len(self.labels) > self.cap:
            self.tails = {}

    def differential(self, n: int) -> tuple[Terms, ...]:
        """Build d out of degree n < cap from the Leibniz rule on words.

        The letter g at a position of a monomial contributes
        (-1)^|prefix| * prefix * d(g) * suffix, and both products are
        single monomials signed by +1 or -1, so each term is +c or -c.
        Only the positions of generators with a nonzero d are visited:
        the prefix before position j is the low digits of the key, key %
        weights[j], and |prefix| has the parity of the odd letters before
        j, read off the odd mask.  An odd letter occurs at most once, so
        the parity is the same for each copy of the letter at j.
        """
        if n + 1 >= len(self.labels):
            self.grow(n + 1)
        index, product = self.index, self.product
        active = [
            (gi, self.weights[gi], (1 << gi) - 1, self.gens[gi].degree + 1, terms)
            for gi, terms in sorted(self.d_terms.items())
        ]
        table = []
        for (key, odd, _), exps in zip(self.shapes[n], self.monomials[n]):
            acc: dict[int, Scalar] = {}
            for gi, w, below, dn, terms in active:
                e = exps[gi]
                if not e:
                    continue
                prefix_key = key % w
                odd_prefix = (odd & below).bit_count() & 1
                for _ in range(e):
                    pn, pi = index[prefix_key]
                    sn, si = index[key - prefix_key - w]
                    for k, c, minus_c in terms:
                        left = product(pn, pi, dn, k)
                        if not left:
                            continue
                        k1, s1 = left[0]
                        right = product(pn + dn, k1, sn, si)
                        if not right:
                            continue
                        k2, s2 = right[0]
                        negate = (s1 < 0) ^ (s2 < 0)
                        t = minus_c if negate ^ odd_prefix else c
                        prev = acc.get(k2)
                        acc[k2] = t if prev is None else prev + t
                    prefix_key += w
            table.append(tuple((j, c) for j, c in sorted(acc.items()) if c))
        self.diff[n] = table = tuple(table)
        return table


def build_free_cdga(
    generators: Sequence[Union[GeneratorDecl, tuple[str, int]]],
    differentials: Mapping[str, PolyInput],
    cap: int,
) -> CochainAlgebra:
    """Free graded-commutative algebra on the generators, with differential.

    ``differentials`` maps generator names to polynomials (string grammar
    or parsed terms) of degree one above the generator; omitted names get
    zero.  The differential is extended as a derivation and d(d(g)) = 0 is
    verified for every generator whose image stays within the cap; a
    violation reports the generator and the residue.  Since d*d is a
    derivation, that implies d*d = 0 everywhere.

    The degree dimensions come from the Poincare series (series_dims),
    which raises BudgetError before any monomial is built when the algebra
    would pass SIZE_LIMIT.  The monomials and the differential of a degree
    are built the first time it is read (_FreeBasis); construction builds
    the degrees up to the top generator degree + 2 for the check above.
    The product of two basis monomials is computed when ``multiply`` asks
    for it, from the packed exponent keys and odd-letter bitmasks; no
    multiplication table is stored.

    An error about one generator's declaration carries
    ``presentation_row = ("gen", position)``, and one about its
    differential ``("d", name)``, so a file reader can point at the line.
    """
    gens = tuple(
        g if isinstance(g, GeneratorDecl) else GeneratorDecl(g[0], g[1])
        for g in generators
    )
    if not gens:
        raise AlgebraValidationError("at least one generator is required")
    seen = set()
    for gi, g in enumerate(gens):
        if not NAME_RE.fullmatch(g.name):
            message = f"invalid generator name {g.name!r}"
        elif g.name in seen:
            message = f"duplicate generator name {g.name!r}"
        elif type(g.degree) is not int or g.degree < 1:
            message = f"generator {g.name!r} must have integer degree >= 1"
        else:
            seen.add(g.name)
            continue
        raise _at_row(AlgebraValidationError(message), "gen", gi)
    top = max(g.degree for g in gens)
    if cap < top:
        raise DegreeCapError(
            f"cap {cap} is below the top generator degree", required_cap=top
        )
    for name in differentials:
        if name not in seen:
            raise _at_row(
                AlgebraValidationError(
                    f"differential given for unknown generator {name!r}"
                ),
                "d",
                name,
            )

    dims = series_dims(cap, [g.degree for g in gens])
    basis = _FreeBasis(gens, cap, dims)
    basis.grow(top + 2)  # the generators, their images and the d*d check
    unit = {0: _ONE}
    names = {}
    for gi, g in enumerate(gens):
        n, i = basis.index[basis.weights[gi]]
        names[g.name] = (n, {i: _ONE})
    # the parsed polynomial of each nonzero d(g), the recipe ``recap``
    # rebuilds from
    parsed: dict[str, PolyTerms] = {}
    algebra = CochainAlgebra(
        cap, dims, basis.labels, basis.product, basis.diff, unit, names,
        free_recipe=(gens, parsed), basis=basis,
    )

    # Evaluate the generator images; no differential is read until
    # basis.d_terms is complete.
    for gi, g in enumerate(gens):
        poly = differentials.get(g.name)
        if poly is None:
            continue
        try:
            terms = parse_polynomial(poly) if isinstance(poly, str) else list(poly)
            if g.degree + 1 > cap:
                # d out of the top degree is not stored; only d = 0 fits.
                if any(c != 0 for c, _ in terms):
                    raise DegreeCapError(
                        f"differential of {g.name!r} does not fit under cap {cap}",
                        required_cap=g.degree + 1,
                    )
                continue
            try:
                el = algebra.from_polynomial(terms, expected_degree=g.degree + 1)
            except AlgebraValidationError as exc:
                raise AlgebraValidationError(
                    f"differential of {g.name!r} is ill-graded: {exc}"
                ) from exc
            except DegreeCapError as exc:
                raise DegreeCapError(
                    f"differential of {g.name!r} does not fit under cap {cap}: {exc}",
                    required_cap=exc.required_cap,
                ) from exc
        except (AlgebraError, ParseError) as exc:
            raise _at_row(exc, "d", g.name)
        if not el.is_zero():
            basis.d_terms[gi] = [(k, c, -c) for k, c in el.terms.items()]
            parsed[g.name] = terms

    for g in gens:
        if g.degree + 2 <= cap:
            residue = algebra.differential(
                algebra.differential(algebra.named_element(g.name))
            )
            if not residue.is_zero():
                raise _at_row(
                    DifferentialSquareError(
                        f"d*d is nonzero on generator {g.name!r}: residue {residue}"
                    ),
                    "d",
                    g.name,
                )
    return algebra


def _at_row(exc: Exception, kind: str, key) -> Exception:
    """Tag a presentation error with the ``gen`` or ``d`` row it concerns."""
    exc.presentation_row = (kind, key)
    return exc


def recap(a: CochainAlgebra, new_cap: int) -> CochainAlgebra:
    """Rebuild a free algebra at a different cap from its stored recipe."""
    if a._free_recipe is None:
        raise AlgebraValidationError("only free presentations can be re-capped")
    gens, diffs = a._free_recipe
    return build_free_cdga(gens, diffs, new_cap)


# --------------------------------------------------------------------------
# Table presentation
# --------------------------------------------------------------------------


def build_table_algebra(
    dims: Sequence[int],
    products: Mapping[tuple[int, int, int, int], Iterable[tuple[int, object]]],
    differentials: Optional[Mapping[tuple[int, int], Iterable[tuple[int, object]]]] = None,
    names: Optional[Sequence[Sequence[str]]] = None,
) -> CochainAlgebra:
    """Algebra from explicit per-degree dimensions and structure constants.

    ``dims[n]`` is the dimension in degree n; the cap is ``len(dims)-1``.
    ``products[(n1,i1,n2,i2)]`` lists ``(k, coefficient)`` pairs giving the
    product of basis vectors in degree n1+n2; missing keys mean zero and
    pairs with the same index add up.  ``differentials[(n,i)]`` likewise
    gives d of a basis vector.  Both are stored sparse, one sorted term
    per nonzero coordinate, so the lookups and ``diff_rows`` agree.  A
    two-sided unit must exist in degree 0, and associativity, graded
    commutativity, the Leibniz rule and d*d = 0 are checked on all basis
    tuples within the cap; the first violation raises
    AlgebraValidationError naming the offending labels.
    """
    if not dims:
        raise AlgebraValidationError("dims must cover at least degree 0")
    cap = len(dims) - 1
    if any((not isinstance(d, int)) or d < 0 for d in dims):
        raise AlgebraValidationError("dims must be nonnegative integers")

    if names is None:
        names_per_degree = [
            [f"e{n}_{i}" if dims[n] > 1 else f"e{n}" for i in range(dims[n])]
            for n in range(cap + 1)
        ]
    else:
        names_per_degree = [list(ns) for ns in names]
        if len(names_per_degree) != cap + 1 or any(
            len(ns) != dims[n] for n, ns in enumerate(names_per_degree)
        ):
            raise AlgebraValidationError("names must match dims degree by degree")
    flat = [nm for ns in names_per_degree for nm in ns]
    if len(set(flat)) != len(flat):
        raise AlgebraValidationError("basis names must be unique across degrees")
    for nm in flat:
        if not NAME_RE.fullmatch(nm):
            raise AlgebraValidationError(f"invalid basis name {nm!r}")

    mul: dict[tuple[int, int, int, int], Terms] = {}
    for (n1, i1, n2, i2), entries in products.items():
        if not (0 <= n1 <= cap and 0 <= n2 <= cap and n1 + n2 <= cap):
            raise AlgebraValidationError(
                f"product key ({n1},{i1},{n2},{i2}) outside the cap"
            )
        if not (0 <= i1 < dims[n1] and 0 <= i2 < dims[n2]):
            raise AlgebraValidationError(
                f"product key ({n1},{i1},{n2},{i2}) indexes a missing basis vector"
            )
        terms = []
        for k, c in entries:
            c = fr(c)
            if not (0 <= k < dims[n1 + n2]):
                raise AlgebraValidationError(
                    f"product ({n1},{i1},{n2},{i2}) targets invalid index {k}"
                )
            terms.append((k, c))
        cleaned = sparse_sum(terms)
        if cleaned:
            mul[(n1, i1, n2, i2)] = tuple(sorted(cleaned.items()))

    diff: dict[tuple[int, int], Terms] = {}
    for (n, i), entries in (differentials or {}).items():
        if not (0 <= n < cap) or not (0 <= i < dims[n]):
            raise AlgebraValidationError(
                f"differential key ({n},{i}) out of range (d must land within cap)"
            )
        terms = []
        for j, c in entries:
            c = fr(c)
            if not (0 <= j < dims[n + 1]):
                raise AlgebraValidationError(
                    f"differential of ({n},{i}) targets invalid index {j}"
                )
            terms.append((j, c))
        cleaned = sparse_sum(terms)
        if cleaned:
            diff[(n, i)] = tuple(sorted(cleaned.items()))

    name_map = {
        nm: (n, {i: _ONE})
        for n, ns in enumerate(names_per_degree)
        for i, nm in enumerate(ns)
    }
    algebra = CochainAlgebra(
        cap,
        dims,
        [tuple(ns) for ns in names_per_degree],
        _table_lookup(mul),
        [tuple(diff.get((n, i), ()) for i in range(dims[n])) for n in range(cap)],
        _solve_unit(dims, mul, cap),
        name_map,
    )
    problems = validate_algebra(algebra, limit=1)
    if problems:
        raise AlgebraValidationError(problems[0])
    return algebra


def _table_lookup(mul: MulTable) -> ProductLookup:
    """The product lookup of a validated structure-constant table."""
    get = mul.get

    def product(n1: int, i1: int, n2: int, i2: int) -> Terms:
        return get((n1, i1, n2, i2), ())

    return product


def _solve_unit(dims, mul, cap) -> SparseVector:
    """Find the two-sided unit in degree 0 by solving the defining system."""
    d0 = dims[0]
    if d0 == 0:
        raise AlgebraValidationError("no degree-0 component, so no unit")
    rows: list[SparseVector] = []
    rhs: SparseVector = {}
    for n in range(cap + 1):
        for j in range(dims[n]):
            # k -> the sparse row of the k coordinate of u * e_j (e_j * u)
            left: dict[int, SparseVector] = {}
            right: dict[int, SparseVector] = {}
            for i in range(d0):
                for k, c in mul.get((0, i, n, j), ()):
                    left.setdefault(k, {})[i] = c
                for k, c in mul.get((n, j, 0, i), ()):
                    right.setdefault(k, {})[i] = c
            for k in range(dims[n]):
                if j == k:
                    rhs[len(rows)] = rhs[len(rows) + 1] = _ONE
                rows += [left.get(k, {}), right.get(k, {})]
    u = solve_rows(rows, d0, rhs)
    if u is None:
        raise AlgebraValidationError("no two-sided unit exists in degree 0")
    return u


# --------------------------------------------------------------------------
# Structural validation scans
# --------------------------------------------------------------------------


def validate_algebra(a: CochainAlgebra, limit: Optional[int] = None) -> list[str]:
    """Scan the graded axioms on the basis tuples within the cap that can fail.

    Checks d*d = 0, graded commutativity, associativity, the Leibniz rule
    and neutrality of the unit, summing each side straight from the
    product lookup and the differential table; no Element is built.
    Tuples are visited in the nested order of a full scan, so findings
    come in its order, less those whose identity cannot fail: d*d on a
    basis vector with no differential; Leibniz on a pair when neither
    factor nor any basis vector of their product's degree has one;
    associativity on (a, b, c) with ab = 0 and bc = 0; and, once the unit
    is neutral on every basis vector, commutativity and associativity on
    a tuple with a factor that is a multiple of the unit, when the unit is
    a multiple of one basis vector.  So the unit check runs first; its
    findings are still reported last.  Returns human-readable problem
    strings, empty when the algebra is sound; stops early after ``limit``
    findings.
    """
    problems: list[str] = []

    def report(msg: str) -> bool:
        problems.append(msg)
        return limit is not None and len(problems) >= limit

    cap, dims, label = a.cap, a.dims, a.basis_label
    product = a.product_lookup(cap)
    d = [a.diff_table(n) for n in range(cap)]
    closed = [not any(table) for table in d]
    unit = a._unit.items()
    stray = [
        f"unit is not neutral on {label(n, i)!r}"
        for n in range(cap + 1)
        for i in range(dims[n])
        if sparse_combination((u, product(0, i0, n, i)) for i0, u in unit) != {i: 1}
        or sparse_combination((u, product(n, i, 0, i0)) for i0, u in unit) != {i: 1}
    ]
    # per degree, the basis vectors taken as factors below: all but a
    # multiple of a neutral unit
    basis: list[Sequence[int]] = [range(dim) for dim in dims]
    if len(unit) == 1 and not stray:
        basis[0] = [i for i in basis[0] if i not in a._unit]

    for n in range(cap - 1):
        for i, di in enumerate(d[n]):
            if di and sparse_combination((c, d[n + 1][j]) for j, c in di):
                if report(
                    f"d*d != 0 on basis vector {label(n, i)!r} (degree {n})"
                ):
                    return problems
                break

    for n1 in range(cap + 1):
        for n2 in range(n1, cap + 1 - n1):
            sign = -1 if (n1 % 2 and n2 % 2) else 1
            for i1 in basis[n1]:
                for i2 in basis[n2]:
                    ab = product(n1, i1, n2, i2)
                    ba = product(n2, i2, n1, i1)
                    if (ab or ba) and sparse_sum(ab) != sparse_combination(((sign, ba),)):
                        if report(
                            "graded commutativity fails on "
                            f"({label(n1, i1)!r}, {label(n2, i2)!r})"
                        ):
                            return problems

    # (n2, i2, n3) -> the i3 with e_i2 * e_i3 nonzero, ascending
    nonzero: dict[tuple[int, int, int], list[int]] = {}
    for n1 in range(cap + 1):
        for n2 in range(cap + 1 - n1):
            n12 = n1 + n2
            for n3 in range(cap + 1 - n12):
                n23 = n2 + n3
                for i1 in basis[n1]:
                    for i2 in basis[n2]:
                        e12 = product(n1, i1, n2, i2)
                        third = basis[n3] if e12 else nonzero.get((n2, i2, n3))
                        if third is None:
                            third = nonzero[n2, i2, n3] = [
                                i3 for i3 in basis[n3] if product(n2, i2, n3, i3)
                            ]
                        for i3 in third:
                            lhs = sparse_combination(
                                (c, product(n12, k, n3, i3)) for k, c in e12
                            )
                            rhs = sparse_combination(
                                (c, product(n1, i1, n23, k))
                                for k, c in product(n2, i2, n3, i3)
                            )
                            if lhs != rhs:
                                if report(
                                    "associativity fails on ("
                                    f"{label(n1, i1)!r}, "
                                    f"{label(n2, i2)!r}, "
                                    f"{label(n3, i3)!r})"
                                ):
                                    return problems

    for n1 in range(cap + 1):
        for n2 in range(cap - n1):
            n12 = n1 + n2
            odd = n1 % 2
            for i1 in range(dims[n1]):
                d1 = d[n1][i1]
                for i2, d2 in enumerate(d[n2]):
                    if closed[n12] and not d1 and not d2:
                        continue
                    lhs = sparse_combination(
                        (c, d[n12][k]) for k, c in product(n1, i1, n2, i2)
                    )
                    rhs = [(c, product(n1 + 1, j, n2, i2)) for j, c in d1]
                    rhs += [
                        (-c if odd else c, product(n1, i1, n2 + 1, j)) for j, c in d2
                    ]
                    if lhs != sparse_combination(rhs):
                        if report(
                            "Leibniz rule fails on "
                            f"({label(n1, i1)!r}, {label(n2, i2)!r})"
                        ):
                            return problems

    for msg in stray:
        if report(msg):
            return problems
    return problems


# --------------------------------------------------------------------------
# Polynomial-generator extension (base (x) Q[h])
# --------------------------------------------------------------------------


def tensor_polynomial_generator(
    a: CochainAlgebra, cap: Optional[int] = None
) -> CochainAlgebra:
    """Adjoin a central polynomial generator h (``H_NAME``) of degree 2
    with d = 0.

    The degree-n basis of the result is the concatenation over j >= 0 of
    the base bases in degree n-2j, tagged with h^j; products multiply base
    parts and add h exponents, and the differential acts on the base part
    alone.  A product is looked up in the base when ``multiply`` first
    asks for it, shifted into the block of its power of h and kept; no
    multiplication table is built up front.  Free bases are re-enumerated
    up to the new cap; table bases are taken as literally zero above their
    own cap, which keeps every axiom intact because all extra degrees are
    zero spaces.  The result of a valid base is therefore valid and is not
    scanned again.  Its dims, the base's series times 1/(1 - t^2), are
    checked against SIZE_LIMIT before the base is re-capped, and fix the
    layout (TensorInfo), which is built a degree at a time on first read,
    so the work grows with the degrees read, not with the cap.
    """
    if cap is None:
        cap = a.cap
    if cap < a.cap:
        raise DegreeCapError(
            f"extension cap {cap} is below the base cap {a.cap}", required_cap=a.cap
        )
    if cap < 2:
        raise DegreeCapError(
            f"extension cap {cap} leaves no room for {H_NAME!r} in degree 2",
            required_cap=2,
        )
    if a.has_name(H_NAME):
        raise AlgebraValidationError(
            f"name {H_NAME!r} already exists in the base algebra"
        )

    if a._free_recipe is not None:
        dims = series_dims(cap, [*(g.degree for g in a._free_recipe[0]), 2])
        base = recap(a, cap) if cap > a.cap else a
    else:
        dims = series_dims(cap, (2,), start=a.dims)
        base = a
    info = TensorInfo(base, dims)
    # The h^0 block sits at offset 0 of every degree, so the base's unit and
    # names carry over unchanged; h is the base unit in the h^1 block.
    names = dict(base._names)
    hoff = info.block(2, 1)[2]
    names[H_NAME] = (2, {hoff + i: c for i, c in base._unit.items()})
    return CochainAlgebra(
        cap, dims, info.labels, info.product, info.diff, base._unit,
        names, basis=info,
    )


# --------------------------------------------------------------------------
# Morphisms
# --------------------------------------------------------------------------


class AlgebraMorphism:
    """A degree-preserving map of cochain algebras held as sparse columns.

    ``columns[n][i]`` is the image of source basis vector i of degree n,
    for n up to the trust cap (at most the smaller of the two caps).  This
    class only stores and applies the data; ``validate_morphism`` checks
    that it is a morphism.
    """

    def __init__(
        self,
        source: CochainAlgebra,
        target: CochainAlgebra,
        columns: Sequence[Sequence[SparseVector]],
    ):
        self.source = source
        self.target = target
        self._columns = tuple(tuple(c) for c in columns)

    @property
    def trust_cap(self) -> int:
        return len(self._columns) - 1

    def columns(self, n: int) -> tuple[SparseVector, ...]:
        """The images of the degree-n basis vectors, as sparse columns."""
        if not (0 <= n <= self.trust_cap):
            raise DegreeCapError(
                f"morphism has no degree-{n} component (trust cap "
                f"{self.trust_cap})",
                required_cap=n,
            )
        return self._columns[n]

    def apply(self, el: Element) -> Element:
        if el.algebra is not self.source:
            raise ValueError("element does not live in the morphism source")
        terms = apply_columns(self.columns(el.degree), el.terms)
        return Element._trusted(self.target, el.degree, terms)

    def __repr__(self):
        return f"AlgebraMorphism(trust_cap={self.trust_cap})"


def validate_morphism(f: AlgebraMorphism) -> list[str]:
    """Check unit, multiplicativity and d-commutation within the trust cap.

    Every check reads the structure constants and differential tables of
    both algebras and the columns of the map directly, like
    ``validate_algebra``: d-commutation compares f(d e) with d f(e) for
    each basis vector e in turn and reports the first failure per degree.
    """
    problems = []
    src, tgt = f.source, f.target
    trust = f.trust_cap
    columns = [f.columns(n) for n in range(trust + 1)]
    unit = sparse_sum(
        (k, c * x) for i, c in src._unit.items() for k, x in columns[0][i].items()
    )
    if unit != tgt._unit:
        problems.append("morphism does not preserve the unit")

    for n in range(trust):
        image = columns[n + 1]
        src_d, tgt_d = src.diff_table(n), tgt.diff_table(n)
        for i, column in enumerate(columns[n]):
            lhs = [(t, c * s) for k, c in src_d[i] for t, s in image[k].items()]
            rhs = [(t, c * s) for k, c in column.items() for t, s in tgt_d[k]]
            if (lhs or rhs) and sparse_sum(lhs) != sparse_sum(rhs):
                problems.append(
                    f"morphism does not commute with d on {src.basis_label(n, i)!r}"
                )
                break

    src_product, tgt_product = src.product_lookup(trust), tgt.product_lookup(trust)
    for n1 in range(trust + 1):
        for n2 in range(trust + 1 - n1):
            image = columns[n1 + n2]
            for i1 in range(src.dim(n1)):
                fe1 = columns[n1][i1].items()
                for i2 in range(src.dim(n2)):
                    lhs = [
                        (t, c * s)
                        for k, c in src_product(n1, i1, n2, i2)
                        for t, s in image[k].items()
                    ]
                    rhs = [
                        (t, c1 * c2 * s)
                        for k1, c1 in fe1
                        for k2, c2 in columns[n2][i2].items()
                        for t, s in tgt_product(n1, k1, n2, k2)
                    ]
                    if (lhs or rhs) and sparse_sum(lhs) != sparse_sum(rhs):
                        problems.append(
                            "morphism is not multiplicative on "
                            f"({src.basis_label(n1, i1)!r}, "
                            f"{src.basis_label(n2, i2)!r})"
                        )
    return problems
