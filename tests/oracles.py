"""Independent implementations used to cross-check the package.

Everything here is written from scratch against the definitions, without
calling into the code under test, so agreement is meaningful.  The
exceptions are the Element-level axiom scans and the projected structure
constants at the end, which take the package's Element arithmetic (and,
for the products, the projection of a ring whose degree data a test has
checked against ``ff_rref``) as the reference for its direct routes, the
transfer-datum routes after them, which run the package's own
checks where it skips them, and the cochain embedding and retraction of
an extension, held as the package's ``AlgebraMorphism`` and induced on
cohomology by its ``InducedMap``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


# -- fraction-free row reduction (Bareiss-style forward pass) ---------------


def ff_rref(rows, cols):
    """Reduced row echelon form via integer fraction-free elimination.

    Returns (rows as tuple of tuples of Fractions, pivot column tuple).
    Deliberately a different algorithm from the package's Gauss-Jordan.
    """
    work = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = 1
        for x in row:
            scale = scale * x.denominator // _gcd(scale, x.denominator)
        work.append([int(x * scale) for x in row])
    m = len(work)
    pivots = []
    pivot_rows = []
    r = 0
    for c in range(cols):
        sel = None
        for i in range(r, m):
            if work[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(m):
            if i != r and work[i][c] != 0:
                p, q = work[r][c], work[i][c]
                work[i] = [p * work[i][j] - q * work[r][j] for j in range(cols)]
                g = 0
                for x in work[i]:
                    g = _gcd(g, abs(x))
                if g > 1:
                    work[i] = [x // g for x in work[i]]
        pivots.append(c)
        pivot_rows.append(r)
        r += 1
    out = []
    for i in range(m):
        if i < len(pivot_rows):
            c = pivots[i]
            out.append(tuple(Fraction(x, work[i][c]) for x in work[i]))
        else:
            out.append(tuple(Fraction(0) for _ in range(cols)))
    return tuple(out), tuple(pivots)


def solve_reference(rows, cols, rhs):
    """The x with rows * x = rhs whose free variables are zero, read off
    the ``ff_rref`` of the augmented matrix, or None if there is none."""
    augmented = [list(row) + [c] for row, c in zip(rows, rhs)]
    reduced, pivots = ff_rref(augmented, cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][cols]
    return x


def _rank(vectors, cols):
    return len(ff_rref(vectors, cols)[1])


def coset_contains_reference(point, directions, v, cols):
    """Whether v lies in point + span(directions), dense vectors of
    length cols: adding v - point to the directions keeps their rank."""
    diff = [a - b for a, b in zip(v, point)]
    return _rank(list(directions) + [diff], cols) == _rank(directions, cols)


def coset_contained_in_reference(small, big, cols):
    """Whether the coset small lies in the coset big, each given as a
    dense point and a list of dense direction vectors."""
    (point, directions), (big_point, big_directions) = small, big
    return coset_contains_reference(big_point, big_directions, point, cols) and all(
        coset_contains_reference([0] * cols, big_directions, d, cols)
        for d in directions
    )


def dense_rows(space):
    """The reduced-echelon basis of a package ``Subspace``, as dense tuples."""
    from masseyq.linalg import densify

    return tuple(densify(row, space.ambient_dim) for row in space.rows)


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a if a else 1


# -- an exterior-algebra model built by hand ---------------------------------

# The three-generator exterior algebra with one relation-producing
# differential d(z) = x*y, all generators in degree 1.  Elements are maps
# from letter subsets (orientation: alphabetical order) to rationals.

LETTERS = ("x", "y", "z")


def ext_zero():
    return {}


def ext_gen(letter):
    return {frozenset([letter]): Fraction(1)}


def ext_scale(a, c):
    c = Fraction(c)
    return {s: v * c for s, v in a.items() if v * c != 0}


def ext_add(a, b):
    out = dict(a)
    for s, v in b.items():
        w = out.get(s, Fraction(0)) + v
        if w == 0:
            out.pop(s, None)
        else:
            out[s] = w
    return out


def _merge_sign(s1, s2):
    inversions = 0
    for a in s1:
        for b in s2:
            if b < a:
                inversions += 1
    return -1 if inversions % 2 else 1


def ext_mul(a, b):
    out = {}
    for s1, v1 in a.items():
        for s2, v2 in b.items():
            if s1 & s2:
                continue
            sign = _merge_sign(sorted(s1), sorted(s2))
            s = s1 | s2
            w = out.get(s, Fraction(0)) + sign * v1 * v2
            if w == 0:
                out.pop(s, None)
            else:
                out[s] = w
    return out


def ext_d(a):
    """The derivation with d(x) = d(y) = 0 and d(z) = x*y."""
    out = ext_zero()
    dz = {frozenset(["x", "y"]): Fraction(1)}
    for s, v in a.items():
        word = sorted(s)
        for pos, letter in enumerate(word):
            if letter != "z":
                continue
            prefix = {frozenset(word[:pos]): Fraction(1)}
            suffix = {frozenset(word[pos + 1 :]): Fraction(1)}
            sign = -1 if pos % 2 else 1
            term = ext_scale(ext_mul(ext_mul(prefix, dz), suffix), sign * v)
            out = ext_add(out, term)
    return out


def ext_degree_basis(n):
    return [frozenset(c) for c in combinations(LETTERS, n)]


def ext_coords(a, n):
    return tuple(a.get(s, Fraction(0)) for s in ext_degree_basis(n))


def heisenberg_massey_oracle():
    """Every representative of the product of [x], [x], [y], by brute force.

    Solves dx' = -x*x and dy' = -x*y over all choices and collects the
    resulting representatives -x*y' - x'*y.  Returns the degree-2
    coordinates (basis x*y, x*z, y*z) of all representatives, the exact
    coboundary space, and the observed spread of cohomology classes.
    """
    x, y, z = ext_gen("x"), ext_gen("y"), ext_gen("z")
    assert ext_d(z) == ext_mul(x, y)

    closed_1 = [x, y]
    for v in closed_1:
        assert ext_d(v) == {}

    reps = []
    span = [-2, -1, 0, 1, 2]
    y0 = ext_scale(z, -1)
    assert ext_d(y0) == ext_mul(ext_scale(x, -1), y)
    for a1 in span:
        for a2 in span:
            xprime = ext_add(ext_scale(x, a1), ext_scale(y, a2))
            assert ext_d(xprime) == {} and ext_mul(ext_scale(x, -1), x) == {}
            for b1 in span:
                for b2 in span:
                    yprime = ext_add(y0, ext_add(ext_scale(x, b1), ext_scale(y, b2)))
                    rep = ext_add(
                        ext_mul(ext_scale(x, -1), yprime),
                        ext_mul(ext_scale(xprime, -1), y),
                    )
                    assert ext_d(rep) == {}
                    reps.append(ext_coords(rep, 2))

    coboundaries = ext_coords(ext_mul(x, y), 2)
    classes = set()
    for r in reps:
        # reduce modulo the single coboundary x*y (first coordinate)
        classes.add((Fraction(0), r[1], r[2]))
    return {
        "representatives": reps,
        "coboundary": coboundaries,
        "classes": classes,
        "canonical": ext_coords(ext_mul(x, z), 2),
    }


# -- Betti numbers straight from ranks ----------------------------------------


def differential_columns(algebra, n):
    """d: degree n -> n+1 as dense columns, the coordinates of d of each
    basis Element."""
    return [
        algebra.differential(algebra.basis_element(n, i)).coords
        for i in range(algebra.dim(n))
    ]


def differential_rows(algebra, n):
    """d: degree n -> n+1 as dense rows, one per basis vector of degree n+1."""
    columns = differential_columns(algebra, n)
    return [tuple(col[k] for col in columns) for k in range(algebra.dim(n + 1))]


def betti_oracle(algebra):
    """Betti numbers as dim ker - rank im using the fraction-free reducer.

    Only reads the differential off the algebra, through ``differential``
    on basis Elements; the rank arithmetic is independent of the
    package's reduction code.
    """
    out = []
    for n in range(algebra.cap):
        _, pivots = ff_rref(differential_rows(algebra, n), algebra.dim(n))
        kernel_dim = algebra.dim(n) - len(pivots)
        if n == 0:
            image_rank = 0
        else:
            rows = differential_rows(algebra, n - 1)
            image_rank = len(ff_rref(rows, algebra.dim(n - 1))[1])
        out.append(kernel_dim - image_rank)
    return tuple(out)


# -- random free algebras with a guaranteed differential ---------------------


def random_free_cdga(rng):
    """A random free presentation whose differential squares to zero.

    Half the generators are closed; the rest map to random polynomials in
    the closed ones, so d*d = 0 holds by construction and the builder's
    own check must agree.  Returns (generators, differentials, cap).
    """
    count = rng.randint(2, 4)
    names = ["a", "b", "c", "e"][:count]
    gens = [(nm, rng.randint(1, 3)) for nm in names]
    closed = names[: (count + 1) // 2]
    degrees = dict(gens)
    cap = max(d for _, d in gens) + rng.randint(2, 4)

    def monomials(target, pool):
        found = []

        def extend(idx, word, deg):
            if deg == target:
                found.append(tuple(word))
                return
            if idx == len(pool) or deg > target:
                return
            nm = pool[idx]
            limit = 1 if degrees[nm] % 2 else target
            for e in range(limit + 1):
                if deg + e * degrees[nm] <= target:
                    extend(idx + 1, word + [nm] * e, deg + e * degrees[nm])

        extend(0, [], 0)
        return [w for w in found if w]

    coeffs = [Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2)]
    diffs = {}
    for nm in names[len(closed) :]:
        target = degrees[nm] + 1
        if target > cap:
            continue
        options = monomials(target, closed)
        terms = []
        for word in options:
            if rng.random() < 0.6:
                terms.append((rng.choice(coeffs), word))
        if terms:
            diffs[nm] = terms
    return gens, diffs, cap


# -- free graded-commutative algebras from the definitions --------------------

# A polynomial maps exponent tuples (one exponent per generator, in
# declaration order) to nonzero Fractions.  A monomial is written as the
# word of its letters in declaration order.


class FreeCdgaOracle:
    """A free graded-commutative algebra with differential, by hand.

    Products concatenate words and sort them letter by letter, flipping
    the sign whenever two odd letters pass each other; a repeated odd
    letter kills the product.  The differential applies d to each letter
    of a word in turn (Leibniz rule).  ``gens`` is a list of (name,
    degree) and ``diffs`` maps names to (coefficient, name word) terms.
    """

    def __init__(self, gens, diffs):
        self.names = [name for name, _ in gens]
        self.degrees = [degree for _, degree in gens]
        self.d_gen = {}
        for name, terms in diffs.items():
            poly = {}
            for coeff, word in terms:
                term = {self.exponents(""): Fraction(coeff)}
                for letter in word:
                    term = self.multiply(term, {self.exponents(letter): Fraction(1)})
                poly = _poly_add(poly, term)
            self.d_gen[self.names.index(name)] = poly

    def exponents(self, label):
        """Exponent tuple of a monomial label such as ``a*a*b`` (``1`` or ``""`` for one)."""
        exps = [0] * len(self.names)
        for letter in label.split("*"):
            if letter not in ("", "1"):
                exps[self.names.index(letter)] += 1
        return tuple(exps)

    def degree(self, exps):
        return sum(e * d for e, d in zip(exps, self.degrees))

    def monomials(self, n):
        """Every monomial of total degree n, odd letters at most once."""
        found = []

        def extend(g, exps, degree):
            if g == len(self.names):
                if degree == n:
                    found.append(tuple(exps))
                return
            top = 1 if self.degrees[g] % 2 else n // self.degrees[g]
            for e in range(top + 1):
                if degree + e * self.degrees[g] <= n:
                    extend(g + 1, exps + [e], degree + e * self.degrees[g])

        extend(0, [], 0)
        return found

    def _word(self, exps):
        return [g for g, e in enumerate(exps) for _ in range(e)]

    def _exps(self, word):
        return tuple(word.count(g) for g in range(len(self.names)))

    def monomial_product(self, left, right):
        """(sign, exponents) of left*right; sign 0 when an odd letter repeats."""
        word = self._word(left) + self._word(right)
        sign = 1
        for end in range(len(word) - 1, 0, -1):
            for j in range(end):
                if word[j] > word[j + 1]:
                    if self.degrees[word[j]] % 2 and self.degrees[word[j + 1]] % 2:
                        sign = -sign
                    word[j], word[j + 1] = word[j + 1], word[j]
        for j in range(len(word) - 1):
            if word[j] == word[j + 1] and self.degrees[word[j]] % 2:
                return 0, None
        return sign, self._exps(word)

    def multiply(self, p, q):
        out = {}
        for e, a in p.items():
            for f, b in q.items():
                sign, exps = self.monomial_product(e, f)
                if sign:
                    out = _poly_add(out, {exps: sign * a * b})
        return out

    def differential(self, p):
        out = {}
        for exps, coeff in p.items():
            word = self._word(exps)
            for pos, g in enumerate(word):
                if g not in self.d_gen:
                    continue
                prefix = self._exps(word[:pos])
                suffix = self._exps(word[pos + 1 :])
                sign = -1 if self.degree(prefix) % 2 else 1
                term = self.multiply(
                    self.multiply({prefix: Fraction(sign) * coeff}, self.d_gen[g]),
                    {suffix: Fraction(1)},
                )
                out = _poly_add(out, term)
        return out


def _poly_add(p, q):
    out = dict(p)
    for exps, c in q.items():
        total = out.get(exps, Fraction(0)) + c
        if total == 0:
            out.pop(exps, None)
        else:
            out[exps] = total
    return out


# -- Element-level axiom scans ----------------------------------------------
#
# The package's structural scans read structure constants directly.  These
# are the same scans written against the public Element arithmetic
# (``multiply``, ``differential``, ``AlgebraMorphism.apply``): a different
# route through the same algebra, kept as the reference the fast scans must
# match finding for finding.


def validate_algebra_reference(a, limit=None):
    """``validate_algebra`` through Element arithmetic: same loops, same order.

    Every identity is evaluated with ``multiply`` and ``differential`` on
    basis Elements, so the findings list, messages and ``limit`` cut must
    match the structure-constant scan.
    """
    problems: list[str] = []

    def report(msg: str) -> bool:
        problems.append(msg)
        return limit is not None and len(problems) >= limit

    cap = a.cap
    for n in range(cap - 1):
        for i in range(a.dim(n)):
            if not a.differential(a.differential(a.basis_element(n, i))).is_zero():
                if report(
                    f"d*d != 0 on basis vector {a.basis_label(n, i)!r} "
                    f"(degree {n})"
                ):
                    return problems
                break

    for n1 in range(cap + 1):
        for n2 in range(n1, cap + 1 - n1):
            sign = -1 if (n1 % 2 and n2 % 2) else 1
            for i1 in range(a.dim(n1)):
                for i2 in range(a.dim(n2)):
                    ab = a.multiply(a.basis_element(n1, i1), a.basis_element(n2, i2))
                    ba = a.multiply(a.basis_element(n2, i2), a.basis_element(n1, i1))
                    if ab != ba.scale(sign):
                        if report(
                            "graded commutativity fails on "
                            f"({a.basis_label(n1, i1)!r}, {a.basis_label(n2, i2)!r})"
                        ):
                            return problems

    for n1 in range(cap + 1):
        for n2 in range(cap + 1 - n1):
            for n3 in range(cap + 1 - n1 - n2):
                for i1 in range(a.dim(n1)):
                    e1 = a.basis_element(n1, i1)
                    for i2 in range(a.dim(n2)):
                        e2 = a.basis_element(n2, i2)
                        e12 = a.multiply(e1, e2)
                        for i3 in range(a.dim(n3)):
                            e3 = a.basis_element(n3, i3)
                            lhs = a.multiply(e12, e3)
                            rhs = a.multiply(e1, a.multiply(e2, e3))
                            if lhs != rhs:
                                if report(
                                    "associativity fails on ("
                                    f"{a.basis_label(n1, i1)!r}, "
                                    f"{a.basis_label(n2, i2)!r}, "
                                    f"{a.basis_label(n3, i3)!r})"
                                ):
                                    return problems

    for n1 in range(cap + 1):
        for n2 in range(cap - n1):
            for i1 in range(a.dim(n1)):
                e1 = a.basis_element(n1, i1)
                for i2 in range(a.dim(n2)):
                    e2 = a.basis_element(n2, i2)
                    lhs = a.differential(a.multiply(e1, e2))
                    rhs = a.multiply(a.differential(e1), e2)
                    term = a.multiply(e1, a.differential(e2))
                    rhs = rhs + (term.scale(-1) if n1 % 2 else term)
                    if lhs != rhs:
                        if report(
                            "Leibniz rule fails on "
                            f"({a.basis_label(n1, i1)!r}, {a.basis_label(n2, i2)!r})"
                        ):
                            return problems

    one = a.unit()
    for n in range(cap + 1):
        for i in range(a.dim(n)):
            e = a.basis_element(n, i)
            if a.multiply(one, e) != e or a.multiply(e, one) != e:
                if report(f"unit is not neutral on {a.basis_label(n, i)!r}"):
                    return problems
    return problems


def validate_morphism_reference(f):
    """``validate_morphism`` through Element arithmetic: same loops, same order."""
    problems = []
    src, tgt = f.source, f.target
    trust = f.trust_cap
    if f.apply(src.unit()) != tgt.unit():
        problems.append("morphism does not preserve the unit")

    for n in range(trust):
        for i in range(src.dim(n)):
            e = src.basis_element(n, i)
            if f.apply(src.differential(e)) != tgt.differential(f.apply(e)):
                problems.append(
                    f"morphism does not commute with d on {src.basis_label(n, i)!r}"
                )
                break

    for n1 in range(trust + 1):
        for n2 in range(trust + 1 - n1):
            for i1 in range(src.dim(n1)):
                e1 = src.basis_element(n1, i1)
                fe1 = f.apply(e1)
                for i2 in range(src.dim(n2)):
                    e2 = src.basis_element(n2, i2)
                    if f.apply(src.multiply(e1, e2)) != tgt.multiply(
                        fe1, f.apply(e2)
                    ):
                        problems.append(
                            "morphism is not multiplicative on "
                            f"({src.basis_label(n1, i1)!r}, "
                            f"{src.basis_label(n2, i2)!r})"
                        )
    return problems


# -- the extension laid out whole -----------------------------------------------
#
# The package lays out base (x) Q[h] a degree at a time and reads each
# block's offset and size off the extension's dims.  This builds the same
# tables whole, walking every power of h in every degree and counting
# offsets up from the base dims.


def eager_tensor_tables(base, cap):
    """``(blocks, labels, diff, product)`` of ``base (x) Q[h]`` up to
    ``cap``, with ``base`` zero above its own cap.

    ``blocks[n]`` lists ``(j, base degree, offset, size)`` for every
    2j <= n in ascending j, ``labels[n]`` the basis labels of degree n,
    ``diff[n]`` (n < cap) the terms of d of each basis vector, and
    ``product(n1, i1, n2, i2)`` the terms of a product of basis vectors:
    the base product shifted into the block of the sum of the h powers.
    """

    def bdim(k):
        return base.dim(k) if 0 <= k <= base.cap else 0

    blocks, labels, splits = [], [], []
    for n in range(cap + 1):
        row, offset = [], 0
        for j in range(n // 2 + 1):
            row.append((j, n - 2 * j, offset, bdim(n - 2 * j)))
            offset += bdim(n - 2 * j)
        blocks.append(tuple(row))
        labels.append(
            tuple(
                "*".join(([] if label == "1" else [label]) + ["h"] * j) or "1"
                for j, bdeg, _off, size in row
                for label in (base.basis_labels(bdeg) if size else ())
            )
        )
        splits.append([(j, i) for j, _bdeg, _off, size in row for i in range(size)])

    diff = []
    for n in range(cap):
        table = []
        for j, bdeg, _off, size in blocks[n]:
            if size and bdeg < base.cap:
                toff = blocks[n + 1][j][2]
                table += [
                    tuple((toff + k, c) for k, c in terms)
                    for terms in base.diff_table(bdeg)
                ]
            else:
                table += [()] * size
        diff.append(tuple(table))

    base_product = base.product_lookup(base.cap)

    def product(n1, i1, n2, i2):
        j1, k1 = splits[n1][i1]
        j2, k2 = splits[n2][i2]
        b1, b2 = n1 - 2 * j1, n2 - 2 * j2
        if b1 + b2 > base.cap:
            return ()
        toff = blocks[n1 + n2][j1 + j2][2]
        return tuple((toff + k, c) for k, c in base_product(b1, k1, b2, k2))

    return blocks, labels, diff, product


# -- the cochain maps between a base and its extension --------------------------
#
# The package reads the embedding of the base, the retraction h = 0 and the
# identity off the h^0 class block of the extension's cohomology.  These are
# the cochain maps whose induced maps they must equal.


def _base_block(a, ext, role):
    """``(offset, size)`` of the h^0 block of each degree of ``ext`` up to
    the smaller cap, checked against the dimensions of ``a``."""
    from masseyq.errors import AlgebraValidationError

    info = ext.tensor_info
    if info is None:
        raise AlgebraValidationError(
            f"{role} is not a polynomial-generator extension"
        )
    out = []
    for n in range(min(a.cap, ext.cap) + 1):
        block = info.block(n, 0)
        size = 0 if block is None else block[3]
        if size != a.dim(n):
            raise AlgebraValidationError(
                f"base dimension mismatch in degree {n}: {a.dim(n)} vs {size}"
            )
        out.append((0 if block is None else block[2], size))
    return out


def identity_morphism(a):
    """The identity of ``a`` on every degree up to its cap."""
    from masseyq.cdga import AlgebraMorphism

    return AlgebraMorphism(
        a, a, [[{i: 1} for i in range(a.dim(n))] for n in range(a.cap + 1)]
    )


def tensor_embedding(a, ext):
    """The inclusion of the base into ``base (x) Q[h]`` (h power zero), a
    morphism when ``a`` is the base of ``ext``."""
    from masseyq.cdga import AlgebraMorphism

    blocks = _base_block(a, ext, "target")
    return AlgebraMorphism(
        a,
        ext,
        [[{off + i: Fraction(1)} for i in range(size)] for off, size in blocks],
    )


def tensor_retraction(ext, a):
    """Set h to zero: the left inverse of ``tensor_embedding`` on the base,
    a morphism when ``a`` is the base of ``ext``."""
    from masseyq.cdga import AlgebraMorphism

    columns = [
        [
            {k - off: Fraction(1)} if off <= k < off + size else {}
            for k in range(ext.dim(n))
        ]
        for n, (off, size) in enumerate(_base_block(a, ext, "source"))
    ]
    return AlgebraMorphism(ext, a, columns)


def block_map_mismatches(ring, restrict_map):
    """``(map name, degree)`` wherever the embedding of the block ring of
    the extension ring ``ring``, the retraction back (both
    ``InducedMap.leading_block``) or ``restrict_map`` (a tautological
    datum's, over ``ring``) differs from the map its cochain map induces,
    in every degree up to its top; the tops must agree too."""
    from masseyq.cohomology import InducedMap

    base, ext = ring.block_ring, ring
    embed = tensor_embedding(base.algebra, ext.algebra)
    retract = tensor_retraction(ext.algebra, base.algebra)
    pairs = (
        ("embed", InducedMap.leading_block(base, ext), InducedMap(embed, base, ext)),
        ("retract", InducedMap.leading_block(ext, base), InducedMap(retract, ext, base)),
        ("restrict", restrict_map, InducedMap(identity_morphism(ext.algebra), ext, ext)),
    )
    out = []
    for name, got, want in pairs:
        if got.top != want.top:
            out.append((name, "top"))
            continue
        out.extend(
            (name, n) for n in range(want.top + 1) if got.columns(n) != want.columns(n)
        )
    return out


# -- structure constants by projection ----------------------------------------
#
# A cohomology ring reads the product of two basis classes of an extension
# base (x) Q[h] off the base ring and shifts it into its h-power block.
# The reference multiplies the two representatives in the ring's own
# algebra, the extension, and projects the product there, cocycle check
# included.


def projected_product_reference(ring, p, i, q, j):
    """Class coordinates of e_i * e_j (basis classes of H^p and H^q of
    ``ring``), as the projection of the product of their representatives."""
    left = ring.lift(ring.basis_class(p, i))
    right = ring.lift(ring.basis_class(q, j))
    return ring.project(left * right).coords


# -- dense class arithmetic -----------------------------------------------------
#
# A class of the package holds the sparse terms of its coordinates.  These
# are the same operations on the dense tuple of coordinates, each entry
# visited, with products from ``projected_product_reference`` and the
# ring's degree data (checked against ``ff_rref`` elsewhere) as the only
# inputs.


def dense_add(u, v):
    assert len(u) == len(v)
    return tuple(a + b for a, b in zip(u, v))


def dense_sub(u, v):
    assert len(u) == len(v)
    return tuple(a - b for a, b in zip(u, v))


def dense_scale(u, c):
    return tuple(Fraction(c) * a for a in u)


def dense_lift(ring, n, coords):
    """Cochain coordinates of the representative of a class of H^n: the
    combination of the degree's representatives, entry by entry."""
    out = [Fraction(0)] * ring.algebra.dim(n)
    for c, rep in zip(coords, ring._degree(n).representatives):
        for k, v in rep.items():
            out[k] += c * v
    return tuple(out)


def dense_project(ring, el):
    """Class coordinates of a cocycle: the entries at the class pivots of
    its residue after the reduced coboundary basis rows."""
    space = ring.coboundaries(el.degree)
    out = list(el.coords)
    for row, p in zip(dense_rows(space), space.pivots):
        c = out[p]
        if c:
            out = [x - c * y for x, y in zip(out, row)]
    return tuple(out[p] for p in ring._degree(el.degree).class_pivots)


def dense_cup(ring, p, u, q, v):
    """Class coordinates of the product of classes of H^p and H^q with
    coordinates u and v, summed over every pair of basis classes."""
    out = [Fraction(0)] * ring.class_dim(p + q)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                product = projected_product_reference(ring, p, i, q, j)
                out = [x + a * b * y for x, y in zip(out, product)]
    return tuple(out)


# -- the Euler class and the tautological transfer datum -----------------------
#
# The package reads the top h coefficient of an Euler class off its class
# blocks, decides that the class is not a zero divisor from the inverse of
# that coefficient, and trusts the tautological datum it builds itself.
# These are the routes it no longer takes there.


def h_components(el):
    """Split a cochain of an extension base (x) Q[h] into base cochains,
    one per h power; blocks above the stored base cap are zero by
    construction and omitted."""
    from masseyq.cdga import Element

    info = el.algebra.tensor_info
    out = {}
    for j in range(el.degree // 2 + 1):
        _, bdeg, off, size = info.block(el.degree, j)
        if bdeg <= info.base.cap:
            terms = {k - off: c for k, c in el.terms.items() if off <= k < off + size}
            out[j] = Element._trusted(info.base, bdeg, terms)
    return out


def top_coefficient_reference(chi):
    """The h^m component of an Euler class's cochain, projected in the
    block ring of its ring."""
    return chi.cls.ring.block_ring.project(h_components(chi.element)[chi.m])


def bundle_polynomial(bundles):
    """The Euler class of weighted line bundles as polynomial text.

    ``bundles`` are (c1, weight) pairs, c1 a product of names joined by
    ``*`` or None.  The product of the factors c1 + weight*h is
    multiplied out by choosing one summand per factor, in bundle order, so
    no term is reordered and no sign is needed.
    """
    terms = [(1, [])]
    for c1, weight in bundles:
        summands = [(weight, ["h"])]
        if c1 is not None:
            summands.append((1, c1.split("*")))
        terms = [
            (coeff * c, names + more)
            for coeff, names in terms
            for c, more in summands
        ]
    return " + ".join("*".join([str(coeff)] + names) for coeff, names in terms)


def zero_divisor_rank_scan(ring, chi_cls, m):
    """``(ok, failed degree)`` of the degreewise rank test of multiplication
    by chi, a class of degree 2m: products by projection, ranks by
    ``ff_rref``."""
    for n in range(ring.top - 2 * m + 1):
        columns = []
        for i in range(ring.class_dim(n)):
            column = [Fraction(0)] * ring.class_dim(n + 2 * m)
            for k, c in enumerate(chi_cls.coords):
                if c:
                    product = projected_product_reference(ring, 2 * m, k, n, i)
                    column = [x + c * y for x, y in zip(column, product)]
            columns.append(column)
        _, pivots = ff_rref(columns, ring.class_dim(n + 2 * m))
        if len(pivots) != len(columns):
            return False, n
    return True, None


def cup_columns_reference(ring, xi, n):
    """The sparse class columns of multiplication by xi from H^n to
    H^(n + deg xi): the ``cup`` of xi and each basis class."""
    from masseyq.cohomology import cup

    return [
        {k: c for k, c in enumerate(cup(xi, e).coords) if c}
        for e in ring.basis_classes(n)
    ]


def full_datum_findings(datum):
    """``validate_transfer_datum`` on a plain copy of a datum, with rings
    of its own, so every check runs on it.  The copy of a
    ``TautologicalDatum`` restricts by the identity morphism and pushes by
    the columns of cup with chi."""
    from masseyq.cohomology import CohomologyRing, InducedMap
    from masseyq.transfer import (
        HamiltonianTransferDatum,
        TautologicalDatum,
        validate_transfer_datum,
    )

    push = datum.push_map
    if isinstance(datum, TautologicalDatum):
        morphism = identity_morphism(datum.fixed)
        columns = [
            cup_columns_reference(datum.fixed_ring, datum.chi.cls, n)
            for n in range(push.top + 1)
        ]
    else:
        morphism = datum.restrict_map.morphism
        columns = [push.columns(n) for n in range(push.top + 1)]
    ambient, fixed = CohomologyRing(datum.ambient), CohomologyRing(datum.fixed)
    copy = HamiltonianTransferDatum(
        name=datum.name,
        restrict_map=InducedMap(morphism, ambient, fixed),
        push_map=InducedMap.stored(fixed, ambient, push.shift, columns),
        euler=datum.euler,
    )
    return validate_transfer_datum(copy)


# -- maps on cohomology by dense coordinates ------------------------------------
#
# The package holds every map on cohomology as sparse class columns
# (``InducedMap``).  These are the routes it took before: a coset scaled by
# ``cup`` of its point and of each direction vector, spanned afresh, and a
# pushforward given as dense rows, applied by a matrix-vector product.


def scale_coset_reference(ring, xi, coset, n):
    """The image of a coset of H^n under multiplication by xi."""
    from masseyq.cohomology import CohomologyClass, cup
    from masseyq.linalg import AffineCoset, Subspace, densify

    def scaled(v):
        return cup(xi, CohomologyClass(ring, n, densify(v, ring.class_dim(n)))).terms

    dim = ring.class_dim(n + xi.degree)
    direction = Subspace.span_rows(dim, [scaled(v) for v in coset.direction.rows])
    return AffineCoset(scaled(coset.point), direction)


def matvec_reference(rows, v):
    """The dense product of a matrix, given as rows, with a vector."""
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows)


# The rotation datum's pushforward in each even degree 2k, as the rows of
# its matrix on class coordinates (eN h^k, eS h^k) -> (H(k+1), A(k+1)):
# eN h^k -> A(k+1) and eS h^k -> A(k+1) - H(k+1).  Odd degrees are empty.
ROTATION_PUSH_ROWS = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(1)))


# -- triple Massey products from the definition -------------------------------
#
# For classes a, b, c of degrees p, q, r with representatives A, B, C, a
# defining system is a pair X, Y with dX = bar(A) B and dY = bar(B) C, where
# bar twists by the sign (-1)^degree, and its product is the cocycle
# bar(A) Y + bar(X) C (the convention stated by ``triple_massey`` and
# ``Element.bar``).  With A, B, C fixed, X and Y run over one solution plus all
# cocycles, so the products run over rep + bar(A) Z^(q+r-1) + bar(Z^(p+q-1)) C,
# and modulo coboundaries that is the whole Massey set.  Everything below
# reads the differential and the products of a ``FreeCdgaOracle`` and
# eliminates with ``ff_rref``.


def _bar(poly, degree):
    return {e: -c for e, c in poly.items()} if degree % 2 else poly


def _coords(poly, basis):
    index = {e: i for i, e in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for e, c in poly.items():
        out[index[e]] += c
    return out


def _d_rows(oracle, k):
    """Rows of the matrix of d from degree k to k + 1, monomial bases."""
    source, target = oracle.monomials(k), oracle.monomials(k + 1)
    columns = [_coords(oracle.differential({e: Fraction(1)}), target) for e in source]
    return [[col[i] for col in columns] for i in range(len(target))]


def _null_space(rows, cols):
    reduced, pivots = ff_rref(rows, cols)
    basis = []
    for f in range(cols):
        if f not in pivots:
            v = [Fraction(0)] * cols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -reduced[i][f]
            basis.append(v)
    return basis


def _span(vectors, cols):
    """The nonzero rows of the rref of a list of vectors."""
    reduced, pivots = ff_rref(vectors, cols)
    return reduced[: len(pivots)]


def massey_coset_oracle(oracle, A, B, C, p, q, r):
    """The Massey set of the classes of cocycles A, B, C (polynomials of
    ``oracle`` in degrees p, q, r), from the definition.

    Returns ``{"defined": False}`` when a product of neighbours is not
    exact.  Otherwise the degree n, its monomial ``basis``, the
    representative ``rep`` of one defining system, the span of the
    coboundaries of degree n (``coboundaries``) and of those together
    with the indeterminacy (``direction``), both as reduced rows, and
    whether 0 lies in the set (``vanishes``), all in coordinates of the
    basis.
    """
    n = p + q + r - 1
    basis = oracle.monomials(n)

    def primitive(left, lp, right, rq):
        k = lp + rq - 1
        source = oracle.monomials(k)
        target = _coords(oracle.multiply(_bar(left, lp), right), oracle.monomials(k + 1))
        x = solve_reference(_d_rows(oracle, k), len(source), target)
        return None if x is None else {e: c for e, c in zip(source, x) if c}

    def cocycles(k):
        source = oracle.monomials(k)
        for z in _null_space(_d_rows(oracle, k), len(source)):
            yield {e: c for e, c in zip(source, z) if c}

    X, Y = primitive(A, p, B, q), primitive(B, q, C, r)
    if X is None or Y is None:
        return {"defined": False}
    rep = _poly_add(
        oracle.multiply(_bar(A, p), Y), oracle.multiply(_bar(X, p + q - 1), C)
    )
    assert oracle.differential(rep) == {}
    boundary = [
        _coords(oracle.differential({e: Fraction(1)}), basis)
        for e in oracle.monomials(n - 1)
    ]
    indeterminacy = [oracle.multiply(_bar(A, p), z) for z in cocycles(q + r - 1)]
    indeterminacy += [oracle.multiply(_bar(z, p + q - 1), C) for z in cocycles(p + q - 1)]
    vectors = boundary + [_coords(v, basis) for v in indeterminacy]
    direction = _span(vectors, len(basis))
    rep_coords = _coords(rep, basis)
    return {
        "defined": True,
        "degree": n,
        "basis": basis,
        "rep": rep_coords,
        "coboundaries": _span(boundary, len(basis)),
        "direction": direction,
        "vanishes": len(_span(vectors + [rep_coords], len(basis))) == len(direction),
    }
