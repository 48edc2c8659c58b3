"""Seeded inputs and request streams for the three benchmark workloads.

A workload is a set of generated input files plus a stream of rounds.
Every round of a workload holds the same kinds of request in a seeded
order with seeded parameters, so a run that measures whole rounds does
the same mix of work on every seed; the seed changes models, classes,
Euler data and order, not the mix.  masseyq only ever sees the files
and the argv built here.

Each request carries what its answer must be: an exit code and a few
facts for the checker in checks.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("queries", "euler-chain", "scan")


@dataclass
class Model:
    """A nilpotent model on degree-1 generators x1..xg.

    ``diffs[k]`` lists (coefficient, i, j) with i < j, meaning the term
    coefficient * x_i * x_j of d x_k (0-based indices).  ``closed``
    lists the generators with zero differential.
    """

    file: str
    gens: int
    diffs: dict[int, list[tuple[Fraction, int, int]]]
    closed: list[int]

    def text(self) -> str:
        lines = [f"cap = {self.gens + 1}"]
        lines += [f"gen x{i + 1} : 1" for i in range(self.gens)]
        for k, terms in sorted(self.diffs.items()):
            poly = " + ".join(f"{c}*x{i + 1}*x{j + 1}" for c, i, j in terms)
            lines.append(f"d x{k + 1} = {poly}")
        return "\n".join(lines) + "\n"


@dataclass
class Request:
    argv: list[str]
    expect: dict
    verdicts: int = 1

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    """Generated files, the models behind them and the request stream.

    ``generate(r)`` builds round r; ``round`` keeps what it built, so a
    request object is the same every time its round is asked for.
    """

    name: str
    seed: int
    files: dict[str, str]
    models: dict[str, Model]
    warmup: list[Request]
    generate: Callable[[int], list[Request]]
    rounds: list[list[Request]] = field(default_factory=list)

    def round(self, r: int) -> list[Request]:
        while len(self.rounds) <= r:
            self.rounds.append(self.generate(len(self.rounds)))
        return self.rounds[r]


def filiform(n: int) -> Model:
    """m0(n): d x_k = x1 * x_{k-1} for k = 3..n."""
    return Model(
        file=f"filiform-{n}.alg",
        gens=n,
        diffs={k: [(Fraction(1), 0, k - 1)] for k in range(2, n)},
        closed=[0, 1],
    )


def two_step(g: int, rng: random.Random) -> Model:
    """A random two-step nilpotent presentation on g generators.

    The first ceil(g/2) generators are closed; each other generator maps
    to a combination of two products of closed ones, so d*d = 0 holds by
    construction.  A fixed number of terms keeps the cost of a model of
    a given size nearly the same on every seed.
    """
    nclosed = (g + 1) // 2
    pairs = [(i, j) for i in range(nclosed) for j in range(i + 1, nclosed)]
    coeffs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    diffs = {}
    for k in range(nclosed, g):
        chosen = rng.sample(pairs, 2)
        diffs[k] = [(rng.choice(coeffs), i, j) for i, j in sorted(chosen)]
    return Model(
        file=f"two-step-{g}.alg", gens=g, diffs=diffs, closed=list(range(nclosed))
    )


def _scalars(rng: random.Random) -> list[Fraction]:
    """Nonzero Euler-class coefficients in a seeded order, all distinct."""
    values = {Fraction(p, q) for p in range(-40, 41) if p for q in (1, 2, 3)}
    ordered = sorted(values)
    rng.shuffle(ordered)
    return ordered


def _weights(rng: random.Random) -> list[int]:
    values = [w for w in range(-200, 201) if w]
    rng.shuffle(values)
    return values


# Small nonzero coefficients for requests whose Euler data may repeat.
_SMALL_SCALARS = sorted(
    {Fraction(p, q) for p in range(-9, 10) if p for q in (1, 2, 3)}
)


def _rng(seed: int, *parts) -> random.Random:
    return random.Random("/".join([str(seed)] + [str(p) for p in parts]))


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def queries(seed: int) -> Workload:
    """Small requests on a pool of nilpotent models, drawn with repeats.

    One round: a cohomology and a massey request on each of the eight
    pool models, one euler and one transfer request (16 of 18 are
    cohomology or massey).  Euler requests go to the Heisenberg builtin:
    on a 5-generator pool model one takes ~50x a query.
    """
    rng = _rng(seed, "queries", "models")
    pool = [filiform(n) for n in range(5, 9)] + [two_step(g, rng) for g in range(5, 9)]
    models = {m.file: m for m in pool}
    files = {m.file: m.text() for m in pool}
    smallest = pool[0]

    def euler_request(r: int, k: Fraction, w: int) -> Request:
        if r % 2 == 0:
            argv = ["euler", "builtin:heisenberg", f"--chi={k}*h", "--m", "1"]
            expect = {"kind": "euler", "exit": 0, "m": 1, "top": k}
        else:
            argv = ["euler", "builtin:heisenberg", "--bundle", f"c1 = x*z weight = {w}"]
            expect = {"kind": "euler", "exit": 0, "m": 1, "top": Fraction(w), "weights": [w]}
        return Request(argv, expect)

    def gen(r: int) -> list[Request]:
        rr = _rng(seed, "queries", "round", r)
        reqs = []
        for m in pool:
            reqs.append(Request(["cohomology", m.file], {"kind": "cohomology", "model": m.file}))
            triple = [rr.choice(m.closed) for _ in range(3)]
            reqs.append(
                Request(
                    ["massey", m.file] + [f"x{i + 1}" for i in triple],
                    {"kind": "massey", "model": m.file, "triple": triple},
                )
            )
        k = rr.choice(_SMALL_SCALARS)
        w = rr.choice([w for w in range(-9, 10) if w])
        reqs.append(euler_request(r, k, w))
        reqs.append(
            Request(
                ["transfer", "builtin:rotation", "eN", "eS", "eN"],
                {"kind": "transfer", "exit": 12, "verdict": "inconclusive"},
            )
        )
        rr.shuffle(reqs)
        return reqs

    warmup = [
        Request(["cohomology", smallest.file], {"kind": "cohomology", "model": smallest.file}),
        Request(
            ["massey", smallest.file, "x1", "x2", "x2"],
            {"kind": "massey", "model": smallest.file, "triple": [0, 1, 1]},
        ),
        euler_request(0, Fraction(1), 1),
        Request(
            ["transfer", "builtin:rotation", "eN", "eS", "eN"],
            {"kind": "transfer", "exit": 12, "verdict": "inconclusive"},
        ),
    ]
    return Workload("queries", seed, files, models, warmup, gen)


# ---------------------------------------------------------------------------
# euler-chain
# ---------------------------------------------------------------------------


def euler_chain(seed: int) -> Workload:
    """lemma32 and theorem11 requests that never share model, cap and Euler data.

    One round: Heisenberg <x,x,y> at caps 12..16 with chi = k*h,
    c1 = x*z, one line bundle, two line bundles and chi = k*h*h (m = 2);
    filiform-4 <x1,x2,x2> (non-vanishing) and <x2,x1,x1> (premise fails);
    theorem11 over the tautological datum of the Heisenberg model.  Each
    kind draws its Euler data from its own seeded sequence, so requests
    stay distinct across rounds.
    """
    fil4 = filiform(4)
    files = {fil4.file: fil4.text()}
    # One seeded sequence per kind of Euler data; round r takes entries 2r
    # and 2r + 1, so no two requests of a kind share their data, and the
    # two filiform requests (same model and cap) never share theirs.
    scalars = {kind: _scalars(_rng(seed, "euler-chain", kind)) for kind in ("h", "hh", "filiform", "theorem11")}
    weights = {kind: _weights(_rng(seed, "euler-chain", kind)) for kind in ("c1", "line", "two-lines")}
    heis = ["builtin:heisenberg", "x", "x", "y"]

    def nonvanishing(cap, m, weights_=None, command="lemma32"):
        expect = {"kind": command, "exit": 0, "verdict": "non-vanishing", "m": m}
        if cap is not None:
            expect["cap"] = cap
        if weights_ is not None:
            expect["weights"] = weights_
        return expect

    def gen(r: int) -> list[Request]:
        def k(kind, offset=0):
            seq = scalars[kind]
            return seq[(2 * r + offset) % len(seq)]

        def w(kind, offset=0):
            seq = weights[kind]
            return seq[(2 * r + offset) % len(seq)]

        w3, w4a, w4b, w5 = w("line"), w("two-lines"), w("two-lines", 1), w("c1")
        reqs = [
            Request(["lemma32", *heis, f"--chi={k('h')}*h", "--m", "1", "--cap", "12"], nonvanishing(12, 1)),
            Request(
                ["lemma32", *heis, "--bundle", f"c1 = x*z weight = {w5}", "--cap", "13"],
                nonvanishing(13, 1, [w5]),
            ),
            Request(["lemma32", *heis, "--bundle", f"weight = {w3}", "--cap", "14"], nonvanishing(14, 1, [w3])),
            Request(
                ["lemma32", *heis, "--bundle", f"weight = {w4a}", "--bundle", f"weight = {w4b}", "--cap", "15"],
                nonvanishing(15, 2, [w4a, w4b]),
            ),
            Request(["lemma32", *heis, f"--chi={k('hh')}*h*h", "--m", "2", "--cap", "16"], nonvanishing(16, 2)),
            Request(
                ["lemma32", fil4.file, "x1", "x2", "x2", f"--chi={k('filiform')}*h", "--m", "1"],
                nonvanishing(9, 1),
            ),
            Request(
                ["lemma32", fil4.file, "x2", "x1", "x1", f"--chi={k('filiform', 1)}*h", "--m", "1"],
                {"kind": "premise", "exit": 12, "reason": "vanishes"},
            ),
            Request(
                ["theorem11", *heis, f"--chi={k('theorem11')}*h", "--m", "1"],
                nonvanishing(None, 1, command="theorem11"),
            ),
        ]
        _rng(seed, "euler-chain", "order", r).shuffle(reqs)
        return reqs

    warmup = [
        Request(
            ["lemma32", *heis, "--bundle", "c1 = x*z weight = 1"],
            nonvanishing(9, 1, [1]),
        ),
        Request(
            ["theorem11", "builtin:torus", "x", "x", "y", "--chi=h", "--m", "1"],
            {"kind": "theorem11-premise", "exit": 12},
        ),
    ]
    return Workload("euler-chain", seed, files, {fil4.file: fil4}, warmup, gen)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

# The bundled default family, written in the family-file grammar.
DEFAULT_CONFIGS = [
    ("heisenberg-h", ["model = builtin:heisenberg", "triple = x | x | y", "chi = h", "m = 1"], "non-vanishing"),
    (
        "heisenberg-twisted-line",
        ["model = builtin:heisenberg", "triple = x | x | y", "bundle c1 = x*z weight = 2"],
        "non-vanishing",
    ),
    (
        "heisenberg-two-lines",
        ["model = builtin:heisenberg", "triple = x | x | y", "bundle weight = 1", "bundle weight = 1"],
        "non-vanishing",
    ),
    (
        "heisenberg-transfer",
        ["model = builtin:heisenberg", "datum = tautological", "triple = x | x | y", "chi = h", "m = 1"],
        "non-vanishing",
    ),
    ("torus-undefined", ["model = builtin:torus", "triple = x | x | y", "chi = h", "m = 1"], "premise-failed"),
    ("torus-vanishing", ["model = builtin:torus", "triple = x | x | x", "chi = h", "m = 1"], "premise-failed"),
    ("even-sphere-formal", ["model = builtin:even-sphere", "triple = u | u | u", "chi = h", "m = 1"], "premise-failed"),
    ("rotation-poles", ["datum = builtin:rotation", "triple = eN | eS | eN"], "inconclusive"),
]


def _family(configs) -> str:
    out = ["[family]", "name = bench", ""]
    for name, lines, expect in configs:
        out += ["[config]", f"name = {name}", *lines, f"expect = {expect}", ""]
    return "\n".join(out)


def scan(seed: int, rotation_text: str) -> Workload:
    """Repeated scans of one generated family.

    The family is the default family (which has a tautological and a
    rotation datum and premise-failing rows) plus seeded configs on the
    same bases (Heisenberg, filiform-4, torus, even sphere) under other
    Euler data and a rotation datum read from a file, each with an
    expect.
    """
    rng = _rng(seed, "scan")
    fil4 = filiform(4)
    k = rng.sample(_SMALL_SCALARS, 5)
    seeded = [
        ("heisenberg-k", ["model = builtin:heisenberg", "triple = x | x | y", f"chi = {k[0]}*h", "m = 1"], "non-vanishing"),
        ("filiform-4-x1x2x2", [f"model = {fil4.file}", "triple = x1 | x2 | x2", f"chi = {k[1]}*h", "m = 1"], "non-vanishing"),
        ("filiform-4-x2x1x1", [f"model = {fil4.file}", "triple = x2 | x1 | x1", f"chi = {k[2]}*h", "m = 1"], "premise-failed"),
        ("torus-k", ["model = builtin:torus", "triple = x | x | y", f"chi = x*y + {k[3]}*h", "m = 1"], "premise-failed"),
        ("even-sphere-k", ["model = builtin:even-sphere", "triple = u | u | u", f"chi = {k[4]}*h", "m = 1"], "premise-failed"),
        ("rotation-file", ["datum = rotation.datum", "triple = eN | eS | eN"], "inconclusive"),
    ]
    configs = DEFAULT_CONFIGS + seeded
    rng.shuffle(configs)
    rows = {name: expect for name, _, expect in configs}
    files = {
        fil4.file: fil4.text(),
        "rotation.datum": rotation_text,
        "bench.family": _family(configs),
        "warmup.family": _family([DEFAULT_CONFIGS[4], DEFAULT_CONFIGS[7]]),
    }
    request = Request(["scan", "bench.family"], {"kind": "scan", "rows": rows}, verdicts=len(configs))
    warmup = [
        Request(
            ["scan", "warmup.family"],
            {"kind": "scan", "rows": {name: e for name, _, e in (DEFAULT_CONFIGS[4], DEFAULT_CONFIGS[7])}},
            verdicts=2,
        )
    ]
    return Workload("scan", seed, files, {fil4.file: fil4}, warmup, lambda r: [request])


def make(name: str, seed: int, rotation_text: str) -> Workload:
    if name == "queries":
        return queries(seed)
    if name == "euler-chain":
        return euler_chain(seed)
    if name == "scan":
        return scan(seed, rotation_text)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
