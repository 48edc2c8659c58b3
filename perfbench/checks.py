"""The benchmark's correctness gate.

Every answer is checked after the timed phase, against expectations that
do not come from masseyq's own arithmetic:

- the exit code a request must give;
- Betti numbers against ``tests/oracles.betti_oracle`` (fraction-free
  rank arithmetic), plus Poincare duality and Euler characteristic 0,
  which hold for every nilpotent model;
- triple products of degree-1 classes against ``massey_oracle`` below,
  written from the definition on the exterior algebra;
- known verdicts (Heisenberg <x,x,y> non-vanishing, torus undefined or
  vanishing, rotation inconclusive) and every scan expect;
- on the default seed, the sha256 of each structured output against the
  digest recorded from the seed code in digests.json.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from itertools import combinations

from .workloads import Model, Request

DEFAULT_SEED = 1
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

EXIT_OK, EXIT_VANISHES, EXIT_UNDEFINED = 0, 10, 11


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload: str, seed: int) -> dict[str, str]:
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


# ---------------------------------------------------------------------------
# triple products of degree-1 classes, from the definition
# ---------------------------------------------------------------------------


def massey_oracle(model: Model, triple, ff_rref) -> int:
    """Exit code of ``massey`` on generators a, b, c of a nilpotent model.

    Works on the exterior algebra directly: with bar(u) = -u in degree 1,
    the product is defined when a^b and b^c are coboundaries; then
    dx = -a^b, dy = -b^c and the representative is -a^y - x^c, and the
    product vanishes when that lies in B^2 + a^Z^1 + Z^1^c.  Ranks come
    from ``ff_rref``, not from masseyq.
    """
    g = model.gens
    pairs = list(combinations(range(g), 2))
    slot = {p: n for n, p in enumerate(pairs)}

    def wedge(u, v):
        return [u[i] * v[j] - u[j] * v[i] for i, j in pairs]

    def unit(k):
        return [Fraction(int(i == k)) for i in range(g)]

    d_cols = []
    for k in range(g):
        col = [Fraction(0)] * len(pairs)
        for coeff, i, j in model.diffs.get(k, ()):
            col[slot[(i, j)]] += Fraction(coeff)
        d_cols.append(col)
    d_rows = [[d_cols[k][n] for k in range(g)] for n in range(len(pairs))]

    def rank(vectors):
        return len(ff_rref(vectors, len(pairs))[1]) if vectors else 0

    def solve(target):
        rows, pivots = ff_rref([r + [t] for r, t in zip(d_rows, target)], g + 1)
        if g in pivots:
            return None
        x = [Fraction(0)] * g
        for row, p in zip(rows, pivots):
            x[p] = row[g]
        return x

    def in_span(vec, span):
        return rank(span + [vec]) == rank(span)

    a, b, c = (unit(i) for i in triple)
    x = solve([-e for e in wedge(a, b)])
    y = solve([-e for e in wedge(b, c)])
    if x is None or y is None:
        return EXIT_UNDEFINED
    rep = [-s - t for s, t in zip(wedge(a, y), wedge(x, c))]

    rows, pivots = ff_rref(d_rows, g)
    cocycles = []
    for free in (k for k in range(g) if k not in pivots):
        z = unit(free)
        for row, p in zip(rows, pivots):
            z[p] = -row[free]
        cocycles.append(z)
    span = d_cols + [wedge(a, z) for z in cocycles] + [wedge(z, c) for z in cocycles]
    return EXIT_VANISHES if in_span(rep, span) else EXIT_OK


# ---------------------------------------------------------------------------
# per-request checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks answers of one workload; oracle results are memoised."""

    def __init__(self, workload, oracles, load_algebra, digests: dict[str, str]):
        self.workload = workload
        self.oracles = oracles
        self.load_algebra = load_algebra
        self.digests = digests
        self.digests_checked = 0
        self._betti: dict[str, list[int]] = {}
        self._massey: dict[tuple, int] = {}

    def expected_exit(self, req: Request) -> int:
        exp = req.expect
        if "exit" in exp:
            return exp["exit"]
        if exp["kind"] == "massey":
            key = (exp["model"], tuple(exp["triple"]))
            if key not in self._massey:
                self._massey[key] = massey_oracle(
                    self.workload.models[exp["model"]], exp["triple"], self.oracles.ff_rref
                )
            return self._massey[key]
        return EXIT_OK

    def check(self, req: Request, rc, out: str, error: str | None) -> list[str]:
        """Problems with one answer; empty when it is right."""
        if error is not None:
            return [f"raised {error}"]
        want = self.expected_exit(req)
        if rc != want:
            return [f"exit code {rc}, expected {want}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return ["structured output is not JSON"]
        if doc.get("exit_code") != rc or doc.get("command") != req.argv[0]:
            return ["report header disagrees with the exit code or command"]
        problems = getattr(self, "_check_" + req.expect["kind"].replace("-", "_"))(req, doc["payload"], doc)
        if req.key in self.digests:
            self.digests_checked += 1
            if digest(out) != self.digests[req.key]:
                problems.append("output differs from the digest recorded from the seed code")
        return problems

    # -- one method per expectation kind -------------------------------------

    def _check_cohomology(self, req, p, doc):
        model = self.workload.models[req.expect["model"]]
        if req.expect["model"] not in self._betti:
            algebra = self.load_algebra(req.expect["model"])
            self._betti[req.expect["model"]] = list(self.oracles.betti_oracle(algebra))
        betti = p.get("betti")
        problems = []
        if betti != self._betti[req.expect["model"]]:
            problems.append(f"betti {betti} != oracle {self._betti[req.expect['model']]}")
        elif len(betti) != model.gens + 1:
            problems.append(f"betti has {len(betti)} degrees, want {model.gens + 1}")
        elif betti != betti[::-1]:
            problems.append(f"betti {betti} break Poincare duality")
        elif sum((-1) ** k * b for k, b in enumerate(betti)) != 0:
            problems.append(f"betti {betti} give a nonzero Euler characteristic")
        return problems

    def _check_massey(self, req, p, doc):
        rc = doc["exit_code"]
        verdict = {EXIT_OK: "non-vanishing", EXIT_VANISHES: "vanishes"}.get(rc)
        if rc == EXIT_UNDEFINED:
            return [] if p.get("defined") is False else ["exit 11 with a defined product"]
        return [] if p.get("verdict") == verdict else [f"verdict {p.get('verdict')!r} with exit {rc}"]

    def _check_euler(self, req, p, doc):
        exp = req.expect
        top = Fraction(exp["top"])
        want_top = f"[{top}]"
        problems = []
        if p.get("m") != exp["m"] or p.get("degree") != 2 * exp["m"]:
            problems.append(f"m {p.get('m')} / degree {p.get('degree')}, want m {exp['m']}")
        if p.get("h-components", {}).get(str(exp["m"])) != want_top:
            problems.append(f"h^{exp['m']} component {p.get('h-components')}, want {want_top}")
        if "weights" in exp and p.get("weights") != exp["weights"]:
            problems.append(f"weights {p.get('weights')}, want {exp['weights']}")
        return problems

    def _check_transfer(self, req, p, doc):
        if p.get("verdict") != req.expect["verdict"] or p.get("findings") != []:
            return [f"transfer verdict {p.get('verdict')!r}, findings {p.get('findings')}"]
        return []

    def _check_lemma32(self, req, p, doc):
        exp = req.expect
        problems = []
        facts = {
            "verdict": exp["verdict"],
            "m": exp["m"],
            "machinery-fired": True,
            "witness-in-scaled-product": True,
            "witness-in-ideal": False,
            "embedded-nonvanishing-direct": True,
            "embedded-image-contained": True,
            "zero-divisor-ok": True,
        }
        if "cap" in exp:
            facts["extension-cap"] = exp["cap"]
        if "weights" in exp:
            facts["weights"] = exp["weights"]
        for key, value in facts.items():
            if p.get(key) != value:
                problems.append(f"{key} = {p.get(key)!r}, want {value!r}")
        if p.get("base-product", {}).get("verdict") != "non-vanishing":
            problems.append("base product is not non-vanishing")
        if [s.get("holds") for s in p.get("scaling-chain", [])] != [True] * 3:
            problems.append(f"scaling chain {p.get('scaling-chain')}")
        return problems

    def _check_theorem11(self, req, p, doc):
        problems = []
        if p.get("verdict") != req.expect["verdict"] or p.get("pipeline-status") != "ok":
            problems.append(f"theorem11 {p.get('pipeline-status')!r} / {p.get('verdict')!r}")
        for stage in ("euler", "gysin"):
            if p.get(stage, {}).get("verdict") != "non-vanishing":
                problems.append(f"{stage} stage is not non-vanishing")
        return problems

    def _check_premise(self, req, p, doc):
        if doc.get("status") != "premise-failed" or req.expect["reason"] not in p.get("error", ""):
            return [f"premise failure expected, got {doc.get('status')!r}: {p.get('error')!r}"]
        return []

    def _check_theorem11_premise(self, req, p, doc):
        return [] if p.get("pipeline-status") == "premise-failed" else ["premise failure expected"]

    def _check_scan(self, req, p, doc):
        rows = req.expect["rows"]
        problems = []
        if p.get("findings"):
            problems.append(f"scan findings: {p['findings']}")
        if p.get("total") != len(rows) or p.get("completed") != len(rows):
            problems.append(f"scan ran {p.get('completed')} of {p.get('total')}, want {len(rows)}")
        got = {row["name"]: row for row in p.get("rows", [])}
        for name, expect in rows.items():
            row = got.get(name)
            if row is None or expect not in (row["status"], row["verdict"]):
                problems.append(f"row {name}: {row}, expected {expect!r}")
        known = {
            "torus-undefined": ("premise-failed", "not defined"),
            "torus-vanishing": ("premise-failed", "vanishes"),
        }
        for name, (status, phrase) in known.items():
            row = got.get(name)
            if row is not None and (row["status"] != status or phrase not in row["note"]):
                problems.append(f"row {name}: {row}, expected {status} ({phrase})")
        for name, row in got.items():
            if name.startswith("rotation") and row["verdict"] != "inconclusive":
                problems.append(f"row {name}: rotation must stay inconclusive")
        return problems
