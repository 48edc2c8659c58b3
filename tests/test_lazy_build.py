"""Free presentations and h-extensions sized by their Poincare series and
built on first use.

The dims of a free algebra come from the series prod(1 + t^odd) /
prod(1 - t^even), and those of base (x) Q[h] from the base's series times
1/(1 - t^2); the basis and differential of a degree are built when that
degree is first read, and an algebra whose size passes the package limit
is refused before any basis exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masseyq import cdga
from masseyq.cdga import build_free_cdga, series_dims, tensor_polynomial_generator
from masseyq.cli import main
from masseyq.errors import BudgetError
from oracles import FreeCdgaOracle, random_free_cdga

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def filiform_text(n: int, cap: int) -> str:
    """m0(n): d x_k = x1 * x_{k-1} for k = 3..n."""
    lines = [f"cap = {cap}"] + [f"gen x{i} : 1" for i in range(1, n + 1)]
    lines += [f"d x{k} = x1*x{k - 1}" for k in range(3, n + 1)]
    return "\n".join(lines) + "\n"


@pytest.fixture
def bases(monkeypatch):
    """Every free basis made while the test runs, in order."""
    made = []
    init = cdga._FreeBasis.__init__

    def recording(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(cdga._FreeBasis, "__init__", recording)
    return made


def _built(basis):
    """(top degree with monomials, top degree with its differential)."""
    diffs = [n for n, table in enumerate(basis.diff) if table is not None]
    return len(basis.labels) - 1, max(diffs, default=-1)


def _run(argv, cwd):
    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--format", "structured"])
    finally:
        os.chdir(old)
    return code, out.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_series_equals_the_built_dims(rng, extra):
    gens, diffs, cap = random_free_cdga(rng)
    algebra = build_free_cdga(gens, diffs, cap)
    assert algebra.dims == series_dims(cap, [d for _, d in gens])
    assert [len(algebra.basis_labels(n)) for n in range(cap + 1)] == list(algebra.dims)
    # times 1/(1 - t^2): the h-extension, re-capped over the free base, and
    # over the base's own dims
    ext = tensor_polynomial_generator(algebra, cap=cap + extra)
    assert ext.dims == series_dims(cap + extra, [d for _, d in gens] + [2])
    assert ext.dims[: cap + 1] == series_dims(cap, (2,), start=algebra.dims)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 80))
def test_the_series_stops_once_the_size_passes_the_limit(rng, limit):
    gens, _diffs, cap = random_free_cdga(rng)
    oracle = FreeCdgaOracle(gens, {})
    dims = [len(oracle.monomials(n)) for n in range(cap + 1)]
    size = cap + 1 + sum(dims)
    with mock.patch.object(cdga, "SIZE_LIMIT", limit):
        if size > limit:
            with pytest.raises(BudgetError) as caught:
                series_dims(cap, [d for _, d in gens])
            assert limit < caught.value.required_size <= size
            assert caught.value.size_limit == limit
        else:
            assert series_dims(cap, [d for _, d in gens]) == tuple(dims)


def test_massey_on_m0_8_reads_degrees_up_to_3(tmp_path, bases):
    (tmp_path / "m0-8.alg").write_text(filiform_text(8, 9))
    argv = ["massey", "m0-8.alg", "x1", "x2", "x2"]
    code, out = _run(argv, tmp_path)
    assert code == 0
    assert [_built(b) for b in bases] == [(3, 2)]
    assert _run(argv + ["--cap", "3"], tmp_path) == (code, out)


def test_cohomology_to_degree_1_on_m0_12_builds_degrees_up_to_2(tmp_path, bases):
    (tmp_path / "m0-12.alg").write_text(filiform_text(12, 13))
    code, out = _run(["cohomology", "m0-12.alg", "--max-degree", "1"], tmp_path)
    assert code == 0
    # d out of degrees 0..2 (the d*d check reads degree 2), so the
    # monomials up to degree 3, and nothing of the 4,096 above
    assert [_built(b) for b in bases] == [(3, 2)]
    assert sum(len(labels) for labels in bases[0].labels) == 1 + 12 + 66 + 220


def test_cohomology_reads_every_degree_of_its_cap(tmp_path, bases):
    (tmp_path / "m0-6.alg").write_text(filiform_text(6, 7))
    assert _run(["cohomology", "m0-6.alg"], tmp_path)[0] == 0
    assert [_built(b) for b in bases] == [(7, 6)]
    assert not bases[0].tails  # the tails go once the top degree is built


# A large extension cap within the limit: the answer reads a handful of
# degrees, so it must cost no work in the cap (laying out every degree up
# to it takes 7.3 s for lemma32 and 2.8 s for euler).
LARGE_CAP = [
    (["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1", "--cap", "5000"], 0),
    (["euler", "builtin:heisenberg", "--chi", "h", "--m", "1500"], 3),
]


@pytest.mark.parametrize("argv, code", LARGE_CAP, ids=[a[0] for a, _ in LARGE_CAP])
def test_a_large_extension_cap_builds_only_the_degrees_read(argv, code, monkeypatch):
    made = []
    init = cdga.TensorInfo.__init__

    def recording(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(cdga.TensorInfo, "__init__", recording)
    start = time.perf_counter()
    assert _run(argv, GOLDEN)[0] == code
    assert time.perf_counter() - start < 1.0
    [info] = made
    assert len(info.dims) > 3000 and len(info.labels) < 20


RUNAWAY = [
    ["cohomology", "cap-3000000.alg", "--max-degree", "1"],
    ["cohomology", "cap-huge.alg"],
    ["cohomology", "exterior-20.alg"],
    ["euler", "builtin:heisenberg", "--chi", "h", "--m", "100000"],
    ["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1", "--cap", "100000"],
]


@pytest.mark.parametrize("argv", RUNAWAY, ids=[" ".join(a[:2]) + " " + a[-1] for a in RUNAWAY])
def test_runaway_inputs_stop_at_the_size_limit(argv, bases):
    start = time.perf_counter()
    code, out = _run(argv, GOLDEN)
    assert time.perf_counter() - start < 1.0
    assert code == 5 and '"status": "over-budget"' in out
    # No basis is made for the over-limit algebra: only the Heisenberg
    # base at its own cap, where the extension is what passes the limit.
    assert all(b.cap < 100 for b in bases)


def test_listing_cohomology_costs_what_it_prints(tmp_path):
    # The exterior algebra on 16 degree-1 generators has 65,536 classes.
    # Each printed class used to be a dense tuple walked whole, so the
    # listing took 126 s; held sparse it takes 1.2-1.8 s.
    lines = ["cap = 16"] + [f"gen e{i} : 1" for i in range(1, 17)]
    (tmp_path / "ext16.alg").write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out = _run(["cohomology", "ext16.alg"], tmp_path)
    assert time.perf_counter() - start < 8.0
    assert code == 0
    classes = json.loads(out)["payload"]["classes"]
    assert [len(classes[str(n)]) for n in range(16)] == [
        math.comb(16, n) for n in range(16)
    ]
    assert classes["1"][0] == "[e1]"
    assert classes["15"][-1] == "[" + "*".join(f"e{i}" for i in range(2, 17)) + "]"
