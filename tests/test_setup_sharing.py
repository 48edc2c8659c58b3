"""One setup per base object, cap and h name in a request; one ring per datum
side; one triple product per ring and input classes.

A scan resolves each spec once and shares equivariant setups between its
configs, so every row must equal the row its config gives when scanned
alone.  Bases are told apart by object, so two equal bases resolved from
different specs get a setup each.  A transfer datum is built with the
rings it is used with, and ring counts pin that no request builds them
twice, and product counts that none computes a triple product twice.
The Euler stage over a datum rebuilds the datum's fixed model by
the construction that made it; the by-construction test below is the
check that used to run on every pipeline call.
"""

from __future__ import annotations

import gc
import os
import random
import weakref

import pytest

import masseyq.cohomology as cohomology
import masseyq.transfer as transfer
from masseyq.cli import main
from masseyq.cohomology import CohomologyClass, CohomologyRing
from masseyq.errors import DegreeCapError
from masseyq.fileformat import load_datum, parse_family_document
from masseyq.models import BUILTIN_MODELS, builtin_datum, builtin_family, builtin_model
from masseyq.transfer import (
    EulerData,
    SetupTable,
    build_setup,
    required_cap,
    run_transfer_pipeline,
    scan_families,
    tautological_from_parts,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
ROTATION = os.path.join(DATA, "rotation.datum")

# Bundled configs in the family-file grammar; names are unique.
CONFIG_BLOCKS = [
    "name = heisenberg-h\nmodel = builtin:heisenberg\ntriple = x | x | y\nchi = h\nm = 1",
    "name = heisenberg-2h\nmodel = builtin:heisenberg\ntriple = x | x | y\nchi = 2*h\nm = 1",
    "name = heisenberg-file\nmodel = heisenberg.alg\ntriple = x | x | y\n"
    "bundle c1 = x*z weight = 2",
    "name = heisenberg-two-lines\nmodel = builtin:heisenberg\ntriple = x | x | y\n"
    "bundle weight = 1\nbundle weight = 1",
    "name = heisenberg-transfer\nmodel = builtin:heisenberg\ndatum = tautological\n"
    "triple = x | x | y\nchi = h\nm = 1",
    "name = heisenberg-transfer-10\nmodel = builtin:heisenberg\ndatum = tautological\n"
    "triple = x | x | y\nchi = h\nm = 1\nmin-cap = 10",
    "name = torus-undefined\nmodel = builtin:torus\ntriple = x | x | y\nchi = h\nm = 1",
    "name = torus-typo\nmodel = builtin:torus\ntriple = x | x | q\nchi = h\nm = 1",
    "name = even-sphere\nmodel = builtin:even-sphere\ntriple = u | u | u\nchi = h\nm = 1",
    "name = rotation-builtin\ndatum = builtin:rotation\ntriple = eN | eS | eN",
    "name = rotation-file\ndatum = rotation.datum\ntriple = eN | eS | eN",
    "name = rotation-broken\ndatum = builtin:rotation-broken-push\ntriple = eN | eS | eN",
]


def _family(blocks):
    return "[family]\nname = test\n\n" + "\n\n".join(f"[config]\n{b}" for b in blocks) + "\n"


def _scan_text(text, base_dir):
    return scan_families(parse_family_document(text, base_dir)).rows


def _rows_alone_from_text(blocks, base_dir):
    return [_scan_text(_family([b]), base_dir)[0] for b in blocks]


@pytest.mark.parametrize("name", ["default", "corrupted-demo"])
def test_builtin_family_rows_equal_rows_scanned_alone(name):
    shared = scan_families(builtin_family(name)).rows
    alone = [
        scan_families([builtin_family(name)[i]]).rows[0] for i in range(len(shared))
    ]
    assert shared == alone


def test_demo_family_file_rows_equal_rows_scanned_alone():
    with open(os.path.join(DATA, "demo.family"), encoding="utf-8") as fh:
        text = fh.read()
    blocks = [
        chunk.strip()
        for chunk in text.split("[config]")[1:]
    ]
    assert _scan_text(text, DATA) == _rows_alone_from_text(blocks, DATA)


@pytest.mark.parametrize("seed", range(4))
def test_shuffled_family_rows_equal_rows_scanned_alone(seed):
    blocks = list(CONFIG_BLOCKS)
    random.Random(seed).shuffle(blocks)
    shared = _scan_text(_family(blocks), DATA)
    assert [row.name for row in shared] == [b.split("\n")[0][len("name = "):] for b in blocks]
    assert shared == _rows_alone_from_text(blocks, DATA)
    statuses = {row.status for row in shared}
    assert {"ok", "premise-failed", "invalid-datum", "invalid-input"} <= statuses


def _presentation_key(base, cap):
    """A structural name for build_setup's input: cap, labels, d and products."""
    labels = tuple(base.basis_labels(n) for n in range(base.cap + 1))
    product = base.product_lookup(base.cap)
    products = tuple(
        product(n1, i1, n2, i2)
        for n1 in range(base.cap + 1)
        for n2 in range(base.cap + 1 - n1)
        for i1 in range(base.dim(n1))
        for i2 in range(base.dim(n2))
    )
    diffs = tuple(base.diff_table(n) for n in range(base.cap))
    return (base.cap, labels, diffs, products, cap)


def test_default_scan_builds_one_setup_per_distinct_base_cap_and_h(monkeypatch, capsys):
    calls = []

    def counting(base, cap=None):
        calls.append(_presentation_key(base, base.cap if cap is None else cap))
        return build_setup(base, cap)

    monkeypatch.setattr(transfer, "build_setup", counting)
    assert main(["scan", "builtin:default"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls))
    # Heisenberg at caps 9 and 15, the torus at 9, the even sphere at 12
    # and the two poles at 6; the tautological datum's setup is the
    # Heisenberg cap-9 one.
    assert sorted((key[4], key[0]) for key in calls) == [
        (6, 1), (9, 3), (9, 4), (12, 8), (15, 4)
    ]


def test_configs_with_equal_euler_data_share_its_class(monkeypatch, capsys):
    configs = builtin_family("default")
    by_name = {c.name: c.euler for c in configs}
    assert by_name["heisenberg-h"] is by_name["heisenberg-transfer"]
    assert by_name["torus-undefined"] is by_name["torus-vanishing"]
    assert by_name["heisenberg-h"] is not by_name["heisenberg-two-lines"]
    calls = []
    real = transfer.euler_class_from_polynomial

    def counting(ring, poly, m):
        calls.append((poly, m))
        return real(ring, poly, m)

    monkeypatch.setattr(transfer, "euler_class_from_polynomial", counting)
    assert main(["scan", "builtin:default"]) == 0
    capsys.readouterr()
    # chi = h once over each of Heisenberg, the torus and the even sphere,
    # and the rotation datum's chi over its fixed model and in the Euler
    # stage's setup
    assert len(calls) == 5


@pytest.mark.parametrize(
    "argv, rings",
    [
        # one extension ring and its block ring
        (["theorem11", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1"], 2),
        # two rings for each of the five setups, and the rotation datum's
        # ambient ring and fixed ring with its block ring
        (["scan", "builtin:default"], 13),
        # a datum file is built with the rings its push shapes are read in
        (["transfer", ROTATION, "eN", "eS", "eN"], 3),
        # those three, and the Euler stage's setup over the fixed base
        (["theorem11", "eN", "eS", "eN", "--datum", ROTATION], 5),
    ],
)
def test_tautological_data_build_no_rings_of_their_own(monkeypatch, capsys, argv, rings):
    built = []
    real = CohomologyRing.__init__

    def counting(self, algebra):
        built.append(algebra)
        real(self, algebra)

    monkeypatch.setattr(CohomologyRing, "__init__", counting)
    # the transfer along the rotation datum is inconclusive: exit 12
    assert main(argv) == (12 if ROTATION in argv else 0)
    capsys.readouterr()
    assert len(built) == rings


@pytest.fixture
def computed(monkeypatch):
    """The inputs of every triple product computed while the test runs."""
    made = []
    real = cohomology.triple_massey

    def counting(a, b, c):
        made.append((a, b, c))
        return real(a, b, c)

    for module in (cohomology, transfer):
        monkeypatch.setattr(module, "triple_massey", counting)
    return made


@pytest.mark.parametrize(
    "argv, products",
    [
        # 28 asked: the base and embedded products of <x,x,y> are computed
        # once over the shared Heisenberg ring, and the Gysin stage of the
        # tautological config reads the Euler stage's fully scaled product
        (["scan", "builtin:default"], 19),
        # the base, embedded and three scaled products; the Gysin stage's
        # fixed and ambient products are the fully scaled one
        (["theorem11", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1"], 5),
        # every product of the chain is distinct
        (["lemma32", "builtin:heisenberg", "x", "x", "y", "--chi", "h", "--m", "1",
          "--cap", "12"], 5),
    ],
)
def test_a_request_computes_each_distinct_triple_product_once(
    computed, capsys, argv, products
):
    assert main(argv) == 0
    capsys.readouterr()
    assert len(computed) == products
    keys = {
        tuple((id(x.ring), x.degree, frozenset(x.terms.items())) for x in triple)
        for triple in computed
    }
    assert len(keys) == products


def _heisenberg_extension():
    return build_setup(builtin_model("heisenberg"), 9)


def test_a_setup_table_shares_products_and_a_fresh_table_recomputes(computed):
    ring = _heisenberg_extension()
    x, y = ring.basis_classes(1)
    setups = SetupTable()
    first = setups.massey(x, x, y)
    # equal inputs given as other objects are the same product
    again = setups.massey(*(CohomologyClass(ring, 1, c.coords) for c in (x, x, y)))
    assert again is first and len(computed) == 1
    assert setups.massey(x, y, y) is not first and len(computed) == 2
    fresh = SetupTable().massey(x, x, y)
    assert fresh is not first and fresh == first and len(computed) == 3


def test_a_failed_product_is_not_stored(computed):
    ring = _heisenberg_extension()
    x, _ = ring.basis_classes(1)
    top = ring.basis_classes(ring.top)[0]
    setups = SetupTable()
    for _ in range(2):
        with pytest.raises(DegreeCapError):
            setups.massey(x, x, top)
    assert len(computed) == 2


def test_a_pipeline_through_a_setup_table_leaves_no_cycle():
    gc.collect()
    gc.disable()
    try:
        base = builtin_model("heisenberg")
        setups = SetupTable()
        report = run_transfer_pipeline(
            base, "x", "x", "y", euler=EulerData.of(chi="h", m=1),
            tautological=True, setups=setups,
        )
        assert report.verdict == "non-vanishing"
        ring = report.euler.ring
        refs = [weakref.ref(ring), weakref.ref(ring.block_ring), weakref.ref(base)]
        del base, setups, report, ring
        assert [ref() for ref in refs] == [None, None, None]
        assert gc.collect() == 0  # and nothing else was left in a cycle
    finally:
        gc.enable()


def test_the_euler_stage_reuses_the_tautological_datum_setup(monkeypatch):
    built = []
    real = transfer.tautological_datum

    def keeping(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(transfer, "tautological_datum", keeping)
    base = builtin_model("heisenberg")
    report = run_transfer_pipeline(
        base, "x", "x", "y", euler=EulerData.of(chi="h", m=1), tautological=True
    )
    assert report.verdict == "non-vanishing"
    [datum] = built
    assert report.euler.ring is datum.fixed_ring
    assert report.euler.chi is datum.chi


def test_setup_table_shares_by_base_object():
    setups = SetupTable()
    base = builtin_model("heisenberg")
    heis = setups.setup(base, 9)
    assert setups.setup(base, 9) is heis
    assert setups.setup(base, 10) is not heis
    assert setups.setup(builtin_model("heisenberg"), 9) is not heis
    # The builtin and the file two-point bases are equal but distinct
    # objects, so each gets a setup of its own.
    builtin = builtin_datum("rotation").fixed.tensor_info.base
    from_file = load_datum(ROTATION).fixed.tensor_info.base
    assert builtin.basis_labels(0) == from_file.basis_labels(0)
    assert setups.setup(builtin, 6) is not setups.setup(from_file, 6)


# ---------------------------------------------------------------------------
# the Euler stage's rebuild of a datum's fixed model agrees by construction
# ---------------------------------------------------------------------------


def _assert_euler_stage_rebuilds_the_fixed_model(datum, triple, min_cap=None):
    info = datum.fixed.tensor_info
    base = info.base
    cap = max(required_cap(base, *triple, datum.m), min_cap or 0, base.cap)
    rebuilt = build_setup(base, cap)
    upto = min(datum.fixed.cap, rebuilt.algebra.cap)
    for n in range(upto + 1):
        assert rebuilt.algebra.basis_labels(n) == datum.fixed.basis_labels(n), n
    assert 2 * datum.m <= upto
    chi = datum.euler.build(rebuilt)
    assert chi.element.coords == datum.chi.element.coords


@pytest.mark.parametrize("source", ["builtin", "file"])
def test_rotation_fixed_model_is_rebuilt_exactly(source):
    datum = (
        builtin_datum("rotation")
        if source == "builtin"
        else load_datum(os.path.join(DATA, "rotation.datum"))
    )
    _assert_euler_stage_rebuilds_the_fixed_model(datum, ("eN", "eS", "eN"))


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
@pytest.mark.parametrize(
    "chi,m,min_cap", [("h", 1, None), ("h", 1, 10), ("h*h", 2, None)]
)
def test_tautological_fixed_model_is_rebuilt_exactly(name, chi, m, min_cap):
    base = builtin_model(name)
    first = sorted(base.names())[0]
    triple = (first, first, first)
    datum = tautological_from_parts(base, triple, EulerData.of(chi=chi, m=m), min_cap)
    _assert_euler_stage_rebuilds_the_fixed_model(datum, triple, min_cap)


def test_a_datum_named_by_two_configs_is_validated_once(monkeypatch):
    blocks = [
        "name = rotation-a\ndatum = builtin:rotation\ntriple = eN | eS | eN",
        "name = rotation-b\ndatum = builtin:rotation\ntriple = eS | eN | eS",
    ]
    alone = _rows_alone_from_text(blocks, DATA)
    validated = []
    real = transfer.validate_transfer_datum

    def counting(datum):
        validated.append(datum)
        return real(datum)

    monkeypatch.setattr(transfer, "validate_transfer_datum", counting)
    assert _scan_text(_family(blocks), DATA) == alone
    assert len(validated) == 1
