from __future__ import annotations

import os

import pytest

from masseyq.cdga import recap, validate_algebra
from masseyq.cohomology import CohomologyRing
from masseyq.fileformat import parse_algebra_document
from masseyq.models import (
    BUILTIN_DATA,
    BUILTIN_FAMILIES,
    BUILTIN_MODELS,
    DATA_DIR,
    builtin_datum,
    builtin_family,
    builtin_model,
)

# The sphere's cohomology table at cap 4, two degrees above its class.
SPHERE_COHOMOLOGY_CAP_4 = """
cap = 4
basis 0 : one
basis 2 : s
mul one * one = one
mul one * s = s
mul s * one = s
"""


def test_every_bundled_model_validates():
    for name in sorted(BUILTIN_MODELS):
        assert validate_algebra(builtin_model(name)) == [], name


def test_every_registry_name_loads_and_every_data_file_is_registered():
    for name in BUILTIN_MODELS:
        assert builtin_model(name).cap >= 1, name
    for name in BUILTIN_DATA:
        assert builtin_datum(name).name == name
    for name in BUILTIN_FAMILIES:
        assert builtin_family(name), name
    named = {file for file, _ in BUILTIN_MODELS.values()}
    named |= set(BUILTIN_DATA.values()) | set(BUILTIN_FAMILIES.values())
    assert named == set(os.listdir(DATA_DIR))


def test_the_bundled_rotation_sections_are_the_two_models():
    datum = builtin_datum("rotation")
    pts, ambient = builtin_model("two-points"), builtin_model("rotation-ambient")
    assert datum.fixed.tensor_info.base.dims == pts.dims
    assert datum.ambient.dims == ambient.dims
    for n in range(ambient.cap + 1):
        assert datum.ambient.basis_labels(n) == ambient.basis_labels(n)


def test_heisenberg_betti_numbers():
    ring = CohomologyRing(builtin_model("heisenberg"))
    assert ring.betti() == (1, 2, 2, 1)


def test_torus_betti_numbers():
    ring = CohomologyRing(builtin_model("torus"))
    assert ring.betti() == (1, 2, 1)


def test_even_sphere_collapses_to_two_classes():
    ring = CohomologyRing(builtin_model("even-sphere"))
    assert ring.betti() == (1, 0, 1, 0, 0, 0, 0, 0)


def test_sphere_cohomology_table_matches_the_free_model():
    free = CohomologyRing(recap(builtin_model("even-sphere"), 4))
    table = CohomologyRing(parse_algebra_document(SPHERE_COHOMOLOGY_CAP_4).algebra)
    assert free.betti() == table.betti() == (1, 0, 1, 0)
    assert table.algebra.dims == (1, 0, 1, 0, 0)


def test_truncated_polynomial_power_vanishes():
    a = builtin_model("truncated-polynomial")
    u = a.named_element("u")
    assert not (u * u * u).is_zero()
    ring = CohomologyRing(a)
    assert ring.betti() == (1, 0, 1, 0, 1, 0)


def test_point_is_one_dimensional():
    ring = CohomologyRing(builtin_model("point"))
    assert ring.betti() == (1,)


def test_two_points_has_orthogonal_idempotents():
    a = builtin_model("two-points")
    eN, eS = a.named_element("eN"), a.named_element("eS")
    assert (eN * eS).is_zero()
    assert eN * eN == eN
    assert a.unit() == eN + eS


def test_rotation_ambient_products_are_componentwise():
    a = builtin_model("rotation-ambient")
    h1, a1 = a.named_element("H1"), a.named_element("A1")
    assert h1 * h1 == a.named_element("H2")
    assert h1 * a1 == a.named_element("A2")
    assert a1 * a1 == a.named_element("A2")
    ring = CohomologyRing(a)
    assert ring.betti() == (1, 0, 2, 0, 2, 0, 2, 0, 2)


def test_builtin_lookup_normalizes_names():
    assert builtin_model("two_points").dims == (2, 0)
    assert builtin_model("Two-Points").dims == (2, 0)
    with pytest.raises(KeyError):
        builtin_model("moebius")
    with pytest.raises(KeyError):
        builtin_datum("nonexistent")
    with pytest.raises(KeyError):
        builtin_family("nonexistent")


def test_builtin_datum_and_family_construct():
    assert builtin_datum("rotation").name == "rotation"
    assert len(builtin_family("default")) == 8
    assert len(builtin_family("corrupted-demo")) == 1
