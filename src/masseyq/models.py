"""Bundled example models, transfer data and scan families.

Each builtin is a text file under ``data/`` in this package, read through
the same parsers as a user's file, so every call returns a fresh object
that callers may re-cap or extend without sharing state.  The one
worked geometric example is ``rotation.datum``: the weight-1 circle
action on the two-sphere, with the equivariant cohomology of the sphere
presented by its two fixed-point restrictions.  Its [ambient] and
[fixed-base] sections are the models ``rotation-ambient`` and
``two-points``.
"""

from __future__ import annotations

import os
from typing import Optional

from .cdga import CochainAlgebra
from .cohomology import InducedMap
from .fileformat import (
    parse_algebra_document,
    parse_algebra_section_of,
    parse_datum_document,
    parse_family_document,
)
from .transfer import HamiltonianTransferDatum, ScanConfig

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# name -> (file, section); a section of None is a whole algebra file
BUILTIN_MODELS: dict[str, tuple[str, Optional[str]]] = {
    "heisenberg": ("heisenberg.alg", None),
    "torus": ("torus.alg", None),
    "even-sphere": ("even-sphere.alg", None),
    "sphere-cohomology": ("sphere-cohomology.alg", None),
    "truncated-polynomial": ("truncated-polynomial.alg", None),
    "point": ("point.alg", None),
    "two-points": ("rotation.datum", "fixed-base"),
    "rotation-ambient": ("rotation.datum", "ambient"),
}
BUILTIN_DATA: dict[str, str] = {
    "rotation": "rotation.datum",
    # the rotation datum with one pushforward entry changed
    "rotation-broken-push": "rotation.datum",
}
BUILTIN_FAMILIES: dict[str, str] = {
    "default": "default.family",
    "corrupted-demo": "corrupted-demo.family",
}


def _text(file: str) -> str:
    with open(os.path.join(DATA_DIR, file), encoding="utf-8") as fh:
        return fh.read()


def _key(name: str, registry: dict, kind: str, plural: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if key not in registry:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown {kind} {name!r}; known {plural}: {known}")
    return key


def builtin_model(name: str) -> CochainAlgebra:
    file, section = BUILTIN_MODELS[_key(name, BUILTIN_MODELS, "model", "models")]
    if section is None:
        return parse_algebra_document(_text(file)).algebra
    return parse_algebra_section_of(_text(file), section)


def _broken_push(good: HamiltonianTransferDatum) -> HamiltonianTransferDatum:
    """The rotation datum with one pushforward entry off by one.

    The degree-2 pushforward no longer satisfies the projection formula,
    so validation must reject it; negative control for the datum checks.
    """
    push = [good.push_map.columns(n) for n in range(good.push_map.top + 1)]
    # The H2 entry of the image of eN h, 0 in the good datum, becomes 1.
    push[2] = [{0: 1, 1: 1}, push[2][1]]
    return HamiltonianTransferDatum(
        name="rotation-broken-push",
        restrict_map=good.restrict_map,
        push_map=InducedMap.stored(good.fixed_ring, good.ambient_ring, 2, push),
        euler=good.euler,
    )


def builtin_datum(name: str) -> HamiltonianTransferDatum:
    key = _key(name, BUILTIN_DATA, "datum", "data")
    datum = parse_datum_document(_text(BUILTIN_DATA[key]))
    return _broken_push(datum) if key == "rotation-broken-push" else datum


def builtin_family(name: str) -> list[ScanConfig]:
    """A bundled family."""
    key = _key(name, BUILTIN_FAMILIES, "family", "families")
    return parse_family_document(_text(BUILTIN_FAMILIES[key]))
