"""Exact-rational triple Massey products, Euler scaling and transfer.

Graded-commutative cochain algebras over Q with a degree cap, their
cohomology rings, triple Massey products as explicit cosets, the
degree-2 polynomial extension modelling a trivial circle action, Euler
classes of weighted line bundles, the scaled non-vanishing argument,
pushforward transfer data, and a CLI that drives all of it.
"""

from __future__ import annotations

from .errors import (
    AlgebraError,
    AlgebraValidationError,
    BudgetError,
    ConsistencyError,
    DegreeCapError,
    ParseError,
    PremiseError,
    UndefinedProductError,
)
from .linalg import AffineCoset, Subspace
from .cdga import (
    AlgebraMorphism,
    CochainAlgebra,
    Element,
    build_free_cdga,
    build_table_algebra,
    parse_polynomial,
    recap,
    tensor_polynomial_generator,
    validate_algebra,
    validate_morphism,
)
from .cohomology import (
    CohomologyClass,
    CohomologyRing,
    InducedMap,
    MasseyResult,
    check_scaling_law,
    cup,
    ideal_degree_piece,
    triple_massey,
)
from .transfer import (
    EulerClass,
    EulerData,
    HamiltonianTransferDatum,
    ScanConfig,
    SetupTable,
    TautologicalDatum,
    WeightedLineBundle,
    build_setup,
    check_euler_scaled_massey,
    check_gysin_transfer,
    class_h_components,
    euler_class,
    euler_class_from_polynomial,
    formal_degree,
    h_comparison_check,
    required_cap,
    run_transfer_pipeline,
    scan_families,
    tautological_datum,
    validate_transfer_datum,
    verify_not_zero_divisor,
)
from .models import builtin_datum, builtin_family, builtin_model
from .fileformat import (
    load_algebra_document,
    load_datum,
    load_family,
    parse_algebra_document,
    parse_datum_document,
    parse_family_document,
    resolve_datum_spec,
    resolve_model_spec,
)
from .report import Report
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "AffineCoset",
    "AlgebraError",
    "AlgebraMorphism",
    "AlgebraValidationError",
    "BudgetError",
    "CochainAlgebra",
    "CohomologyClass",
    "CohomologyRing",
    "ConsistencyError",
    "DegreeCapError",
    "Element",
    "EulerClass",
    "EulerData",
    "HamiltonianTransferDatum",
    "InducedMap",
    "MasseyResult",
    "ParseError",
    "PremiseError",
    "Report",
    "ScanConfig",
    "SetupTable",
    "Subspace",
    "TautologicalDatum",
    "UndefinedProductError",
    "WeightedLineBundle",
    "build_free_cdga",
    "build_setup",
    "build_table_algebra",
    "builtin_datum",
    "builtin_family",
    "builtin_model",
    "check_euler_scaled_massey",
    "check_gysin_transfer",
    "check_scaling_law",
    "class_h_components",
    "cup",
    "euler_class",
    "euler_class_from_polynomial",
    "formal_degree",
    "h_comparison_check",
    "ideal_degree_piece",
    "load_algebra_document",
    "load_datum",
    "load_family",
    "main",
    "parse_algebra_document",
    "parse_datum_document",
    "parse_family_document",
    "parse_polynomial",
    "recap",
    "required_cap",
    "resolve_datum_spec",
    "resolve_model_spec",
    "run_transfer_pipeline",
    "scan_families",
    "tautological_datum",
    "tensor_polynomial_generator",
    "triple_massey",
    "validate_algebra",
    "validate_morphism",
    "validate_transfer_datum",
    "verify_not_zero_divisor",
]
