"""Exact tools for finite matrix groups generated by gamma-like matrices."""

from gammagroups.exact import (
    ExactMatrix,
    GaussianRational,
    ParseError,
    format_matrix,
    format_scalar,
    parse_matrix,
    parse_scalar,
)
from gammagroups.groups import MatrixGroup, Subgroup, generate_closure
from gammagroups.catalog import (
    catalog_entry,
    catalog_group,
    catalog_names,
    compute_profile,
)
from gammagroups.claims import run_claims

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "GaussianRational",
    "MatrixGroup",
    "ParseError",
    "Subgroup",
    "catalog_entry",
    "catalog_group",
    "catalog_names",
    "compute_profile",
    "format_matrix",
    "format_scalar",
    "generate_closure",
    "parse_matrix",
    "parse_scalar",
    "run_claims",
    "__version__",
]
