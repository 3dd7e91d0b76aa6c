"""Exact arithmetic for double monomial quasisymmetric functions.

The package computes inside Z[x; y] with two families of indexed
variables: truncated double monomial functions, their products, the
edge-labeled tableau combinatorics behind the structure coefficients,
and a brute-force polynomial oracle certifying the whole thing.
"""

from .polynomial import Monomial, XYPolynomial, constant, one, x_var, y_var, zero
from .compositions import (
    Composition,
    enumerate_compositions,
    enumerate_injections,
    overlapping_shuffles,
)
from .qsym import (
    Expansion,
    NotInMaximalIdeal,
    NotInSpan,
    TruncationContext,
    TruncationTooSmall,
    cell_class,
    double_monomial,
    expand_in_M,
    is_quasisymmetric,
    monomial_qsym,
    qsym_generator,
)
from .tableaux import (
    DEFAULT_CONVENTION,
    SkewEdgeTableau,
    SkylineTableau,
    WeightConvention,
    cp_product,
    enumerate_skylines,
    enumerate_tableaux,
    row_weight_sum,
)
from .lrcalc import (
    expansion_records,
    product_expand,
    skyline_census,
    structure_coefficient,
    support_candidates,
    verify_expansion,
)

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "DEFAULT_CONVENTION",
    "Expansion",
    "Monomial",
    "NotInMaximalIdeal",
    "NotInSpan",
    "SkewEdgeTableau",
    "SkylineTableau",
    "TruncationContext",
    "TruncationTooSmall",
    "WeightConvention",
    "XYPolynomial",
    "cell_class",
    "constant",
    "cp_product",
    "double_monomial",
    "enumerate_compositions",
    "enumerate_injections",
    "enumerate_skylines",
    "enumerate_tableaux",
    "expand_in_M",
    "expansion_records",
    "is_quasisymmetric",
    "monomial_qsym",
    "one",
    "overlapping_shuffles",
    "product_expand",
    "qsym_generator",
    "row_weight_sum",
    "skyline_census",
    "structure_coefficient",
    "support_candidates",
    "verify_expansion",
    "x_var",
    "y_var",
    "zero",
]
