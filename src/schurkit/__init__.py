"""Desk-scale toolkit for entrywise multiplier symbols on Schatten classes.

The package computes dyadic variation constants of multiplier symbols,
verifies the exact algebraic identities behind block-decomposition arguments
(matrix embedding into trigonometric polynomials, per-frequency diagonal
multipliers, block telescoping), discretizes continuous symbols by sheared
cell averages, and searches for windowed norm lower bounds.
"""

__version__ = "0.1.0"

from .lattice import Box, DyadicIndex, dyadic_block_points, fundamental_theorem_expand
from .schatten import (
    LabeledMatrix,
    QuadratureGrid,
    cs_gap,
    lp_sp_norm,
    schatten_norm,
    square_function_norm,
)
from .symbols import (
    ContinuousSymbol,
    DiscreteSymbol,
    SymbolError,
    WindowCapError,
    catalog,
    catalog_names,
    load_symbol,
)
from .marcinkiewicz import (
    ConditionReport,
    QuadratureError,
    check_1d,
    check_2d,
    check_continuous,
    check_dd,
    discretize_continuous,
)
from .transference import (
    LpReport,
    MatTrigPoly,
    apply_fourier_multiplier,
    cutoff_profile,
    freq_project,
    is_pi_image,
    lp_experiment,
    max_coeff_diff,
    pi_embed,
    smooth_cutoff,
    summation_by_parts_1d,
    summation_by_parts_2d,
)
from .estimator import (
    EstimateResult,
    apply_schur,
    cb_lower_bound,
    growth_experiment,
    norm_lower_bound,
)

__all__ = [
    "__version__",
    "Box", "DyadicIndex", "dyadic_block_points", "fundamental_theorem_expand",
    "LabeledMatrix", "QuadratureGrid", "cs_gap", "lp_sp_norm",
    "schatten_norm", "square_function_norm",
    "ContinuousSymbol", "DiscreteSymbol", "SymbolError", "WindowCapError",
    "catalog", "catalog_names", "load_symbol",
    "ConditionReport", "QuadratureError",
    "check_1d", "check_2d", "check_continuous", "check_dd",
    "discretize_continuous",
    "LpReport", "MatTrigPoly", "apply_fourier_multiplier",
    "cutoff_profile", "freq_project", "is_pi_image",
    "lp_experiment", "max_coeff_diff", "pi_embed", "smooth_cutoff",
    "summation_by_parts_1d", "summation_by_parts_2d",
    "EstimateResult", "apply_schur", "cb_lower_bound", "growth_experiment",
    "norm_lower_bound",
]
