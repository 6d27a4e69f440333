"""Correlation sums of arithmetic functions, and what they imply.

The package computes shifted correlation sums ``sum f(n) f(n+l)`` and
representation sums ``sum f(n) f(x-n)`` for classical arithmetic functions,
cross-validates them through an unconditional summation identity, extracts
measured density constants, scores a catalogue of asymptotic lower/upper
bounds against the measurements, and searches for minimum-overlap splittings
of ``{1..n}``.  Everything is deterministic: exact integer arithmetic where
the inputs are integers, compensated floating summation elsewhere.
"""

from .config import ExperimentConfig
from .constants import (
    ALL_CLAIMS,
    ClaimReport,
    ClaimSettings,
    DensityEstimate,
    c_min,
    d_of_x,
    density_estimate,
    diagonal_ratio,
    evaluate_claim,
    evaluate_claims,
    local_density,
)
from .correlation import (
    CorrelationResult,
    type1,
    type1_sweep,
    type2,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    ConfigError,
    CorrlabError,
    DegenerateSum,
    RangeError,
    UnknownClaim,
    UnsupportedKind,
    ZeroCorrelation,
)
from .identity import (
    IdentityCheckResult,
    SequencePair,
    bilinear_rhs,
    double_sum_lhs_oracle,
    general_area_identity,
    identity_check,
    pair_sum_closed_form,
)
from .minoverlap import (
    DifferenceHistogram,
    OverlapResult,
    Splitting,
    bounds_table,
    difference_histogram,
    exact_Mn,
    heuristic_Mn,
)
from .report import ReportBundle, ResultTable
from .tables import (
    BIG_OMEGA,
    CONSTANT_ONE,
    EULER_PHI,
    LIOUVILLE,
    MASTER_UPSILON,
    MU_SQUARED,
    VON_MANGOLDT,
    FunctionKind,
    FunctionTable,
    PrefixSums,
    build_table,
    mean_value_reference,
    prefix_sums,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CLAIMS",
    "BIG_OMEGA",
    "BudgetExceeded",
    "CONSTANT_ONE",
    "CapExceeded",
    "ClaimReport",
    "ClaimSettings",
    "ConfigError",
    "CorrelationResult",
    "CorrlabError",
    "DegenerateSum",
    "DensityEstimate",
    "DifferenceHistogram",
    "EULER_PHI",
    "ExperimentConfig",
    "FunctionKind",
    "FunctionTable",
    "IdentityCheckResult",
    "LIOUVILLE",
    "MASTER_UPSILON",
    "MU_SQUARED",
    "OverlapResult",
    "PrefixSums",
    "ReportBundle",
    "ResultTable",
    "RangeError",
    "SequencePair",
    "Splitting",
    "UnknownClaim",
    "UnsupportedKind",
    "VON_MANGOLDT",
    "ZeroCorrelation",
    "bilinear_rhs",
    "bounds_table",
    "build_table",
    "c_min",
    "d_of_x",
    "density_estimate",
    "diagonal_ratio",
    "difference_histogram",
    "double_sum_lhs_oracle",
    "evaluate_claim",
    "evaluate_claims",
    "exact_Mn",
    "general_area_identity",
    "heuristic_Mn",
    "identity_check",
    "local_density",
    "mean_value_reference",
    "pair_sum_closed_form",
    "prefix_sums",
    "type1",
    "type1_sweep",
    "type2",
    "__version__",
]
