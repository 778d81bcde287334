"""Finite-shot help-harm boundary laboratory for fixed Richardson ZNE.

Builds fixed Richardson extrapolation rules, evaluates exact and Monte
Carlo MSE differences against the unmitigated estimator for exactly
solvable noise-observable models, locates the lower help-harm crossing
eps*(B), classifies the (p, q) regime, and fits boundary exponents and
constants against the theory's predictions.
"""

__version__ = "0.1.0"

from .boundary import (
    BudgetBracket,
    CrossingEstimate,
    RegimeReport,
    auto_window,
    budget_bracket,
    classify_regime,
    find_crossing_arrays,
    local_optimality_check,
    theoretical_boundary,
)
from .errors import (
    AllocationError,
    ConfigError,
    DomainError,
    FitError,
    ModelError,
    RegimeError,
    RuleError,
    ZneBoundaryError,
)
from .fits import (
    BiasFit,
    BoundaryFit,
    ConstantCheck,
    VarianceExponentFit,
    constant_check,
    fit_bias,
    fit_boundary,
    fit_loglog,
    fit_variance_exponent,
    predict_slope,
)
from .models import (
    DeterministicLimitBinary,
    LinearBiasBinary,
    MonomialBalanceModel,
    NoiseObservableModel,
    PowerLeakageBinary,
    ProductContractionString,
    model_from_spec,
)
from .mse import (
    CountTable,
    DeltaPoint,
    exact_delta,
    exact_delta_curve,
    mc_delta,
    sample_count_table,
)
from .resample import BootstrapResult, bootstrap_pipeline
from .rules import (
    PenaltyConstants,
    RichardsonRule,
    build_rule,
    optimal_allocation,
    variance_penalty,
)

__all__ = [
    "__version__",
    # rules
    "RichardsonRule", "PenaltyConstants", "build_rule", "variance_penalty",
    "optimal_allocation",
    # models
    "NoiseObservableModel", "LinearBiasBinary", "DeterministicLimitBinary",
    "ProductContractionString", "PowerLeakageBinary", "MonomialBalanceModel",
    "model_from_spec",
    # mse
    "DeltaPoint", "CountTable", "exact_delta", "exact_delta_curve", "mc_delta",
    "sample_count_table",
    # boundary
    "CrossingEstimate", "RegimeReport", "BudgetBracket", "find_crossing_arrays",
    "classify_regime", "theoretical_boundary", "budget_bracket",
    "local_optimality_check", "auto_window",
    # fits
    "BoundaryFit", "VarianceExponentFit", "BiasFit", "ConstantCheck",
    "fit_loglog", "fit_boundary", "fit_variance_exponent", "fit_bias",
    "predict_slope", "constant_check",
    # resample
    "BootstrapResult", "bootstrap_pipeline",
    # errors
    "ZneBoundaryError", "RuleError", "DomainError", "ModelError",
    "AllocationError", "RegimeError", "FitError", "ConfigError",
]
