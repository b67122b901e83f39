"""Lattice (Barnes) zeta functions: analytic continuation, finite parts at
the poles, derivative at zero, and the derived Gamma-function family, via
three mutually cross-checking representations (series, limit, integral).
"""

from .foundations import (
    BarnesParams,
    BarnesZetaError,
    ConvergenceError,
    DimensionError,
    DomainError,
    EvalConfig,
    EvalResult,
    EvaluationError,
    Method,
    PoleError,
    QuadratureError,
    ResourceError,
    TruncationError,
    harmonic,
    validate_params,
)
from .bernoulli import (
    BernoulliTable,
    bernoulli_numbers,
    bernoulli_poly,
    bernoullian_dS,
    classical_bernoulli,
)
from .combinatorics import (
    bracket_sum,
    cube_bracket_sum,
    cube_indices,
    f_symbol,
    g_symbol,
    shell_indices,
)
from .series_rep import (
    SeriesControls,
    barnes_zeta_series,
    deriv0_barnes_series,
    deriv0_bh_series,
    fp_barnes_series,
    fp_bh_series,
    zeta_bh_series,
)
from .limit_rep import (
    FastPathKind,
    LimitDiagnostics,
    d2_fast_path,
    deriv0_barnes_limit,
    deriv0_bh_limit,
    fp_barnes_limit,
    fp_bh_limit,
)
from .integral_rep import (
    IntegralControls,
    QuadratureProblem,
    barnes_zeta_integral,
    deriv0_barnes_integral,
    deriv0_bh_integral,
    fp_barnes_integral,
    fp_bh_integral,
    quad_semiinfinite,
    residue,
    residue_bh,
    zeta_bh_integral,
)
from .oracles import (
    EulerMaclaurinControls,
    direct_sum,
    direct_sum_bh,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    isotropic_reduction,
    log_gamma_ref,
    log_gamma_rep_checks,
    rational_d2_reduction,
)
from .barnes_functions import (
    MethodChoice,
    Route,
    evaluate,
    gamma_dq,
    log_gamma_B,
    log_rho,
    multiple_gamma,
    psi_B,
)

__version__ = "0.1.0"

__all__ = [
    "BarnesParams", "BarnesZetaError", "ConvergenceError", "DimensionError",
    "DomainError", "EvalConfig", "EvalResult", "EvaluationError", "Method",
    "PoleError", "QuadratureError", "ResourceError", "TruncationError",
    "harmonic", "validate_params",
    "BernoulliTable", "bernoulli_numbers", "bernoulli_poly", "bernoullian_dS",
    "classical_bernoulli",
    "bracket_sum", "cube_bracket_sum", "cube_indices", "f_symbol", "g_symbol",
    "shell_indices",
    "SeriesControls", "barnes_zeta_series", "deriv0_barnes_series",
    "deriv0_bh_series", "fp_barnes_series", "fp_bh_series", "zeta_bh_series",
    "FastPathKind", "LimitDiagnostics", "d2_fast_path", "deriv0_barnes_limit", "deriv0_bh_limit",
    "fp_barnes_limit", "fp_bh_limit",
    "IntegralControls", "QuadratureProblem", "barnes_zeta_integral",
    "deriv0_barnes_integral", "deriv0_bh_integral", "fp_barnes_integral",
    "fp_bh_integral", "quad_semiinfinite", "residue", "residue_bh",
    "zeta_bh_integral",
    "EulerMaclaurinControls", "direct_sum", "direct_sum_bh", "hurwitz_zeta",
    "hurwitz_zeta_ds", "isotropic_reduction", "log_gamma_ref",
    "log_gamma_rep_checks", "rational_d2_reduction",
    "MethodChoice", "Route", "evaluate", "gamma_dq", "log_gamma_B", "log_rho",
    "multiple_gamma", "psi_B",
]
