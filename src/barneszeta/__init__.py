"""Lattice (Barnes) zeta functions: analytic continuation, finite parts at
the poles, derivative at zero, and the derived Gamma-function family, via
three mutually cross-checking representations (series, limit, integral).

`evaluate` reaches every quantity by every route of the `ROUTES` registry;
a route is named by its key there ("series", "integral", "limit", "direct",
"reduction"), the string `evaluate` and the Gamma family take as `method`
and every `EvalResult.method` carries.  The route functions themselves live
in `series_rep`, `limit_rep`, `integral_rep` and `oracles`, and each serves
the inhomogeneous function (params a BarnesParams) and the homogeneous one
(params the weights).
A route returns an honest value or raises one of the three subclasses of
BarnesZetaError: DomainError, PoleError or ConvergenceError (a budget or cap
reached, a series, limit or quadrature unsettled, or a value past the
largest double).
"""

from .foundations import (
    BarnesParams, BarnesZetaError, ConvergenceError, DomainError, EvalResult, PoleError,
)
from .integral_rep import residue
from .barnes_functions import (
    ROUTES, evaluate, gamma_dq, log_gamma_B, log_rho, multiple_gamma, psi_B,
)

__version__ = "0.1.0"

__all__ = [
    "evaluate", "ROUTES", "log_gamma_B", "log_rho", "multiple_gamma", "psi_B", "gamma_dq",
    "residue",
    "BarnesParams", "EvalResult",
    "BarnesZetaError", "ConvergenceError", "DomainError", "PoleError",
]
