"""The route registry and the derived Gamma-family functions.

ROUTES maps each quantity (the zeta function, its finite parts at the
poles, its derivative at zero) and each route name to its route function,
which reads the form from its params: a BarnesParams for the inhomogeneous
function, the weights for the homogeneous one.  `evaluate` is the one
dispatch path through it, for the Gamma family below and for the
command-line interface.

The Gamma family -- log of the lattice Gamma function, multiple Gamma, the
generalized digamma family, the gamma modular forms -- are thin
compositions over it:

    log rho(w)        = -zeta_bh'(0|w)
    log Gamma_B(a|w)  = zeta_B'(0,a|w) + log rho(w)
    Psi^(q)(a|w)      = (-1)^q (q-1)! * (FP at q + H_{q-1} * residue)
    gamma_dq(w)       = (-1)^(q-1) (q-1)! * (FP_h at q + H_{q-1} * residue_h)

Normalization: Gamma_B carries the rho(w) factor (the classical Barnes
convention); the alternative convention divides it out.
"""

from __future__ import annotations

from math import factorial

from .foundations import (
    BarnesParams,
    ConvergenceError,
    DEFAULT_CONFIG,
    DomainError,
    EvalConfig,
    EvalResult,
    harmonic_float,
    lattice,
)
from .integral_rep import deriv0_integral, fp_integral, residue, zeta_integral
from .limit_rep import deriv0_limit, fp_limit
from .oracles import direct_sum, reduction
from .series_rep import deriv0_series, fp_series, zeta_series


_ULP8 = 8 * 2.0 ** -52     # rounding slack of the best-route agreement test
_EST_CAP = 1e-3            # evaluate returns no estimate past _EST_CAP * (1 + |value|)


# Every route of every quantity: ROUTES[quantity][route].  A route takes
# (alpha, params) for "zeta", (q, params) for "fp" and (params,) for
# "deriv0", where params is a BarnesParams, or the weights for the
# homogeneous function (a = 0, origin excluded), and then only keywords:
# `config=`, and any knob of its own (the series shift k, the integral's
# subtraction order M and, for the homogeneous function, its regulator c),
# which `evaluate` never passes.  Every route serves both forms.
ROUTES = {
    "zeta": {"series": zeta_series, "integral": zeta_integral, "direct": direct_sum,
             "reduction": reduction},
    "fp": {"series": fp_series, "integral": fp_integral, "limit": fp_limit},
    "deriv0": {"series": deriv0_series, "integral": deriv0_integral, "limit": deriv0_limit},
}


def evaluate(quantity: str, params, at=None, method: str = "best",
             config: EvalConfig | None = None) -> EvalResult:
    """Evaluate a quantity of the ROUTES registry by one of its routes.

    quantity is "zeta" (at = alpha), "fp" (at = q) or "deriv0" (no `at`);
    params is a BarnesParams, or the weights for the homogeneous function;
    method is a route's key in ROUTES[quantity], which the result carries
    as its `method`.  The method "best" (the default) runs the series and
    the integral route and returns the one whose own error estimate is
    smaller, with that estimate and that route's key;
    diagnostics add `cross_check_delta` = |series - integral| and
    `best_route`.  If the two values differ by more than the sum of their
    estimates plus 8 ulp of (1 + |value|), at least one estimate is
    dishonest and ConvergenceError is raised with both values.  A result
    whose estimate exceeds _EST_CAP * (1 + |value|) raises ConvergenceError;
    "best" skips a route past that cap and returns the other one, not
    cross-checked (`cross_check_delta` None, `skipped_route` the skipped
    key).  A combination that is not in the registry raises DomainError.
    """
    cfg = config or DEFAULT_CONFIG
    if quantity not in ROUTES:
        raise DomainError(f"unknown quantity {quantity!r}; expected one of {sorted(ROUTES)}")
    if (at is None) != (quantity == "deriv0"):
        raise DomainError(f"{quantity} needs {'no' if at is not None else 'an'} evaluation point")
    routes = ROUTES[quantity]
    args = (params,) if at is None else (at, params)
    if method == "best":
        runs = {name: routes[name](*args, config=cfg) for name in ("series", "integral")}
        capped = [r for r, res in runs.items() if _past_cap(res)]
        name = min(runs, key=lambda r: (r in capped, runs[r].abs_error_estimate))
        best = runs[name]
        delta = abs(runs["series"].value - runs["integral"].value)
        diag = {**best.diagnostics, "cross_check_delta": delta, "best_route": name}
        claimed = sum(r.abs_error_estimate for r in runs.values())
        if len(capped) == 1:
            diag.update(cross_check_delta=None, skipped_route=capped[0])
        elif delta > claimed + _ULP8 * (1.0 + abs(best.value)):
            for r, res in runs.items():
                diag[r] = {"value": [res.value.real, res.value.imag],
                           "abs_error_estimate": res.abs_error_estimate}
            raise ConvergenceError(f"{quantity}: series and integral routes differ by "
                                   f"{delta:.3e}, beyond their estimates ({claimed:.3e})", diag)
        result = EvalResult(best.value, best.abs_error_estimate, best.method, diag)
    elif method not in routes:
        raise DomainError(f"{quantity} has no route {method!r}; expected one of "
                          f"{[*routes, 'best']}")
    else:
        result = routes[method](*args, config=cfg)
    if _past_cap(result):
        raise ConvergenceError(f"{quantity} by {result.method}: error estimate "
                               f"{result.abs_error_estimate:.3e} is past the cap "
                               f"{_EST_CAP:g} * (1 + |value|)", result.diagnostics)
    return result


def _past_cap(res: EvalResult) -> bool:
    return not res.abs_error_estimate <= _EST_CAP * (1.0 + abs(res.value))


def _of_form(params, homogeneous: bool, name: str):
    """params validated, or a DomainError when they name the other form."""
    _, w, homog = lattice(params)
    if homog != homogeneous:
        raise DomainError(f"{name} takes {'weights' if homogeneous else 'BarnesParams'}, "
                          f"got {type(params).__name__}")
    return w if homog else params


def log_rho(w, method: str = "best",
            config: EvalConfig | None = None) -> EvalResult:
    """Log of the modular constant: -(homogeneous derivative at zero)."""
    res = evaluate("deriv0", _of_form(w, True, "log_rho"), None, method, config)
    return EvalResult(-res.value, res.abs_error_estimate, res.method, res.diagnostics)


def log_gamma_B(p: BarnesParams, method: str = "best",
                config: EvalConfig | None = None) -> EvalResult:
    """log Gamma_B(a|w) = zeta'(0,a|w) + log rho(w) (Barnes normalization)."""
    _of_form(p, False, "log_gamma_B")
    dv = evaluate("deriv0", p, None, method, config)
    lr = log_rho(p.w, method, config)
    return EvalResult(dv.value + lr.value,
                      dv.abs_error_estimate + lr.abs_error_estimate,
                      dv.method, {"deriv0": dv.diagnostics, "log_rho": lr.diagnostics})


def _from_finite_part(q: int, params, sign: float, method: str,
                      config: EvalConfig | None) -> EvalResult:
    """sign (q-1)! (FP at q + H_(q-1) * residue at q), the form shared by
    psi_B and gamma_dq; the fp route rejects a q off the poles."""
    fp = evaluate("fp", params, q, method, config)
    res = residue(q, params)
    scale = sign * factorial(q - 1)
    value = scale * (fp.value + harmonic_float(q - 1) * res)
    return EvalResult(value, abs(scale) * fp.abs_error_estimate, fp.method,
                      {"fp": fp.diagnostics, "residue": [res.real, res.imag]})


def psi_B(q: int, p: BarnesParams, method: str = "best",
          config: EvalConfig | None = None) -> EvalResult:
    """Generalized digamma value Psi^(q)(a|w), q = 1..d, from the finite part."""
    return _from_finite_part(q, _of_form(p, False, "psi_B"), (-1.0) ** q, method, config)


def gamma_dq(q: int, w, method: str = "best",
             config: EvalConfig | None = None) -> EvalResult:
    """q-th gamma modular form, from the homogeneous finite part at q."""
    return _from_finite_part(q, _of_form(w, True, "gamma_dq"), (-1.0) ** (q - 1),
                             method, config)


def multiple_gamma(a: complex, d: int, method: str = "best",
                   config: EvalConfig | None = None) -> EvalResult:
    """log of the multiple Gamma function: log Gamma_B with unit weights."""
    if d < 1:
        raise DomainError("d must be >= 1")
    p = BarnesParams(a=a, w=(1.0,) * d)
    return log_gamma_B(p, method, config)
