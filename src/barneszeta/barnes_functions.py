"""The route registry and the derived Gamma-family functions.

ROUTES maps each quantity (the zeta function, its finite parts at the
poles, its derivative at zero), inhomogeneous or homogeneous, and each
route name to its route function; `evaluate` is the one dispatch path
through it, for the Gamma family below and for the command-line interface.

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
    Method,
    check_order,
    harmonic_float,
    validate_params,
    validate_weights,
)
from .integral_rep import (
    barnes_zeta_integral,
    deriv0_barnes_integral,
    deriv0_bh_integral,
    fp_barnes_integral,
    fp_bh_integral,
    residue,
    residue_bh,
    zeta_bh_integral,
)
from .limit_rep import (
    deriv0_barnes_limit,
    deriv0_bh_limit,
    fp_barnes_limit,
    fp_bh_limit,
)
from .oracles import _reduction_eval, direct_sum, direct_sum_bh
from .series_rep import (
    barnes_zeta_series,
    deriv0_barnes_series,
    deriv0_bh_series,
    fp_barnes_series,
    fp_bh_series,
    zeta_bh_series,
)


_ULP8 = 8 * 2.0 ** -52     # rounding slack of the best-route agreement test


# Every route of every quantity: ROUTES[quantity][homogeneous][route].  A
# route takes (alpha, params) for "zeta", (q, params) for "fp" and (params,)
# for "deriv0", where params is a BarnesParams, or the weights when
# homogeneous, and then only keywords: `config=`, and any knob of its own
# (the series shift k, the integral's subtraction order M and regulator c),
# which `evaluate` never passes.
ROUTES = {
    "zeta": {
        False: {"series": barnes_zeta_series, "integral": barnes_zeta_integral,
                "direct": direct_sum, "reduction": _reduction_eval},
        True: {"series": zeta_bh_series, "integral": zeta_bh_integral,
               "direct": direct_sum_bh},
    },
    "fp": {
        False: {"series": fp_barnes_series, "integral": fp_barnes_integral,
                "limit": fp_barnes_limit},
        True: {"series": fp_bh_series, "integral": fp_bh_integral, "limit": fp_bh_limit},
    },
    "deriv0": {
        False: {"series": deriv0_barnes_series, "integral": deriv0_barnes_integral,
                "limit": deriv0_barnes_limit},
        True: {"series": deriv0_bh_series, "integral": deriv0_bh_integral,
               "limit": deriv0_bh_limit},
    },
}


def evaluate(quantity: str, params, at=None, method: Method | str = "best",
             config: EvalConfig | None = None, *, homogeneous: bool = False) -> EvalResult:
    """Evaluate a quantity of the ROUTES registry by one of its routes.

    quantity is "zeta" (at = alpha), "fp" (at = q) or "deriv0" (no `at`);
    params is a BarnesParams, or the weights when homogeneous; method is a
    Method or its name.  The method "best" (the default) runs the series and
    the integral route and returns the one whose own error estimate is
    smaller, with that estimate and that route's method; diagnostics add
    `cross_check_delta` = |series - integral| and `best_route`.  If the two
    values differ by more than the sum of their estimates plus 8 ulp of
    (1 + |value|), at least one estimate is dishonest and ConvergenceError is
    raised with both values.  A combination that is not in the registry
    raises DomainError.
    """
    cfg = config or DEFAULT_CONFIG
    route = method.value if isinstance(method, Method) else method
    if quantity not in ROUTES:
        raise DomainError(f"unknown quantity {quantity!r}; expected one of {sorted(ROUTES)}")
    if (at is None) != (quantity == "deriv0"):
        raise DomainError(f"{quantity} needs {'no' if at is not None else 'an'} evaluation point")
    routes = ROUTES[quantity][bool(homogeneous)]
    args = (params,) if at is None else (at, params)
    if route == "best":
        runs = {name: routes[name](*args, config=cfg) for name in ("series", "integral")}
        name = min(runs, key=lambda r: runs[r].abs_error_estimate)
        best = runs[name]
        delta = abs(runs["series"].value - runs["integral"].value)
        diag = {**best.diagnostics, "cross_check_delta": delta, "best_route": name}
        claimed = sum(r.abs_error_estimate for r in runs.values())
        if delta > claimed + _ULP8 * (1.0 + abs(best.value)):
            for r, res in runs.items():
                diag[r] = {"value": [res.value.real, res.value.imag],
                           "abs_error_estimate": res.abs_error_estimate}
            raise ConvergenceError(f"{quantity}: series and integral routes differ by "
                                   f"{delta:.3e}, beyond their estimates ({claimed:.3e})", diag)
        return EvalResult(best.value, best.abs_error_estimate, best.method, diag)
    if route not in routes:
        if route in ROUTES[quantity][not homogeneous]:
            kind = "inhomogeneous" if homogeneous else "homogeneous"
            raise DomainError(f"{route} method applies to the {kind} function")
        raise DomainError(f"{quantity} has no route {route!r}; expected one of "
                          f"{[*routes, 'best']}")
    return routes[route](*args, config=cfg)


def log_rho(w, method: Method | str = "best",
            config: EvalConfig | None = None) -> EvalResult:
    """Log of the modular constant: -(homogeneous derivative at zero)."""
    res = evaluate("deriv0", validate_weights(w), None, method, config, homogeneous=True)
    return EvalResult(-res.value, res.abs_error_estimate, res.method, res.diagnostics)


def log_gamma_B(p: BarnesParams, method: Method | str = "best",
                config: EvalConfig | None = None) -> EvalResult:
    """log Gamma_B(a|w) = zeta'(0,a|w) + log rho(w) (Barnes normalization)."""
    validate_params(p)
    dv = evaluate("deriv0", p, None, method, config)
    lr = log_rho(p.w, method, config)
    return EvalResult(dv.value + lr.value,
                      dv.abs_error_estimate + lr.abs_error_estimate,
                      dv.method, {"deriv0": dv.diagnostics, "log_rho": lr.diagnostics})


def _from_finite_part(q: int, params, sign: float, method: Method | str,
                      config: EvalConfig | None, homogeneous: bool) -> EvalResult:
    """sign (q-1)! (FP at q + H_(q-1) * residue at q), the form shared by
    psi_B and gamma_dq."""
    fp = evaluate("fp", params, q, method, config, homogeneous=homogeneous)
    res = residue_bh(q, params) if homogeneous else residue(q, params)
    scale = sign * factorial(q - 1)
    value = scale * (fp.value + harmonic_float(q - 1) * res)
    return EvalResult(value, abs(scale) * fp.abs_error_estimate, fp.method,
                      {"fp": fp.diagnostics, "residue": [res.real, res.imag]})


def psi_B(q: int, p: BarnesParams, method: Method | str = "best",
          config: EvalConfig | None = None) -> EvalResult:
    """Generalized digamma value Psi^(q)(a|w), q = 1..d, from the finite part."""
    validate_params(p)
    check_order(q, p.d)
    return _from_finite_part(q, p, (-1.0) ** q, method, config, False)


def gamma_dq(q: int, w, method: Method | str = "best",
             config: EvalConfig | None = None) -> EvalResult:
    """q-th gamma modular form, from the homogeneous finite part at q."""
    wt = validate_weights(w)
    check_order(q, len(wt))
    return _from_finite_part(q, wt, (-1.0) ** (q - 1), method, config, True)


def multiple_gamma(a: complex, d: int, method: Method | str = "best",
                   config: EvalConfig | None = None) -> EvalResult:
    """log of the multiple Gamma function: log Gamma_B with unit weights."""
    if d < 1:
        raise DomainError("d must be >= 1")
    p = BarnesParams(a=a, w=(1.0,) * d)
    return log_gamma_B(p, method, config)
