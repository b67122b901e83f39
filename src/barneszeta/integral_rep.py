"""Semi-infinite line-integral representations and their quadrature engine.

The analytic continuations subtract the first M + 1 terms of the small-t
expansion of the lattice heat kernel 1/prod(1 - e^{-w_i t}) (an expansion
whose coefficients are the higher-order Bernoulli numbers), turning the
integrand into O(t^{M+1-d}) at the origin; the subtracted terms are
reinstated in closed form through Gamma-factor prefactors.  All Gamma
ratios appearing in the prefactors are evaluated in exact rational-in-alpha
form, so the individually divergent terms of the naive expression never
arise.

Below a threshold t0 (a fixed fraction of the expansion radius
2*pi/max|w_i|) the regularized integrand is evaluated from its own tail
series instead of by subtracting nearly equal quantities; direct
subtraction there would lose all significant digits as t -> 0.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from math import factorial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bernoulli import bernoulli_numbers, bernoulli_poly, bernoulli_taylor
from .combinatorics import CompensatedSum
from .foundations import (
    BarnesParams,
    DEFAULT_CONFIG,
    DomainError,
    EvalConfig,
    EvalResult,
    Method,
    QuadratureError,
    check_pole,
    harmonic_float,
    horner,
    rising_factorial,
    validate_params,
    validate_weights,
)
from .oracles import log_gamma_ref

_SERIES_EXTRA = 60          # tail-series terms kept in the small-t branch
_SMALL_T_FRACTION = 0.35    # threshold t0 as a fraction of the expansion radius


@dataclass(frozen=True)
class QuadratureProblem:
    """A semi-infinite integral with known origin behavior and decay rate.

    poly_growth is the degree of the polynomial factor riding on the
    exponential decay at infinity; it widens the tail truncation point.
    """

    integrand: Callable[[np.ndarray], np.ndarray]
    small_t_order: float
    decay_rate: float
    rel_tol: float
    poly_growth: float = 0.0

    def __post_init__(self):
        if not self.decay_rate > 0:
            raise DomainError("decay_rate must be positive")
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")


@dataclass(frozen=True)
class IntegralControls:
    """Subtraction order M and the homogeneous regulator constant c."""

    M: int | None = None
    c: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        if self.M is not None and self.M < 0:
            raise DomainError("subtraction order M must be >= 0")
        if not self.c.real > 0:
            raise DomainError("regulator constant must have Re(c) > 0")


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7-15 adaptive quadrature (complex-valued)

_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


def _gk15(f, a: float, b: float) -> tuple[complex, float]:
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    x = center + half * _XGK
    fv = np.asarray(f(x), dtype=np.complex128)
    ik = half * complex(np.sum(_WGK * fv))
    ig = half * complex(np.sum(_WG * fv[1::2]))
    return ik, abs(ik - ig)


def _adaptive(f, a: float, b: float, rel_tol: float, budget: int,
              abs_floor: float = 0.0) -> tuple[complex, float, int]:
    """Bisection-adaptive GK15 on [a, b]; deterministic final reduction order."""
    value, err = _gk15(f, a, b)
    segments = {(a, b): (value, err)}
    heap = [(-err, a, b)]
    evals = 15
    total = value
    total_err = err
    abs_mass = abs(value)          # scale for the rounding-noise floor
    while heap:
        floor = max(rel_tol * max(abs(total), 1e-300), 32 * 1e-16 * abs_mass, abs_floor)
        if total_err <= floor:
            break
        if evals >= budget:
            raise QuadratureError(
                f"node budget {budget} exhausted with error {total_err:.3e}",
                achieved=total_err,
            )
        neg_err, sa, sb = heapq.heappop(heap)
        if (sa, sb) not in segments or segments[(sa, sb)][1] != -neg_err:
            continue
        v_old, e_old = segments.pop((sa, sb))
        mid = 0.5 * (sa + sb)
        if mid <= sa or mid >= sb:          # interval at float resolution
            segments[(sa, sb)] = (v_old, e_old)
            break
        total -= v_old
        total_err -= e_old
        abs_mass -= abs(v_old)
        for lo, hi in ((sa, mid), (mid, sb)):
            v, e = _gk15(f, lo, hi)
            segments[(lo, hi)] = (v, e)
            heapq.heappush(heap, (-e, lo, hi))
            total += v
            total_err += e
            abs_mass += abs(v)
        evals += 30
    acc = CompensatedSum()
    for key in sorted(segments):
        acc.add(segments[key][0])
    total_err = math.fsum(e for _, e in segments.values())
    return acc.value, total_err, evals


class QuadratureOutcome(NamedTuple):
    value: complex
    error_estimate: float
    evaluations: int


def quad_semiinfinite(prob: QuadratureProblem, *, split: float = 1.0,
                      node_budget: int = 10**6) -> QuadratureOutcome:
    """Integrate prob.integrand over (0, inf).

    The finite head (0, split] uses adaptive bisection; the tail is mapped
    by t = split - log(1-u)/decay_rate onto u in [0, u_end) and integrated
    there, with the truncated remainder beyond
    T_max = split + (-log(rel_tol)+5)/decay_rate bounded via the decay rate.
    """
    lam = prob.decay_rate
    f = prob.integrand
    head, err_head, n_head = _adaptive(f, 0.0, split, prob.rel_tol, node_budget)
    # Truncation point: solve lam*t - p*log(t) = -log(rel_tol) + 5 by iteration,
    # so polynomial growth t^p on top of the decay is paid for.
    target = -math.log(prob.rel_tol) + 5.0
    t_extra = target / lam
    for _ in range(4):
        t_extra = (target + prob.poly_growth * math.log(max(split + t_extra, 2.0))) / lam
    t_max = split + t_extra
    # Exponential substitution at the natural rate: u_end stays representably
    # below 1 out to t_reach = split + 30/lam; anything left between t_reach
    # and T_max (relative weight < e^-30) is swept by dyadic panels in t.
    t_reach = min(t_max, split + 30.0 / lam)
    u_end = -math.expm1(-lam * (t_reach - split))

    def g(u: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - u
        t = split - np.log(one_minus) / lam
        return np.asarray(f(t), dtype=np.complex128) / (lam * one_minus)

    tail, err_tail, n_tail = _adaptive(g, 0.0, u_end, prob.rel_tol,
                                       max(1000, node_budget - n_head))
    value = head + tail
    err = err_head + err_tail
    evals = n_head + n_tail
    scale = abs(head) + abs(tail)
    lo = t_reach
    while lo < t_max:
        hi = min(2.0 * lo, t_max)
        v, e, n = _adaptive(f, lo, hi, prob.rel_tol, 50_000,
                            abs_floor=prob.rel_tol * scale)
        value += v
        err += e
        evals += n
        lo = hi
    remainder = float(np.abs(f(np.array([t_max])))[0]) / lam
    return QuadratureOutcome(value, err + remainder, evals)


# ---------------------------------------------------------------------------
# Regularized integrands

def _heat_product(w: tuple[complex, ...], t: np.ndarray) -> np.ndarray:
    out = np.ones_like(t, dtype=np.complex128)
    for wi in w:
        out = out / (-np.expm1(-wi * t))
    return out


def _heat_product_minus_one(w: tuple[complex, ...], t: np.ndarray) -> np.ndarray:
    """prod 1/(1-e^{-w_i t}) - 1 without cancellation at large t.

    Uses (1 - prod(1-e_i))/prod(1-e_i) with the numerator expanded over
    nonempty subsets, so the result keeps full relative accuracy when the
    e_i = e^{-w_i t} are at or below machine epsilon.
    """
    exps = [np.exp(-wi * t) for wi in w]
    num = np.zeros_like(t, dtype=np.complex128)
    for mask in range(1, 1 << len(w)):
        term = np.ones_like(t, dtype=np.complex128)
        bits = 0
        for i, e in enumerate(exps):
            if mask >> i & 1:
                term = term * e
                bits += 1
        num += -term if bits % 2 == 0 else term
    den = np.ones_like(t, dtype=np.complex128)
    for wi in w:
        den = den * (-np.expm1(-wi * t))
    return num / den


def _small_t_threshold(w: tuple[complex, ...]) -> float:
    radius = 2.0 * math.pi / max(abs(wi) for wi in w)
    return _SMALL_T_FRACTION * radius


def _alternating_bernoulli_coeffs(w: tuple[complex, ...], shift: complex, kmax: int) -> np.ndarray:
    """Coefficients (-1)^k B_k(shift|w)/k! of the small-t heat-kernel expansion."""
    return np.array([(-1.0) ** k * b for k, b in enumerate(bernoulli_taylor(shift, w, kmax))],
                    dtype=np.complex128)


def _inhom_bracket(w: tuple[complex, ...], M: int) -> Callable[[np.ndarray], np.ndarray]:
    """1/prod(1-e^{-w t}) minus its first M+1 expansion terms; O(t^{M+1-d})."""
    d = len(w)
    pw = math.prod(w)
    coeffs = _alternating_bernoulli_coeffs(w, 0.0, M + _SERIES_EXTRA)
    t0 = _small_t_threshold(w)

    def bracket(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        out = np.empty(t.shape, dtype=np.complex128)
        small = t < t0
        if np.any(small):
            ts = t[small]
            out[small] = ts ** (M + 1 - d) / pw * horner(coeffs[M + 1:], ts)
        if np.any(~small):
            tl = t[~small]
            sub = tl ** (-d) / pw * horner(coeffs[: M + 1], tl)
            out[~small] = _heat_product(w, tl) - sub
        return out

    return bracket


def _homog_bracket(w: tuple[complex, ...], M: int, c: complex) -> Callable[[np.ndarray], np.ndarray]:
    """Regularized homogeneous integrand bracket; O(t^{M+1-d}) at the origin.

        1/prod(1-e^{-w t}) - 1 - t^{-d}e^{-ct}/prod(w) * [first M+1 terms]
        + e^{-ct} * sum_{k=0}^{M-d} (ct)^k/k!
    """
    d = len(w)
    pw = math.prod(w)
    coeffs = _alternating_bernoulli_coeffs(w, -c, M + _SERIES_EXTRA)
    t0 = _small_t_threshold(w)
    n_exp = M - d   # highest k of the counter-exponential partial sum
    if n_exp >= 0:
        exp_tail_coeffs = np.array([c ** (n_exp + 1 + j) / factorial(n_exp + 1 + j)
                                    for j in range(_SERIES_EXTRA)], dtype=np.complex128)
        partial = np.array([c ** k / factorial(k) for k in range(n_exp + 1)], dtype=np.complex128)

    def bracket(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        out = np.empty(t.shape, dtype=np.complex128)
        small = t < t0
        if np.any(small):
            ts = t[small]
            ect = np.exp(-c * ts)
            piece = ts ** (M + 1 - d) * ect / pw * horner(coeffs[M + 1:], ts)
            if n_exp >= 0:
                piece = piece - ect * ts ** (n_exp + 1) * horner(exp_tail_coeffs, ts)
            else:
                piece = piece - 1.0
            out[small] = piece
        if np.any(~small):
            tl = t[~small]
            ect = np.exp(-c * tl)
            sub = tl ** (-d) * ect / pw * horner(coeffs[: M + 1], tl)
            val = _heat_product_minus_one(w, tl) - sub
            if n_exp >= 0:
                val = val + ect * horner(partial, tl)
            out[~small] = val
        return out

    return bracket


# ---------------------------------------------------------------------------
# Gamma-ratio prefactors (exact rational form, no Gamma evaluations)


def _rho_ratio(alpha: complex, d: int, k: int) -> complex:
    """Gamma(alpha - d + k)/Gamma(alpha): poles only at alpha = 1..d-k."""
    if k <= d:
        out = complex(1.0)
        for i in range(1, d - k + 1):
            out /= alpha - i
        return out
    out = complex(1.0)
    for j in range(k - d):
        out *= alpha + j
    return out


def _auto_M(alpha: complex, d: int) -> int:
    return max(0, math.ceil(d - alpha.real - 1)) + 2


def _reciprocal_gamma(alpha: complex) -> complex:
    """1/Gamma(alpha), exactly 0 at alpha = 0, -1, ...; reflected below Re = 1/2
    with sin(pi alpha) = (-1)^k sin(pi (alpha - k)), k the nearest integer."""
    alpha = complex(alpha)
    k = round(alpha.real)
    if alpha == k and k <= 0:
        return 0j
    try:
        if alpha.real >= 0.5:
            return cmath.exp(-log_gamma_ref(alpha))
        sin_pi = (-1) ** k * cmath.sin(math.pi * (alpha - k))
        return sin_pi / math.pi * cmath.exp(log_gamma_ref(1 - alpha))
    except OverflowError:
        raise DomainError(f"1/Gamma(alpha) overflows a double at alpha = {alpha}") from None


# ---------------------------------------------------------------------------
# Operations


def barnes_zeta_integral(alpha: complex, p: BarnesParams,
                         controls: IntegralControls | None = None,
                         config: EvalConfig | None = None) -> EvalResult:
    """Analytic continuation of the lattice zeta by prefactor + line integral.

    Valid for Re(alpha) > d - M - 1 under Re(a) > 0, Re(w_i) > 0.  At
    non-positive integer alpha the integral term carries the factor
    1/Gamma(alpha) = 0 and the prefactor alone gives the (regular) value.
    """
    cfg = config or DEFAULT_CONFIG
    ctl = controls or IntegralControls()
    validate_params(p)
    alpha = complex(alpha)
    d = p.d
    check_pole(alpha, d)
    M = ctl.M if ctl.M is not None else _auto_M(alpha, d)
    if not alpha.real > d - M - 1:
        raise DomainError(f"need Re(alpha) > d - M - 1 = {d - M - 1}; increase M")
    numbers = bernoulli_numbers(p.w, M).numbers
    pw = math.prod(p.w)
    pref = CompensatedSum()
    for k in range(M + 1):
        pref.add((-1.0) ** k * numbers[k] * _rho_ratio(alpha, d, k)
                 * p.a ** (d - k - alpha) / (factorial(k) * pw))
    rg = _reciprocal_gamma(alpha)
    if rg == 0:
        return EvalResult(pref.value, 0.0, Method.INTEGRAL,
                          {"M": M, "quad_evals": 0, "integral_skipped": True})
    bracket = _inhom_bracket(p.w, M)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(-p.a * t) * t ** (alpha - 1) * bracket(t)

    prob = QuadratureProblem(
        integrand=integrand,
        small_t_order=alpha.real + M - d,
        decay_rate=p.a.real,
        rel_tol=cfg.quad_rel_tol,
        poly_growth=max(0.0, alpha.real - 1.0) + M,
    )
    integral, err, evals = quad_semiinfinite(prob, split=cfg.quad_split_point)
    value = pref.value + rg * integral
    return EvalResult(value, abs(rg) * err, Method.INTEGRAL,
                      {"M": M, "quad_evals": evals})


def fp_barnes_integral(q: int, p: BarnesParams, config: EvalConfig | None = None) -> EvalResult:
    """Finite part at alpha = q: closed polynomial-log term + I_{d-q}(q)."""
    cfg = config or DEFAULT_CONFIG
    validate_params(p)
    d = p.d
    if not 1 <= q <= d:
        raise DomainError(f"finite parts exist for q = 1..{d}, got {q}")
    M = d - q
    numbers = bernoulli_numbers(p.w, M).numbers
    pw = math.prod(p.w)
    la = cmath.log(p.a)
    closed = CompensatedSum()
    s = (-1.0) ** (d - q) / (pw * factorial(q - 1))
    for k in range(M + 1):
        closed.add(s * p.a ** (d - q - k) * numbers[k] / (factorial(k) * factorial(d - q - k))
                   * (harmonic_float(d - q - k) - harmonic_float(q - 1) - la))
    bracket = _inhom_bracket(p.w, M)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(-p.a * t) * t ** (q - 1) * bracket(t)

    prob = QuadratureProblem(
        integrand=integrand,
        small_t_order=float(q + M - d),
        decay_rate=p.a.real,
        rel_tol=cfg.quad_rel_tol,
        poly_growth=float(q - 1 + M),
    )
    integral, err, evals = quad_semiinfinite(prob, split=cfg.quad_split_point)
    rg = 1.0 / factorial(q - 1)
    return EvalResult(closed.value + rg * integral, rg * err, Method.INTEGRAL,
                      {"M": M, "quad_evals": evals})


def deriv0_barnes_integral(p: BarnesParams, config: EvalConfig | None = None) -> EvalResult:
    """Derivative at alpha = 0: closed polynomial-log term + I_d(0).

    With subtraction order M = d the prefactor holds only the k <= d terms,
    whose alpha-derivatives at zero give the closed sum of
    (-1)^d B_k(w) a^(d-k) (H_(d-k) - log a) / (prod w k! (d-k)!); since
    1/Gamma(alpha) = alpha + O(alpha^2), the integral term contributes its
    own value at zero, the t^(-1)-weighted line integral.
    """
    cfg = config or DEFAULT_CONFIG
    validate_params(p)
    d = p.d
    numbers = bernoulli_numbers(p.w, d).numbers
    pw = math.prod(p.w)
    la = cmath.log(p.a)
    closed = CompensatedSum()
    s = (-1.0) ** d / pw
    for k in range(d + 1):
        closed.add(s * numbers[k] * p.a ** (d - k) / (factorial(k) * factorial(d - k))
                   * (harmonic_float(d - k) - la))
    bracket = _inhom_bracket(p.w, d)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(-p.a * t) * bracket(t) / t

    prob = QuadratureProblem(
        integrand=integrand,
        small_t_order=0.0,
        decay_rate=p.a.real,
        rel_tol=cfg.quad_rel_tol,
        poly_growth=float(d),
    )
    integral, err, evals = quad_semiinfinite(prob, split=cfg.quad_split_point)
    return EvalResult(closed.value + integral, err, Method.INTEGRAL,
                      {"M": d, "quad_evals": evals})


def zeta_bh_integral(alpha: complex, w: Sequence[complex],
                     controls: IntegralControls | None = None,
                     config: EvalConfig | None = None) -> EvalResult:
    """Homogeneous lattice zeta by regulated prefactors + line integral.

    The regulator e^{ct} (any Re(c) > 0, default c = 1) makes the origin
    subtraction possible with a = 0; the continuation is valid for
    Re(alpha) > d - M - 1 and the value is independent of c.
    """
    cfg = config or DEFAULT_CONFIG
    ctl = controls or IntegralControls()
    wt = validate_weights(w)
    alpha = complex(alpha)
    d = len(wt)
    c = ctl.c
    check_pole(alpha, d)
    M = ctl.M if ctl.M is not None else _auto_M(alpha, d)
    if not alpha.real > d - M - 1:
        raise DomainError(f"need Re(alpha) > d - M - 1 = {d - M - 1}; increase M")
    pw = math.prod(wt)
    taylor = bernoulli_taylor(-c, wt, M)
    pref = CompensatedSum()
    for k in range(M + 1):
        pref.add((-1.0) ** k * taylor[k] * _rho_ratio(alpha, d, k)
                 * c ** (d - k - alpha) / pw)
    for k in range(M - d + 1):
        pref.add(-(c ** (-alpha)) * rising_factorial(alpha, k) / factorial(k))
    rg = _reciprocal_gamma(alpha)
    if rg == 0:
        return EvalResult(pref.value, 0.0, Method.INTEGRAL,
                          {"M": M, "c": [c.real, c.imag], "quad_evals": 0,
                           "integral_skipped": True})
    bracket = _homog_bracket(wt, M, c)

    def integrand(t: np.ndarray) -> np.ndarray:
        return t ** (alpha - 1) * bracket(t)

    decay = min(min(wi.real for wi in wt), c.real)
    prob = QuadratureProblem(
        integrand=integrand,
        small_t_order=alpha.real + M - d,
        decay_rate=decay,
        rel_tol=cfg.quad_rel_tol,
        poly_growth=max(0.0, alpha.real - 1.0) + M,
    )
    integral, err, evals = quad_semiinfinite(prob, split=cfg.quad_split_point)
    value = pref.value + rg * integral
    return EvalResult(value, abs(rg) * err, Method.INTEGRAL,
                      {"M": M, "c": [c.real, c.imag], "quad_evals": evals})


def fp_bh_integral(q: int, w: Sequence[complex], config: EvalConfig | None = None) -> EvalResult:
    """Homogeneous finite part at alpha = q, with the c = 1 regulator.

    Closed part uses the binomially simplified coefficients: the H_{q-1}
    term carries B_{d-q}(w) and the j-sum carries B_j(w)/(j!(d-q-j)!(d-q-j)).
    """
    cfg = config or DEFAULT_CONFIG
    wt = validate_weights(w)
    d = len(wt)
    if not 1 <= q <= d:
        raise DomainError(f"finite parts exist for q = 1..{d}, got {q}")
    M = d - q
    numbers = bernoulli_numbers(wt, max(M, 0)).numbers
    pw = math.prod(wt)
    closed = CompensatedSum()
    lead = 1.0 / (pw * factorial(q - 1))
    closed.add(lead * (-1.0) ** (d - q + 1) * numbers[d - q] * harmonic_float(q - 1)
               / factorial(d - q))
    for j in range(d - q):
        closed.add(lead * (-1.0) ** (j + 1) * numbers[j]
                   / (factorial(j) * factorial(d - q - j) * (d - q - j)))
    bracket = _homog_bracket(wt, M, 1.0 + 0j)

    def integrand(t: np.ndarray) -> np.ndarray:
        return t ** (q - 1) * bracket(t)

    decay = min(min(wi.real for wi in wt), 1.0)
    prob = QuadratureProblem(
        integrand=integrand,
        small_t_order=float(q + M - d),
        decay_rate=decay,
        rel_tol=cfg.quad_rel_tol,
        poly_growth=float(q - 1 + M),
    )
    integral, err, evals = quad_semiinfinite(prob, split=cfg.quad_split_point)
    rg = 1.0 / factorial(q - 1)
    return EvalResult(closed.value + rg * integral, rg * err, Method.INTEGRAL,
                      {"M": M, "quad_evals": evals})


def deriv0_bh_integral(w: Sequence[complex], config: EvalConfig | None = None) -> EvalResult:
    """Homogeneous derivative at zero: closed Bernoulli sum + t^{-1} integral."""
    cfg = config or DEFAULT_CONFIG
    wt = validate_weights(w)
    d = len(wt)
    numbers = bernoulli_numbers(wt, d).numbers
    pw = math.prod(wt)
    closed = CompensatedSum()
    for j in range(d):
        closed.add((-1.0) ** (j + 1) * numbers[j]
                   / (pw * factorial(j) * factorial(d - j) * (d - j)))
    bracket = _homog_bracket(wt, d, 1.0 + 0j)

    def integrand(t: np.ndarray) -> np.ndarray:
        return bracket(t) / t

    decay = min(min(wi.real for wi in wt), 1.0)
    prob = QuadratureProblem(
        integrand=integrand,
        small_t_order=0.0,
        decay_rate=decay,
        rel_tol=cfg.quad_rel_tol,
        poly_growth=float(d),
    )
    integral, err, evals = quad_semiinfinite(prob, split=cfg.quad_split_point)
    return EvalResult(closed.value + integral, err, Method.INTEGRAL,
                      {"M": d, "quad_evals": evals})


# ---------------------------------------------------------------------------
# Residues


def _residue_core(q: int, a: complex, w: tuple[complex, ...]) -> complex:
    d = len(w)
    if not 1 <= q <= d:
        raise DomainError(f"poles sit at q = 1..{d}, got {q}")
    return ((-1.0) ** (d - q) * bernoulli_poly(d - q, a, w)
            / (factorial(q - 1) * factorial(d - q) * math.prod(w)))


def residue(q: int, p: BarnesParams) -> complex:
    """Residue at alpha = q: (-1)^(d-q) B_(d-q)(a|w) / ((q-1)!(d-q)! prod w)."""
    validate_params(p)
    return _residue_core(q, p.a, p.w)


def residue_bh(q: int, w: Sequence[complex]) -> complex:
    """Homogeneous residue: the a = 0 specialization of `residue`."""
    wt = validate_weights(w)
    return _residue_core(q, 0.0, wt)
