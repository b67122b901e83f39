"""Semi-infinite line-integral representations and their quadrature engine.

The analytic continuations subtract the first M + 1 terms of the small-t
expansion of the lattice heat kernel 1/prod(1 - e^{-w_i t}), whose
coefficients are the B_k(w)/k! that `bernoulli_taylor` reads, turning the
integrand into O(t^{M+1-d}) at the origin; the subtracted terms are
reinstated in closed form through Gamma-factor prefactors.  All Gamma
ratios appearing in the prefactors are evaluated in exact rational-in-alpha
form, so the individually divergent terms of the naive expression never
arise.  The finite part at q and the derivative at zero are one form, q = 0
being the derivative: the closed `pole_term` plus a t^(q-1)-weighted line
integral at subtraction order M = d - q.

Below a threshold t0 (a fixed fraction of the expansion radius
2*pi/max|w_i|) the regularized integrand is evaluated from its own tail
series instead of by subtracting nearly equal quantities; direct
subtraction there would lose all significant digits as t -> 0.  The tail
series is one product of the nodes' power table (np.vander) with its
coefficient row.  Above t0 the few subtracted terms keep Horner's rule: a
power table there rounds differently at large t, enough to turn honest
values at negative complex alpha dishonest.

Every line integral goes through one exp-sinh rule on (0, inf), whose
nodes cluster double-exponentially at the t^s origin and thin out along the
exponential tail, so the domain is never split.  The error estimate of a
route is its quadrature estimate, scaled by the route's Gamma factor, plus
the rounding of its closed Bernoulli sum (eps times the summed term sizes).
The brackets run in float64 when w (and c) are real, the integrands when a
and alpha are real as well.  The rule's tolerance is the fixed _QUAD_REL_TOL;
EvalConfig does not move it.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import factorial
from typing import Callable, NamedTuple

import numpy as np

from .bernoulli import bernoulli_taylor, bernoulli_taylor_over_prod, pole_coeffs, pole_term
from .combinatorics import CompensatedSum, subset_table
from .foundations import (
    ConvergenceError,
    DomainError,
    EPS,
    EvalConfig,
    EvalResult,
    check_order,
    check_pole,
    gamma_ratio,
    horner,
    lattice,
    narrow,
)
from .oracles import log_gamma_ref

_SERIES_EXTRA = 60          # tail-series terms kept in the small-t branch
_SMALL_T_FRACTION = 0.35    # threshold t0 as a fraction of the expansion radius
_HALF_PI = 0.5 * math.pi
_QUAD_REL_TOL = 1e-12       # tolerance of every route's exp-sinh rule
_M_MARGIN = 2               # zeta_integral's M above the least order that converges
_REGULATOR = 1.0 + 0j       # c of the homogeneous e^(-ct); the pole forms' closed part takes c = 1


# ---------------------------------------------------------------------------
# Exp-sinh quadrature on (0, inf)

_H0 = 0.5          # step of the first level in x
_LEVELS = 8        # levels h0, h0/2, ..., h0/2^7 before ConvergenceError
_FIRST_LEVELS = 5  # levels evaluated together in the first integrand call
_NOISE = 32 * EPS          # rounding floor per unit of summed |w_k f(t_k)|


class QuadratureOutcome(NamedTuple):
    value: complex
    error_estimate: float
    evaluations: int


def quad_semiinfinite(integrand: Callable[[np.ndarray], np.ndarray], small_t_order: float,
                      decay_rate: float, rel_tol: float,
                      poly_growth: float = 0.0) -> QuadratureOutcome:
    """Integrate integrand over (0, inf) by the exp-sinh rule
    (Takahasi and Mori, Publ. RIMS 9, 1974): trapezoidal sums in x, with
    t = exp((pi/2) sinh x)/decay_rate and dt/dx as weight.  The integrand
    behaves as t^small_t_order at the origin (small_t_order > -1) and as
    t^poly_growth e^(-decay_rate t) at infinity (decay_rate > 0).

    x runs from where (decay_rate t)^(small_t_order + 1) = eps * rel_tol to
    T_max, where the decay has paid for -log(rel_tol) + 5 e-folds on top of
    t^poly_growth.  Each level halves the step and adds only its new nodes.
    The first integrand call evaluates the first _FIRST_LEVELS = 5 levels as
    one grid of step h/16 (16n + 1 nodes), since nearly every integral of
    the routes needs level 4: level 0 is every 16th node, level l >= 1 the
    odd multiples of 16 >> l, and each level's sums are read from that
    strided view.  The steps differ by powers of two, so these are the nodes
    a level would add on its own, bit for bit.  Each later level is one
    call.  The rule consumes the levels one at a time and stops when two
    agree to rel_tol or to the rounding floor 32 eps h sum|w_k f(t_k)|.  The
    estimate is the last level difference (and the one before it, when the
    floor stopped the rule) plus that floor plus the remainders beyond both
    ends.  A running mass sum|w_k f(t_k)| that is not finite, checked as
    each level is consumed (a non-finite value, or finite values whose sums
    overflow), or no agreement after _LEVELS levels, raises ConvergenceError;
    `evaluations` counts every node evaluated, consumed or not.
    """
    if not decay_rate > 0:
        raise DomainError("decay_rate must be positive")
    if not small_t_order > -1:
        raise DomainError("small_t_order must exceed -1 for the integral to converge")
    if not rel_tol > 0:
        raise DomainError("rel_tol must be positive")
    lam = decay_rate
    target = -math.log(rel_tol) + 5.0
    t_max = target / lam
    for _ in range(4):
        t_max = (target + poly_growth * math.log(max(t_max, 2.0))) / lam
    s1 = small_t_order + 1.0
    x_lo = math.asinh(math.log(EPS * rel_tol) / (s1 * _HALF_PI))
    x_hi = math.asinh(math.log(lam * t_max) / _HALF_PI)
    n = math.ceil((x_hi - x_lo) / _H0)
    step = h = (x_hi - x_lo) / n

    def weighted(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """t(x) and w(x) f(t(x)) with w = dt/dx."""
        t = np.exp(_HALF_PI * np.sinh(x)) / lam
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return t, integrand(t) * (_HALF_PI * np.cosh(x) * t)

    # Levels 0.._FIRST_LEVELS-1 as one grid of step h/top (top = 16); level 0
    # is every top-th node, level l >= 1 the odd multiples of top >> l.
    top = 1 << (_FIRST_LEVELS - 1)
    t, g = weighted(x_lo + (step / top) * np.arange(n * top + 1))
    evals = g.size
    remainder = float(abs(g[0]) / (_HALF_PI * math.cosh(x_lo) * s1)
                      + abs(g[-1]) / (_HALF_PI * math.cosh(x_hi) * lam * t_max))
    g[[0, -1]] *= 0.5
    views = [slice(None, None, top)] + [slice(top >> l, None, top >> (l - 1))
                                        for l in range(1, _FIRST_LEVELS)]

    total, mass = 0j, 0.0

    def consume(level: int) -> None:
        """Add a level's new nodes to the running sum and mass sum|g|, checked
        finite as the rule consumes them; each level past the grid is one call
        on the odd multiples of h / 2^level."""
        nonlocal evals, total, mass
        if level < _FIRST_LEVELS:
            tl, gl = t[views[level]], g[views[level]]
        else:
            tl, gl = weighted(x_lo + (step / 2 ** level) * np.arange(1, n << level, 2))
            evals += gl.size
        total += complex(gl.sum())
        mass += float(np.abs(gl).sum())
        if not math.isfinite(mass):
            bad = tl[~np.isfinite(gl)]
            raise ConvergenceError(f"integrand is not finite at t = {bad[0]:.3e}" if bad.size
                                   else "the rule's sums overflow a double")

    consume(0)
    value, diff = h * total, math.inf
    for level in range(1, _LEVELS):
        h *= 0.5
        consume(level)
        prev, diff, value = diff, abs(h * total - value), h * total
        floor = _NOISE * h * mass
        if diff <= rel_tol * abs(value):
            return QuadratureOutcome(value, diff + floor + remainder, evals)
        if diff <= floor:
            # Noise regime: diff is one sample of the integrand's rounding
            # noise; the previous difference, which exceeded the floor, is
            # another, and bounds the discretization error of its level.
            return QuadratureOutcome(value, diff + prev + floor + remainder, evals)
    raise ConvergenceError(f"exp-sinh rule did not settle in {_LEVELS} levels "
                           f"(last difference {diff:.3e})")


# ---------------------------------------------------------------------------
# Regularized integrands

def _heat_product(w: tuple[complex, ...], t: np.ndarray) -> np.ndarray:
    """prod 1/(1-e^{-w_i t}), in the dtype of w."""
    return 1.0 / np.prod(-np.expm1(-np.multiply.outer(t, w)), axis=-1)


def _heat_product_minus_one(sigmas: np.ndarray, signs: np.ndarray,
                            w: tuple[complex, ...], t: np.ndarray) -> np.ndarray:
    """prod 1/(1-e^{-w_i t}) - 1 without cancellation at large t.

    Uses (1 - prod(1-e_i))/prod(1-e_i) with the numerator expanded over
    the nonempty subsets S, as sum of signs_S e^{-sigma_S t}, so the result
    keeps full relative accuracy when the e_i = e^{-w_i t} are at or below
    machine epsilon.
    """
    return (np.exp(-np.multiply.outer(t, sigmas)) @ signs) * _heat_product(w, t)


def _small_t_threshold(w: tuple[complex, ...]) -> float:
    radius = 2.0 * math.pi / max(abs(wi) for wi in w)
    return _SMALL_T_FRACTION * radius


def _alternating_bernoulli_coeffs(w: tuple[complex, ...], shift: complex, kmax: int) -> np.ndarray:
    """Coefficients (-1)^k B_k(shift|w)/k! of the small-t heat-kernel expansion."""
    return bernoulli_taylor(shift, w, kmax) * (-1.0) ** np.arange(kmax + 1)


def _inhom_bracket(w: tuple[complex, ...], M: int) -> Callable[[np.ndarray], np.ndarray]:
    """1/prod(1-e^{-w t}) minus its first M+1 expansion terms; O(t^{M+1-d})."""
    w = tuple(map(narrow, w))
    d = len(w)
    pw = math.prod(w)
    coeffs = _alternating_bernoulli_coeffs(w, 0.0, M + _SERIES_EXTRA)
    tail = coeffs[M + 1:]
    t0 = _small_t_threshold(w)

    def bracket(t: np.ndarray) -> np.ndarray:
        out = np.empty(t.shape, dtype=coeffs.dtype)
        small = t < t0
        if np.any(small):
            ts = t[small]
            tail_sum = np.vander(ts, tail.size, increasing=True) @ tail
            out[small] = ts ** (M + 1 - d) / pw * tail_sum
        if np.any(~small):
            tl = t[~small]
            sub = tl ** (-d) / pw * horner(coeffs[: M + 1], tl)
            out[~small] = _heat_product(w, tl) - sub
        return out

    return bracket


@lru_cache(maxsize=64)
def _exp_row(c: complex, start: int, count: int) -> np.ndarray:
    """c^k/k!, k = start .. start + count - 1, the Taylor coefficients of
    e^(ct); the same for every lattice."""
    row = np.array([c ** k / factorial(k) for k in range(start, start + count)])
    row.flags.writeable = False
    return row


def _homog_bracket(w: tuple[complex, ...], M: int) -> Callable[[np.ndarray], np.ndarray]:
    """Regularized homogeneous bracket at c = _REGULATOR; O(t^{M+1-d}) at the origin.

        1/prod(1-e^{-w t}) - 1 - t^{-d}e^{-ct}/prod(w) * [first M+1 terms]
        + e^{-ct} * sum_{k=0}^{M-d} (ct)^k/k!
    """
    w, c = tuple(map(narrow, w)), narrow(_REGULATOR)
    d = len(w)
    pw = math.prod(w)
    coeffs = _alternating_bernoulli_coeffs(w, -c, M + _SERIES_EXTRA)
    t0 = _small_t_threshold(w)
    signs, sigmas = subset_table(w)
    sigmas, signs = np.array(sigmas[1:]), (-1.0) ** (d + 1) * np.array(signs[1:])
    n_exp = M - d   # highest k of the counter-exponential partial sum
    partial = _exp_row(c, 0, n_exp + 1)
    # Below t0 both series carry e^{-ct} t^(M+1-d); for M >= d the
    # counter-exponential tail c^(M+1-d+j)/(M+1-d+j)! folds into one tail row.
    tail = coeffs[M + 1:] / pw
    if n_exp >= 0:
        tail = tail - _exp_row(c, n_exp + 1, _SERIES_EXTRA)

    def bracket(t: np.ndarray) -> np.ndarray:
        out = np.empty(t.shape, dtype=coeffs.dtype)
        small = t < t0
        if np.any(small):
            ts = t[small]
            tail_sum = np.vander(ts, tail.size, increasing=True) @ tail
            piece = ts ** (M + 1 - d) * np.exp(-c * ts) * tail_sum
            out[small] = piece if n_exp >= 0 else piece - 1.0
        if np.any(~small):
            tl = t[~small]
            ect = np.exp(-c * tl)
            sub = tl ** (-d) * ect / pw * horner(coeffs[: M + 1], tl)
            out[~small] = (_heat_product_minus_one(sigmas, signs, w, tl) - sub
                           + ect * horner(partial, tl))
        return out

    return bracket


# ---------------------------------------------------------------------------
# Operations


def _reciprocal_gamma(alpha: complex) -> complex:
    """1/Gamma(alpha), exactly 0 at alpha = 0, -1, ...; reflected below Re = 1/2
    with sin(pi alpha) = (-1)^k sin(pi (alpha - k)), k the nearest integer; one
    past the largest double raises ConvergenceError."""
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
        raise ConvergenceError(f"1/Gamma(alpha) overflows a double at alpha = {alpha}") from None


def _line_integral(a: complex, w: tuple[complex, ...], homog: bool, alpha: complex,
                   M: int) -> QuadratureOutcome:
    """The line integral of t^(alpha-1) times the bracket of subtraction
    order M, with e^(-at) when inhomogeneous and the regulator _REGULATOR
    when homogeneous, by the exp-sinh rule at the fixed _QUAD_REL_TOL."""
    d = len(w)
    if homog:
        bracket, decay = _homog_bracket(w, M), min(min(wi.real for wi in w), _REGULATOR.real)
    else:
        bracket, decay = _inhom_bracket(w, M), a.real
    a, expo = narrow(a), narrow(alpha - 1)

    def integrand(t: np.ndarray) -> np.ndarray:
        tq = t ** expo
        return (tq if homog else np.exp(-a * t) * tq) * bracket(t)

    return quad_semiinfinite(integrand, alpha.real + M - d, decay, _QUAD_REL_TOL,
                             max(0.0, alpha.real - 1.0) + M)


def zeta_integral(alpha: complex, params, *, config: EvalConfig | None = None) -> EvalResult:
    """Analytic continuation of the lattice zeta by prefactor + line integral.

    Valid for Re(alpha) > d - M - 1 under Re(a) > 0, Re(w_i) > 0, at the
    subtraction order M that is _M_MARGIN above the least such M >= 0.  At
    non-positive integer alpha the integral term carries the factor
    1/Gamma(alpha) = 0 and the prefactor alone gives the (regular) value.
    The homogeneous function takes the regulator e^{ct}, c = _REGULATOR, which
    makes the origin subtraction possible with a = 0; its value is independent
    of c.  `config` does not move the quadrature's tolerance.  Both forms share
    one prefactor,

        sum_k (-1)^k B_k(s|w)/k! Gamma(alpha-d+k)/Gamma(alpha) b^(d-k-alpha)/prod(w),

    with (s, b) = (0, a), or (-c, c) plus the regulator's part
    -c^(-alpha) sum_(k <= M-d) (alpha)_k/k! when homogeneous; a prefactor
    that overflows a double raises ConvergenceError.
    """
    a, w, homog = lattice(params)
    c = _REGULATOR
    alpha = complex(alpha)
    d = len(w)
    check_pole(alpha, d, homog)
    M = max(0, math.ceil(d - alpha.real - 1)) + _M_MARGIN
    # The line integral runs first: its Bernoulli table is the larger, so a
    # capped table raises before the prefactor is summed.
    rg = _reciprocal_gamma(alpha)
    integral, err, evals = _line_integral(a, w, homog, alpha, M) if rg else (0j, 0.0, 0)
    base, shift = (c, -c) if homog else (a, 0.0)
    taylor = bernoulli_taylor(shift, w, M)
    pw = math.prod(w)
    pref = CompensatedSum()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(M + 1):
                pref.add((-1.0) ** k * taylor[k] * gamma_ratio(alpha, k - d)
                         * base ** (d - k - alpha) / pw)
            for k in range(M - d + 1 if homog else 0):
                pref.add(-(c ** (-alpha)) * gamma_ratio(alpha, k) / factorial(k))
    except OverflowError:       # a complex power past the largest double
        pref.add(math.inf)
    if not math.isfinite(pref.mass):
        raise ConvergenceError(f"the prefactor at alpha = {alpha} overflows a double")
    diag = {"M": M, "c": [c.real, c.imag]} if homog else {"M": M}
    if rg == 0:
        return EvalResult(pref.value, EPS * pref.mass, "integral",
                          {**diag, "quad_evals": 0, "integral_skipped": True})
    return EvalResult(pref.value + rg * integral, abs(rg) * err + EPS * pref.mass,
                      "integral", {**diag, "quad_evals": evals})


def _pole_integral(q: int, a: complex, w: tuple[complex, ...], homog: bool) -> EvalResult:
    """The finite part at alpha = q, or the derivative at zero for q = 0:
    the closed `pole_term` plus I_(d-q)(q)/(q-1)!, the line integral of
    t^(q-1) times the bracket of subtraction order M = d - q (and e^(-at)
    when inhomogeneous).  At q = 0, 1/Gamma(alpha) = alpha + O(alpha^2), so
    the integral term contributes its own value at zero, the t^(-1)-weighted
    line integral, and 1/(q-1)! -> 1.  The homogeneous form, with the
    regulator _REGULATOR = 1, adds its part (-1)^(q+j+1) c_j/(d-q-j), j < d-q."""
    d = len(w)
    M = d - q
    row = pole_coeffs(q, d, bernoulli_taylor_over_prod(w, M))
    closed = pole_term(q, a, row)
    if homog:
        for j, c in enumerate(row[:-1]):
            closed.add((-1.0) ** (q + j + 1) * c / (M - j))
    integral, err, evals = _line_integral(a, w, homog, complex(q), M)
    rg = 1.0 / factorial(q - 1) if q else 1.0
    return EvalResult(closed.value + rg * integral, rg * err + EPS * closed.mass,
                      "integral", {"M": M, "quad_evals": evals})


def fp_integral(q: int, params, *, config: EvalConfig | None = None) -> EvalResult:
    """Finite part at alpha = q: closed polynomial-log term + I_{d-q}(q)."""
    a, w, homog = lattice(params)
    check_order(q, len(w))
    return _pole_integral(q, a, w, homog)


def deriv0_integral(params, *, config: EvalConfig | None = None) -> EvalResult:
    """Derivative at alpha = 0: closed polynomial-log term + I_d(0)."""
    a, w, homog = lattice(params)
    return _pole_integral(0, a, w, homog)


# ---------------------------------------------------------------------------
# Residues


def residue(q: int, params) -> complex:
    """Residue at alpha = q: (-1)^(d-q) [B_(d-q)(a|w)/(d-q)!] / ((q-1)! prod w),
    with a = 0 when params are the weights of the homogeneous function."""
    a, w, _ = lattice(params)
    d = len(w)
    check_order(q, d)
    return ((-1.0) ** (d - q) * complex(bernoulli_taylor(a, w, d - q)[d - q])
            / (factorial(q - 1) * math.prod(w)))
