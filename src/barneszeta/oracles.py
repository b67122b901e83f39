"""Independent reference implementations used for acceptance testing.

Nothing in this module touches the series/limit/integral machinery of the
lattice zeta representations: the Hurwitz zeta backbone is plain
Euler-Maclaurin (whose s-derivative is available termwise), the reductions
are exact rewritings into finite Hurwitz combinations, and the brute-force
lattice sum carries a rigorous tail bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bernoulli import classical_bernoulli
from .combinatorics import CompensatedSum, neville_in_reciprocal, shell_values
from .foundations import (
    BarnesParams,
    ConvergenceError,
    DomainError,
    EvalConfig,
    EvalResult,
    DEFAULT_CONFIG,
    Method,
    PoleError,
    check_pole,
    rising_factorial,
    validate_params,
    validate_weights,
)

TWO_PI = 2.0 * math.pi
LOG_2PI = math.log(TWO_PI)


@dataclass(frozen=True)
class EulerMaclaurinControls:
    """Shift length and number of even-index correction terms."""

    shift_N: int = 20
    bernoulli_terms: int = 12

    def __post_init__(self):
        if self.shift_N < 1:
            raise DomainError("shift_N must be >= 1")
        if self.bernoulli_terms < 1:
            raise DomainError("bernoulli_terms must be >= 1")


_DEFAULT_EM = EulerMaclaurinControls()


def _poch_ds(s: complex, n: int) -> complex:
    """d/ds of the rising factorial, as a sum of products (division-free)."""
    total = complex(0.0)
    for i in range(n):
        prod = complex(1.0)
        for l in range(n):
            if l != i:
                prod *= s + l
        total += prod
    return total


def hurwitz_zeta(s: complex, a: complex, controls: EulerMaclaurinControls | None = None) -> complex:
    """Hurwitz zeta via Euler-Maclaurin: head sum, integral term, corrections."""
    ctl = controls or _DEFAULT_EM
    s = complex(s)
    a = complex(a)
    if not a.real > 0:
        raise DomainError("hurwitz_zeta requires Re(a) > 0")
    if s == 1:
        raise PoleError("hurwitz zeta has its pole at s = 1", q=1)
    N, J = ctl.shift_N, ctl.bernoulli_terms
    acc = CompensatedSum()
    for n in range(N):
        acc.add((a + n) ** (-s))
    x = a + N
    acc.add(x ** (1 - s) / (s - 1))
    acc.add(0.5 * x ** (-s))
    bern = classical_bernoulli(2 * J)
    for j in range(1, J + 1):
        coeff = float(bern[2 * j]) / math.factorial(2 * j)
        acc.add(coeff * rising_factorial(s, 2 * j - 1) * x ** (-s - 2 * j + 1))
    return acc.value


def hurwitz_zeta_ds(s: complex, a: complex, controls: EulerMaclaurinControls | None = None) -> complex:
    """d/ds of hurwitz_zeta, differentiating the Euler-Maclaurin formula termwise."""
    ctl = controls or _DEFAULT_EM
    s = complex(s)
    a = complex(a)
    if not a.real > 0:
        raise DomainError("hurwitz_zeta_ds requires Re(a) > 0")
    if s == 1:
        raise PoleError("hurwitz zeta has its pole at s = 1", q=1)
    N, J = ctl.shift_N, ctl.bernoulli_terms
    acc = CompensatedSum()
    for n in range(N):
        y = a + n
        acc.add(-cmath.log(y) * y ** (-s))
    x = a + N
    lx = cmath.log(x)
    acc.add(-lx * x ** (1 - s) / (s - 1) - x ** (1 - s) / (s - 1) ** 2)
    acc.add(-0.5 * lx * x ** (-s))
    bern = classical_bernoulli(2 * J)
    for j in range(1, J + 1):
        coeff = float(bern[2 * j]) / math.factorial(2 * j)
        n = 2 * j - 1
        acc.add(coeff * (_poch_ds(s, n) - rising_factorial(s, n) * lx) * x ** (-s - n))
    return acc.value


def digamma_ref(a: complex, controls: EulerMaclaurinControls | None = None) -> complex:
    """Digamma by the shifted Euler-Maclaurin expansion (reference only)."""
    ctl = controls or _DEFAULT_EM
    a = complex(a)
    if not a.real > 0:
        raise DomainError("digamma_ref requires Re(a) > 0")
    N, J = ctl.shift_N, ctl.bernoulli_terms
    x = a + N
    acc = CompensatedSum()
    acc.add(cmath.log(x))
    acc.add(-0.5 / x)
    bern = classical_bernoulli(2 * J)
    for j in range(1, J + 1):
        acc.add(-float(bern[2 * j]) / (2 * j) * x ** (-2 * j))
    for n in range(N):
        acc.add(-1.0 / (a + n))
    return acc.value


def log_gamma_ref(a: complex) -> complex:
    """log Gamma(a) from the s-derivative of Hurwitz zeta at s = 0."""
    a = complex(a)
    if not a.real > 0:
        raise DomainError("log_gamma_ref requires Re(a) > 0")
    return hurwitz_zeta_ds(0.0, a) + 0.5 * LOG_2PI


def direct_sum(alpha: complex, p: BarnesParams, config: EvalConfig | None = None) -> EvalResult:
    """Brute-force lattice sum sum_n (a + n.w)^(-alpha), shell by shell.

    Requires Re(alpha) > d + 0.5 for a practical tail; stops once the
    rigorous integral tail bound drops below rel_tol of the partial sum.
    """
    cfg = config or DEFAULT_CONFIG
    validate_params(p)
    alpha = complex(alpha)
    return _direct_shells(alpha, p.a, p.w, cfg, skip_origin=False)


def direct_sum_bh(alpha: complex, w: Sequence[complex], config: EvalConfig | None = None) -> EvalResult:
    """Homogeneous counterpart of direct_sum (origin excluded, a = 0)."""
    cfg = config or DEFAULT_CONFIG
    wt = validate_weights(w)
    alpha = complex(alpha)
    return _direct_shells(alpha, 0.0, wt, cfg, skip_origin=True)


_DIRECT_POINT_BUDGET = 30_000_000
_DIRECT_WORST_REL = 1e-2


def _direct_shells(alpha, a, w, cfg, skip_origin):
    d = len(w)
    check_pole(alpha, d)
    if alpha.real <= d + 0.5:
        raise ConvergenceError(
            f"direct summation needs Re(alpha) > d + 0.5 = {d + 0.5}, got {alpha.real}"
        )
    wmin = min(wi.real for wi in w)
    a_re = max(complex(a).real, 0.0)
    acc = CompensatedSum()
    points = 0
    for k in range(cfg.max_shells + 1):
        y = shell_values(a, w, k, skip_origin=skip_origin)
        if y.size:
            acc.add(complex(np.sum(y ** (-alpha))))
            points += int(y.size)
        # Tail bound:  sum_{j>k} (count of S_j) * (min |y| on S_j)^(-Re alpha)
        # with count <= d*(j+1)^(d-1) and |y| >= a_re + j*wmin, compared
        # against the integral of the continuous envelope.
        u_k = a_re + (k + 1) * wmin
        kappa = 1.0 / wmin + 2.0 / u_k
        bound = d * kappa ** (d - 1) * u_k ** (d - alpha.real) / ((alpha.real - d) * wmin)
        total = abs(acc.value)
        done = k >= 1 and bound <= cfg.rel_tol * max(total, 1e-300)
        # Near the abscissa the bound decays like k^(d - Re alpha) and the
        # requested tolerance may be out of reach; stop at the point budget
        # and report the honest bound instead of grinding on.
        out_of_budget = k >= 1 and points >= _DIRECT_POINT_BUDGET
        if done or out_of_budget:
            if not done and bound > _DIRECT_WORST_REL * max(total, 1e-300):
                raise ConvergenceError(
                    f"tail bound {bound:.3e} still too large at the point budget",
                    diagnostics={"shells": k + 1, "points": points, "tail_bound": bound},
                )
            return EvalResult(
                value=acc.value,
                abs_error_estimate=bound,
                method=Method.DIRECT,
                diagnostics={"shells": k + 1, "points": points, "tail_bound": bound},
            )
    raise ConvergenceError(
        "direct summation hit max_shells before meeting the tail bound",
        diagnostics={"shells": cfg.max_shells, "points": points},
    )


def _poly_from_roots(shifts: Sequence[complex]) -> list[complex]:
    """Coefficients of prod_i (u + shifts[i]) in ascending powers of u."""
    coeffs = [complex(1.0)]
    for s in shifts:
        nxt = [complex(0.0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * s
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def isotropic_reduction(alpha: complex, a: complex, scale: complex, d: int) -> complex:
    """Equal-weight lattice zeta as a finite combination of Hurwitz zetas.

    With w = scale*(1,..,1), grouping lattice points by their coordinate sum
    s gives multiplicity C(s+d-1, d-1); expanding that binomial exactly as a
    polynomial in (s + a/scale) yields coefficients p_j with

        value = scale^(-alpha) * sum_j p_j * zeta_H(alpha - j, a/scale).
    """
    alpha = complex(alpha)
    a = complex(a)
    scale = complex(scale)
    if d < 1:
        raise DomainError("d must be >= 1")
    if not a.real > 0 or not scale.real > 0:
        raise DomainError("isotropic_reduction requires Re(a) > 0 and Re(scale) > 0")
    abar = a / scale
    # C(s+d-1, d-1) = prod_{i=1}^{d-1} (s+i) / (d-1)!  with s = u - abar.
    coeffs = _poly_from_roots([i - abar for i in range(1, d)])
    fact = math.factorial(d - 1)
    total = complex(0.0)
    for j, pj in enumerate(coeffs):
        if pj == 0:
            continue
        if alpha - j == 1:
            raise PoleError(f"reduction hits the Hurwitz pole at alpha - {j} = 1", q=None)
        total += pj * hurwitz_zeta(alpha - j, abar) / fact
    return scale ** (-alpha) * total


def rational_d2_reduction(alpha: complex, a: complex, n: int) -> complex:
    """d = 2, w = (1, n) lattice zeta over residue classes k = n*q + r.

    The multiplicity of a + k in the lattice sum is floor(k/n) + 1, so each
    residue class r contributes n^(-alpha) * [zeta_H(alpha-1, a_r) +
    (1 - a_r) * zeta_H(alpha, a_r)] with a_r = (a + r)/n.
    """
    alpha = complex(alpha)
    a = complex(a)
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not a.real > 0:
        raise DomainError("rational_d2_reduction requires Re(a) > 0")
    if alpha in (1, 2):
        raise PoleError("d = 2 lattice zeta has poles at alpha = 1, 2", q=int(alpha.real))
    total = complex(0.0)
    for r in range(n):
        ar = (a + r) / n
        total += hurwitz_zeta(alpha - 1, ar) + (1 - ar) * hurwitz_zeta(alpha, ar)
    return n ** (-alpha) * total


def _reduction_eval(alpha: complex, p: BarnesParams,
                    config: EvalConfig | None = None) -> EvalResult:
    """The lattice zeta by whichever exact reduction applies to the weights.

    Equal weights go through isotropic_reduction, d = 2 with w = (1, n)
    through rational_d2_reduction.  `config` is accepted so that every
    route shares one signature; the reductions have no tolerance.
    """
    validate_params(p)
    check_pole(complex(alpha), p.d)
    w = p.w
    if all(wi == w[0] for wi in w):
        value = isotropic_reduction(alpha, p.a, w[0], p.d)
    elif p.d == 2 and w[0] == 1 and w[1].imag == 0 and float(w[1].real).is_integer() and w[1].real >= 1:
        value = rational_d2_reduction(alpha, p.a, int(w[1].real))
    else:
        raise DomainError(
            "reduction method needs equal weights or d = 2 with w = (1, n), n a positive integer"
        )
    return EvalResult(value, 1e-13 * (1 + abs(value)), Method.REDUCTION, {})


@dataclass(frozen=True)
class LogGammaRepReport:
    """Three routes to log Gamma(a) plus the Lerch-based reference value."""

    series: complex
    limit: complex
    hurwitz_series: complex
    reference: complex


def _gamma_series_coeff(j: int) -> float:
    """Coefficient of y^(-j) in the expansion of (y+1/2)log(1+1/y) - 1."""
    return (-1.0) ** j * (j - 1) / (2.0 * j * (j + 1))


def _log_gamma_series(a: complex, n_terms: int = 2000, tail_orders: int = 14) -> complex:
    """Stirling-type series for log Gamma: closed head plus a lattice series.

    The summand (a+n+1/2)log(1+1/(a+n)) - 1 decays only like n^(-2), so the
    partial sum is completed with its exact asymptotic tail, each power
    summed by the Euler-Maclaurin Hurwitz oracle.
    """
    a = complex(a)
    n = np.arange(n_terms, dtype=np.float64)
    y = a + n
    terms = (y + 0.5) * np.log1p(1.0 / y) - 1.0
    acc = CompensatedSum()
    acc.add(complex(np.sum(terms)))
    for j in range(2, tail_orders + 1):
        acc.add(_gamma_series_coeff(j) * hurwitz_zeta(j, a + n_terms))
    head = a * (cmath.log(a) - 1) + 0.5 * (LOG_2PI - cmath.log(a))
    return head + acc.value


def _log_gamma_limit(a: complex, schedule: Sequence[int] = (1000, 2000, 4000, 8000)) -> complex:
    """Limit form: -M + (a+M-1/2)log(a+M) - sum log(a+n), extrapolated in 1/M.

    The bracket tends to log Gamma(a) + a - log(2*pi)/2, so those constants
    are restored after Richardson extrapolation.
    """
    a = complex(a)
    vals = []
    for M in schedule:
        n = np.arange(M, dtype=np.float64)
        logs = complex(np.sum(np.log(a + n)))
        vals.append(-M + (a + M - 0.5) * cmath.log(a + M) - logs)
    ext, _ = neville_in_reciprocal(schedule, vals)
    return 0.5 * LOG_2PI - a + ext


def _log_gamma_hurwitz_series(a: complex, max_terms: int = 400) -> complex:
    """Expansion of the logarithm termwise: a pure Hurwitz-zeta series.

    For |a| > 1 the series sum_k c_k * zeta_H(k, a) applies directly; for
    |a| <= 1 the n = 0 term is split off first, shifting the argument to
    a + 1 to restore geometric convergence.
    """
    a = complex(a)
    head = a * (cmath.log(a) - 1) + 0.5 * (LOG_2PI - cmath.log(a))
    if abs(a) > 1:
        shift = a
        extra = complex(0.0)
    else:
        shift = a + 1
        extra = (a + 0.5) * cmath.log(1 + 1 / a) - 1
    acc = CompensatedSum()
    scale = max(1.0, abs(head))
    for k in range(2, max_terms + 1):
        term = _gamma_series_coeff(k) * hurwitz_zeta(k, shift)
        acc.add(term)
        if abs(term) < 1e-17 * scale:
            return head + extra + acc.value
    raise ConvergenceError("Hurwitz-series route for log Gamma did not converge")


def log_gamma_rep_checks(a: complex, config: EvalConfig | None = None) -> LogGammaRepReport:
    """Evaluate the three log Gamma representations next to the reference."""
    a = complex(a)
    if not a.real > 0:
        raise DomainError("log_gamma_rep_checks requires Re(a) > 0")
    return LogGammaRepReport(
        series=_log_gamma_series(a),
        limit=_log_gamma_limit(a),
        hurwitz_series=_log_gamma_hurwitz_series(a),
        reference=log_gamma_ref(a),
    )
