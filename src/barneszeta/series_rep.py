"""Lattice series representations: analytic continuation, finite parts at
the poles, and the derivative at zero, for both the inhomogeneous and the
homogeneous lattice zeta functions.

The engine sums, over hypercubic shells, terms of the form

    base(y) + sum_m c_m * G[(y+x)^{e0 - m} (log(y+x))]_{x=w},   y = a + n.w,

where the subtraction ladder c_m is built from Bernoullian derivative
values and the Gamma-factor ratio Gamma(1-alpha)/Gamma(d-alpha-m+1), kept
in its exact rational-in-alpha form so no Gamma function is ever evaluated
near a pole.  The shift parameter k controls how many ladder terms are
subtracted: the summand then decays like |y|^(-Re(alpha)-k-d), and the
value of the analytic continuation is independent of k.

At the poles alpha = q and at alpha = 0 the removable singularities of the
ladder are expanded analytically (log-weighted G symbols and harmonic
numbers); the 0*inf products are never formed numerically.

Each shell goes through one stacked kernel: z = y + sigma for all 2^d
subsets at once, the ladder as z^e0 (P(1/z) + log z P_log(1/z)) with Horner
polynomials P and P_log, in float64 when a, w and alpha are real.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field
from math import factorial
from typing import Sequence

import numpy as np

from .bernoulli import ds_values
from .combinatorics import CompensatedSum, shell_values, subset_terms
from .foundations import (
    BarnesParams,
    ConvergenceError,
    DEFAULT_CONFIG,
    DomainError,
    EvalConfig,
    EvalResult,
    Method,
    check_pole,
    harmonic_float,
    horner,
    validate_params,
    validate_weights,
)

_EPS = float(np.finfo(np.float64).eps)

# Decay exponent Re(alpha) + k + d targeted by the automatic k choice; at
# this rate a few tens of shells reach ~1e-12 tails in double precision.
_K_TARGET = 13

# Cap on |y_min|^(1-k): larger k inflates the intermediate ladder terms at
# the innermost lattice points like |y_min|^(1-k), which is pure cancellation.
_GROWTH_CAP_DIGITS = 8.0

# Largest 2^d x points block the shell kernel holds at once; it bounds the
# stacked temporaries, and so the peak memory, whatever the shell size.
_BLOCK_ELEMS = 1 << 13


@dataclass(frozen=True)
class SeriesControls:
    """Shift parameter and stopping rule for the shell-wise summation."""

    k: int | None = None
    shell_stop_count: int = 3
    config: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.shell_stop_count < 1:
            raise DomainError("shell_stop_count must be >= 1")


def _k_growth_limit(y_min: float) -> int:
    """Largest k whose inner-shell cancellation stays within the cap."""
    if y_min >= 1.0:
        return 10**6
    return max(1, int(1.0 + _GROWTH_CAP_DIGITS / (-math.log10(y_min))))


def _auto_k(re_alpha: float, d: int, y_min: float) -> int:
    base = max(1, math.ceil(-re_alpha) + 1)
    boosted = max(base, math.ceil(_K_TARGET - d - re_alpha))
    return min(boosted, max(base, _k_growth_limit(y_min)))


def _auto_k_fixed(q_like: int, d: int, y_min: float) -> int:
    """k choice for the finite-part (q_like = q) and derivative (q_like = 0) forms.

    For small |a| the ladder's innermost term grows like |a|^(1-q-k) in
    absolute size; keep that below ~1e8 so the O(1) part of the result
    survives the cancellation.
    """
    minimal = 1 - q_like
    boosted = max(minimal, _K_TARGET - d - q_like)
    if y_min < 1.0:
        cap = 1 - q_like + int(_GROWTH_CAP_DIGITS / (-math.log10(y_min)))
        return min(boosted, max(minimal, cap))
    return boosted


def _gamma_ratio(alpha: complex, d: int, m: int) -> complex:
    """Gamma(1-alpha)/Gamma(d-alpha-m+1) in closed rational form.

    For m <= d this is 1/prod_{j=0}^{d-m-1}(1-alpha+j), with poles exactly
    at alpha = 1..d-m; for m > d it is the polynomial
    prod_{j=1}^{m-d}(1-alpha-j).
    """
    if m <= d:
        denom = complex(1.0)
        for j in range(d - m):
            denom *= 1 - alpha + j
        return 1.0 / denom
    out = complex(1.0)
    for j in range(1, m - d + 1):
        out *= 1 - alpha - j
    return out


@dataclass(frozen=True)
class _Plan:
    """One shell summand: base(y) + const + sum_m coeff_m * G_m(y)."""

    d: int
    e_start: complex            # ladder exponent at m = 0; steps down by 1
    coeffs: tuple[complex, ...]
    logflags: tuple[bool, ...]
    base: str                   # "pow" or "neglog"
    base_expo: complex = 0.0
    const: complex = 0.0        # added once per lattice point
    k_used: int = 0

    @property
    def any_log(self) -> bool:
        return any(self.logflags)


def _plan_generic(alpha: complex, w: tuple[complex, ...], k: int) -> _Plan:
    d = len(w)
    dS = ds_values(w, k + d)
    coeffs = tuple(-(dS[m] / factorial(m)) * _gamma_ratio(alpha, d, m) for m in range(k + d))
    return _Plan(
        d=d,
        e_start=d - alpha,
        coeffs=coeffs,
        logflags=(False,) * (k + d),
        base="pow",
        base_expo=alpha,
        k_used=k,
    )


def _plan_fp(q: int, w: tuple[complex, ...], k: int) -> _Plan:
    d = len(w)
    dS = ds_values(w, k + d)
    coeffs: list[complex] = []
    logflags: list[bool] = []
    sq = (-1.0) ** q / factorial(q - 1)
    for m in range(k + d):
        if m <= d - q:
            coeffs.append(sq * dS[m] / (factorial(m) * factorial(d - q - m)))
            logflags.append(True)
        else:
            coeffs.append(-(dS[m] / factorial(m)) * _gamma_ratio(complex(q), d, m))
            logflags.append(False)
    return _Plan(
        d=d,
        e_start=d - q,
        coeffs=tuple(coeffs),
        logflags=tuple(logflags),
        base="pow",
        base_expo=complex(q),
        k_used=k,
    )


def _plan_deriv0(w: tuple[complex, ...], k: int) -> _Plan:
    d = len(w)
    dS = ds_values(w, k + d)
    coeffs: list[complex] = []
    logflags: list[bool] = []
    for m in range(k + d):
        if m <= d:
            coeffs.append(dS[m] / (factorial(m) * factorial(d - m)))
            logflags.append(True)
        else:
            coeffs.append(-(dS[m] / factorial(m)) * (-1.0) ** (m - d) * factorial(m - d - 1))
            logflags.append(False)
    return _Plan(
        d=d,
        e_start=complex(d),
        coeffs=tuple(coeffs),
        logflags=tuple(logflags),
        base="neglog",
        const=-harmonic_float(d),
        k_used=k,
    )


def _stack(plan: _Plan, a0: complex, w: tuple[complex, ...]) -> tuple[np.ndarray, ...]:
    """Shell-kernel inputs, built once per call: the subset signs (empty
    subset first), the subset sums as a column, the plain and the log-flagged
    ladder coefficients with trailing zeros dropped, then e0, base_expo and
    const; float64 when a, w and the plan are real, else complex128."""
    subsets = subset_terms(w, include_empty=True)
    flags = np.array(plan.logflags)
    parts = [np.asarray(v, dtype=np.complex128) for v in (
        [s for _, s, _ in subsets], [[x] for _, _, x in subsets],
        np.where(flags, 0, plan.coeffs), np.where(flags, plan.coeffs, 0),
        plan.e_start, plan.base_expo, plan.const)]
    if complex(a0).imag == 0 and not any(v.imag.any() for v in parts):
        parts = [v.real.copy() for v in parts]
    parts[2:4] = [np.trim_zeros(v, "b") for v in parts[2:4]]
    return tuple(parts)


def _eval_shell(plan: _Plan, stack: tuple[np.ndarray, ...], y: np.ndarray) -> tuple[complex, float]:
    """Summand total over one shell, plus the noise estimate eps * sum |y^e0|.

    Blocks of points are shifted by every subset sum at once, z = y + sigma of
    shape (2^d, points); the ladder sum_m c_m z^(e0-m) (log z) is evaluated as
    z^e0 (P(1/z) + log z P_log(1/z)) and `signs @` takes the subset sum."""
    signs, sigmas, plain, logc, e0, base_expo, const = stack
    y = y.real if signs.dtype == np.float64 else y
    total = noise = 0.0
    step = max(1, _BLOCK_ELEMS // signs.size)
    for lo in range(0, y.size, step):
        yb = y[lo:lo + step]
        z = yb + sigmas
        zp = np.power(z, e0)
        noise += float(np.sum(np.abs(zp[0])))
        inv = 1.0 / z
        ladder = horner(plain, inv)
        if logc.size:
            ladder = ladder + np.log(z) * horner(logc, inv)
        t = np.power(yb, -base_expo) if plan.base == "pow" else -np.log(yb)
        total += np.sum(t + const + signs @ (zp * ladder))
    return complex(total), _EPS * noise


def _closed_homogeneous(plan: _Plan, w: tuple[complex, ...], const: complex) -> complex:
    """Closed lattice-free part of the homogeneous forms: const + F-symbol ladder."""
    acc = CompensatedSum()
    acc.add(const)
    for _, sign, sigma in subset_terms(w, include_empty=False):
        zp = sigma ** plan.e_start
        logz = cmath.log(sigma) if plan.any_log else 0.0
        for coeff, islog in zip(plan.coeffs, plan.logflags):
            if coeff != 0:
                acc.add(sign * coeff * (zp * logz if islog else zp))
            zp = zp / sigma
    return acc.value


def _sum_shells(plan: _Plan, a0: complex, w: tuple[complex, ...], cfg: EvalConfig,
                stop_count: int, homog: bool, scale_hint: float = 0.0) -> tuple[complex, float, dict]:
    stack = _stack(plan, a0, w)
    acc = CompensatedSum()
    recent: deque[float] = deque(maxlen=stop_count)
    recent_noise: deque[float] = deque(maxlen=stop_count)
    noise_total = 0.0
    diag = {"shells": 0, "points": 0, "k": plan.k_used}
    for j in range(cfg.max_shells + 1):
        y = shell_values(a0, w, j, skip_origin=homog)
        diag["shells"] = j + 1
        if y.size:
            s, noise = _eval_shell(plan, stack, y)
            diag["points"] += int(y.size)
            if not cmath.isfinite(s):
                raise ConvergenceError(f"shell {j} sums to {s}; the series cannot converge",
                                       diagnostics=diag)
            acc.add(s)
            noise_total += noise
            recent.append(abs(s))
            recent_noise.append(noise)
        if j >= max(stop_count, 2) and len(recent) == stop_count:
            scale = max(abs(acc.value), scale_hint, 1e-300)
            # Below 4x the per-shell rounding noise further shells add no
            # information; stop there even if rel_tol has not been reached.
            floor = 4.0 * max(recent_noise)
            if max(recent) <= max(cfg.rel_tol * scale, floor):
                return acc.value, sum(recent) + noise_total, diag
    raise ConvergenceError(
        "shell summation hit max_shells without meeting the stopping rule",
        diagnostics=diag,
    )


def _min_abs_lattice(a0: complex, w: tuple[complex, ...], homog: bool) -> float:
    if homog:
        return min(abs(wi) for wi in w)
    return abs(a0)


# ---------------------------------------------------------------------------
# Inhomogeneous operations


def barnes_zeta_series(alpha: complex, p: BarnesParams,
                       controls: SeriesControls | None = None) -> EvalResult:
    """Analytic continuation of the lattice zeta by the shifted series.

    Valid for Re(alpha) > -k off the poles alpha = 1..d; the closed term
    outside the lattice sum carries the whole pole structure.
    """
    ctl = controls or SeriesControls()
    cfg = ctl.config
    validate_params(p)
    alpha = complex(alpha)
    d = p.d
    check_pole(alpha, d)
    k = ctl.k if ctl.k is not None else _auto_k(alpha.real, d, _min_abs_lattice(p.a, p.w, False))
    if k <= -d:
        raise DomainError(f"shift parameter k = {k} must exceed -d = {-d}")
    if not alpha.real > -k:
        raise DomainError(f"series representation needs Re(alpha) > -k = {-k}")
    plan = _plan_generic(alpha, p.w, k)
    closed = CompensatedSum()
    sign_d = -1.0 if d % 2 else 1.0
    for m, coeff in enumerate(plan.coeffs):
        closed.add(-sign_d * coeff * p.a ** (d - alpha - m))
    series, est, diag = _sum_shells(plan, p.a, p.w, cfg, ctl.shell_stop_count,
                                    homog=False, scale_hint=abs(closed.value))
    return EvalResult(series + closed.value, est, Method.SERIES, diag)


def fp_barnes_series(q: int, p: BarnesParams, config: EvalConfig | None = None,
                     *, k: int | None = None) -> EvalResult:
    """Finite part at the pole alpha = q, 1 <= q <= d, in series form.

    The ladder terms with m <= d-q are the log-weighted G symbols arising
    from expanding the vanishing G factor against the Gamma-ratio pole; the
    closed term collects the matching a^(d-q-m)(log a - H_(d-q-m) + H_(q-1))
    polynomial.
    """
    cfg = config or DEFAULT_CONFIG
    validate_params(p)
    d = p.d
    if not 1 <= q <= d:
        raise DomainError(f"finite parts exist for q = 1..{d}, got {q}")
    keff = k if k is not None else _auto_k_fixed(q, d, _min_abs_lattice(p.a, p.w, False))
    if keff < 1 - q:
        raise DomainError(f"shift parameter k = {keff} must be >= 1 - q")
    plan = _plan_fp(q, p.w, keff)
    la = cmath.log(p.a)
    closed = CompensatedSum()
    dS = ds_values(p.w, keff + d)
    s1 = (-1.0) ** (d - q + 1) / factorial(q - 1)
    hq1 = harmonic_float(q - 1)
    for m in range(d - q + 1):
        closed.add(
            s1 * dS[m] * p.a ** (d - q - m) / (factorial(m) * factorial(d - q - m))
            * (la - harmonic_float(d - q - m) + hq1)
        )
    sign_d = -1.0 if d % 2 else 1.0
    for m in range(d - q + 1, keff + d):
        closed.add(sign_d * (dS[m] / factorial(m)) * _gamma_ratio(complex(q), d, m)
                   * p.a ** (d - q - m))
    series, est, diag = _sum_shells(plan, p.a, p.w, cfg, 3, homog=False,
                                    scale_hint=abs(closed.value))
    return EvalResult(series + closed.value, est, Method.SERIES, diag)


def deriv0_barnes_series(p: BarnesParams, config: EvalConfig | None = None,
                         *, k: int | None = None) -> EvalResult:
    """alpha-derivative at zero of the lattice zeta, in series form."""
    cfg = config or DEFAULT_CONFIG
    validate_params(p)
    d = p.d
    keff = k if k is not None else _auto_k_fixed(0, d, _min_abs_lattice(p.a, p.w, False))
    if keff < 1:
        raise DomainError("the derivative form needs k >= 1")
    plan = _plan_deriv0(p.w, keff)
    la = cmath.log(p.a)
    closed = CompensatedSum()
    dS = ds_values(p.w, keff + d)
    s1 = -1.0 if (d + 1) % 2 else 1.0
    for m in range(d + 1):
        closed.add(
            s1 * dS[m] * p.a ** (d - m) / (factorial(m) * factorial(d - m))
            * (la - harmonic_float(d - m))
        )
    sign_d = -1.0 if d % 2 else 1.0
    for m in range(d + 1, keff + d):
        closed.add(sign_d * (dS[m] / factorial(m)) * (-1.0) ** (m - d)
                   * factorial(m - d - 1) * p.a ** (d - m))
    series, est, diag = _sum_shells(plan, p.a, p.w, cfg, 3, homog=False,
                                    scale_hint=abs(closed.value))
    return EvalResult(series + closed.value, est, Method.SERIES, diag)


# ---------------------------------------------------------------------------
# Homogeneous operations (a = 0, origin excluded from the lattice)


def zeta_bh_series(alpha: complex, w: Sequence[complex],
                   controls: SeriesControls | None = None) -> EvalResult:
    """Analytic continuation of the homogeneous lattice zeta in series form."""
    ctl = controls or SeriesControls()
    cfg = ctl.config
    wt = validate_weights(w)
    alpha = complex(alpha)
    d = len(wt)
    check_pole(alpha, d, "homogeneous lattice zeta")
    k = ctl.k if ctl.k is not None else _auto_k(alpha.real, d, _min_abs_lattice(0, wt, True))
    if k <= -d:
        raise DomainError(f"shift parameter k = {k} must exceed -d = {-d}")
    if not alpha.real > -k:
        raise DomainError(f"series representation needs Re(alpha) > -k = {-k}")
    plan = _plan_generic(alpha, wt, k)
    closed = _closed_homogeneous(plan, wt, const=0.0)
    series, est, diag = _sum_shells(plan, 0.0, wt, cfg, ctl.shell_stop_count,
                                    homog=True, scale_hint=abs(closed))
    return EvalResult(series + closed, est, Method.SERIES, diag)


def fp_bh_series(q: int, w: Sequence[complex], config: EvalConfig | None = None,
                 *, k: int | None = None) -> EvalResult:
    """Finite part of the homogeneous lattice zeta at alpha = q, series form."""
    cfg = config or DEFAULT_CONFIG
    wt = validate_weights(w)
    d = len(wt)
    if not 1 <= q <= d:
        raise DomainError(f"finite parts exist for q = 1..{d}, got {q}")
    keff = k if k is not None else _auto_k_fixed(q, d, _min_abs_lattice(0, wt, True))
    if keff < 1 - q:
        raise DomainError(f"shift parameter k = {keff} must be >= 1 - q")
    plan = _plan_fp(q, wt, keff)
    dS = ds_values(wt, keff + d)
    hq_const = (dS[d - q] * (-1.0) ** (d + q + 1) / (factorial(q - 1) * factorial(d - q))
                * harmonic_float(q - 1))
    closed = _closed_homogeneous(plan, wt, const=hq_const)
    series, est, diag = _sum_shells(plan, 0.0, wt, cfg, 3, homog=True,
                                    scale_hint=abs(closed))
    return EvalResult(series + closed, est, Method.SERIES, diag)


def deriv0_bh_series(w: Sequence[complex], config: EvalConfig | None = None,
                     *, k: int | None = None) -> EvalResult:
    """alpha-derivative at zero of the homogeneous lattice zeta, series form."""
    cfg = config or DEFAULT_CONFIG
    wt = validate_weights(w)
    d = len(wt)
    keff = k if k is not None else _auto_k_fixed(0, d, _min_abs_lattice(0, wt, True))
    if keff < 1:
        raise DomainError("the derivative form needs k >= 1")
    plan = _plan_deriv0(wt, keff)
    closed = _closed_homogeneous(plan, wt, const=-harmonic_float(d))
    series, est, diag = _sum_shells(plan, 0.0, wt, cfg, 3, homog=True,
                                    scale_hint=abs(closed))
    return EvalResult(series + closed, est, Method.SERIES, diag)
