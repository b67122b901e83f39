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
numbers); the 0*inf products are never formed numerically.  The finite part
at q and the derivative at zero are one form, q = 0 being the derivative:
one plan, whose log-weighted terms are the pole row of `pole_coeffs`, and
one closed term, `pole_term`.

G composes the d forward differences with steps w_1..w_d, so by the
telescoping lemma the ladder part G[f](y), f(z) = z^e0 (P(1/z) + log z
P_log(1/z)), sums over the box {0..j}^d to its far corners, C(j) =
sum_S (-1)^(d-|S|) f(a + (j+1) sigma_S).  Shell j costs base(y) + const per
point, plus C(j) - C(j-1).  The corner sums come a block of _CORNER_BLOCK
shells at a time, from one ladder call on the block's 2^d far corners per
shell; those past the shell where the sum stops are discarded.  The points
run in float64 on a real lattice, the corners when a, w and alpha are all
real.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import factorial
import numpy as np

from .bernoulli import ds_values, pole_coeffs, pole_term
from .combinatorics import MAX_POINTS, MAX_SHELLS, CompensatedSum, shell_values, subset_terms
from .foundations import (
    ConvergenceError,
    DEFAULT_CONFIG,
    DomainError,
    EvalConfig,
    EvalResult,
    Method,
    check_order,
    check_pole,
    harmonic_float,
    lattice,
    narrow_weights,
    rising_factorial,
)

_EPS = float(np.finfo(np.float64).eps)

# Decay exponent Re(alpha) + k + d targeted by the automatic k choice; at
# this rate a few tens of shells reach ~1e-12 tails in double precision.
_K_TARGET = 13

# Cap on |y_min|^(1-k): larger k inflates the intermediate ladder terms at
# the innermost lattice points like |y_min|^(1-k), which is pure cancellation.
_GROWTH_CAP_DIGITS = 8.0

# Shells whose corner sums C(j) come from one ladder call.
_CORNER_BLOCK = 8


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
        return 1.0 / rising_factorial(1 - alpha, d - m)
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


def _plan_pole(q: int, w: tuple[complex, ...], k: int) -> _Plan:
    """The finite part at alpha = q, or the derivative at zero for q = 0:
    the pole row c_m of `pole_coeffs` as log-weighted G symbols for
    m <= d - q, then the plain ladder terms -dS_m/m! (-1)^(m-d)
    (q+m-d-1)!/(q-1)!, with (q-1)! -> 1 at q = 0, the Gamma ratio at alpha = q
    (for q = 0, its alpha-derivative at zero)."""
    d = len(w)
    dS = ds_values(w, k + d)
    row = pole_coeffs(q, d, dS)
    qf = factorial(q - 1) if q else 1
    plain = [-(dS[m] / factorial(m)) * ((-1.0) ** (m - d) * (factorial(q + m - d - 1) / qf))
             for m in range(d - q + 1, k + d)]
    return _Plan(
        d=d,
        e_start=d - q,
        coeffs=(*row, *plain),
        logflags=(True,) * len(row) + (False,) * len(plain),
        base="pow" if q else "neglog",
        base_expo=q,
        const=0.0 if q else -harmonic_float(d),
        k_used=k,
    )


def _plain_closed(plan: _Plan, a: complex, closed: CompensatedSum) -> complex:
    """The inhomogeneous closed term: closed plus the plain ladder terms
    -(-1)^d c_m a^(e0-m)."""
    sign_d = -1.0 if plan.d % 2 else 1.0
    for m, (coeff, log) in enumerate(zip(plan.coeffs, plan.logflags)):
        if not log:
            closed.add(-sign_d * coeff * a ** (plan.e_start - m))
    return closed.value


def _stack(plan: _Plan, a0: complex, w: tuple[complex, ...]) -> tuple[np.ndarray, ...]:
    """Kernel inputs, built once per call: the subset signs (empty subset
    first), the subset sums, the plain and the log-flagged ladder
    coefficients with trailing zeros dropped, then e0, base_expo and const;
    float64 when a, w and the plan are real, else complex128."""
    _, signs, sigmas = zip(*subset_terms(w, include_empty=True))
    flagged = list(zip(plan.coeffs, plan.logflags))
    plain = [0 if log else c for c, log in flagged]
    logc = [c if log else 0 for c, log in flagged]
    for row in (plain, logc):
        while row and row[-1] == 0:
            row.pop()
    rows = (signs, sigmas, plain, logc, plan.e_start, plan.base_expo, plan.const)
    if any(complex(v).imag for v in (a0, *signs, *sigmas, *plain, *logc, *rows[4:])):
        return tuple(np.array(r, np.complex128) for r in rows)
    real = [[complex(v).real for v in r] if isinstance(r, tuple | list) else complex(r).real
            for r in rows]
    return tuple(np.array(r, np.float64) for r in real)


def _ladder(stack: tuple[np.ndarray, ...], z: np.ndarray) -> np.ndarray:
    """The ladder f(z) = sum_m c_m z^(e0-m) (log z) at every entry of z, from
    one table of the powers z^e0 (1/z)^m and one product per coefficient row."""
    _, _, plain, logc, e0, _, _ = stack
    m = np.arange(max(plain.size, logc.size))
    zp = np.power(z, e0)[:, None] * np.power(1.0 / z[:, None], m)
    out = zp[:, :plain.size] @ plain
    if logc.size:
        out = out + np.log(z) * (zp[:, :logc.size] @ logc)
    return out


def _corner_sums(stack: tuple[np.ndarray, ...], a0: complex, j0: int, count: int,
                 homog: bool) -> np.ndarray:
    """C(j0), ..., C(j0 + count - 1), the ladder parts of the boxes {0..j}^d,
    from one ladder call on their count * 2^d far corners; the homogeneous
    forms drop the empty subset, whose f(0) is the same in every C(j).  A
    non-finite C(j) is left to the caller's check on the shell total."""
    signs, sigmas = stack[:2]
    a0 = complex(a0).real if sigmas.dtype == np.float64 else complex(a0)
    lo = 1 if homog else 0
    steps = np.arange(j0 + 1.0, j0 + count + 1.0)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        corners = _ladder(stack, (a0 + steps * sigmas[lo:]).ravel())
        return corners.reshape(count, -1) @ signs[lo:]


def _eval_shell(plan: _Plan, stack: tuple[np.ndarray, ...], y: np.ndarray) -> tuple[complex, float]:
    """Per-point part of one shell: the sum of base(y) + const, and the noise
    estimate eps * sum |y^e0|.  On a real lattice y arrives as float64 and
    positive: a complex alpha then costs one complex exp per point, and
    |y^e0| = y^Re(e0) needs no abs."""
    e0, base_expo, const = stack[4:]
    real = y.dtype == np.float64
    if plan.base == "neglog":
        total = -np.log(y).sum()
    elif real and base_expo.dtype == np.complex128:
        total = np.exp(-base_expo * np.log(y)).sum()
    else:
        total = np.power(y, -base_expo).sum()
    noise = np.power(y, e0.real).sum() if real else np.abs(np.power(y, e0)).sum()
    return complex(total + const * y.size), _EPS * float(noise)


def _sum_shells(plan: _Plan, a0: complex, w: tuple[complex, ...], cfg: EvalConfig,
                homog: bool, closed: complex) -> EvalResult:
    """Lattice sum of the plan's summand plus the closed term, shell by shell:
    shell j adds its per-point part and C(j) - C(j-1).  The value is the
    compensated per-point sum plus the last C(j), never a running sum of corner
    differences.  Homogeneous forms pass only their constant: the F-symbol
    part of their closed term is C(0), which the shells subtract again.

    The walk stops once three consecutive shells pass the stopping rule, and
    raises ConvergenceError past MAX_SHELLS shells or MAX_POINTS points."""
    stack = _stack(plan, a0, w)
    weights = narrow_weights(w)
    acc = CompensatedSum()
    # The last three shells' |total| and noise, oldest first.
    r0 = r1 = r2 = n0 = n1 = n2 = 0.0
    filled = points = 0
    noise_total = 0.0
    first = prev = 0.0

    def diag(j: int) -> dict:
        return {"shells": j + 1, "points": points, "k": plan.k_used}

    for j in range(MAX_SHELLS + 1):
        if j % _CORNER_BLOCK == 0:
            corners = _corner_sums(stack, a0, j, min(_CORNER_BLOCK, MAX_SHELLS + 1 - j),
                                   homog).astype(np.complex128).tolist()
        corner = corners[j % _CORNER_BLOCK]
        y = shell_values(a0, weights, j, skip_origin=homog)
        if y.size:
            part, noise = _eval_shell(plan, stack, y)
            s = part + (corner - prev)
            points += y.size
            if not cmath.isfinite(s):
                raise ConvergenceError(f"shell {j} sums to {s}; the series cannot converge",
                                       diagnostics=diag(j))
            acc.add(part)
            noise_total += noise
            r0, r1, r2 = r1, r2, abs(s)
            n0, n1, n2 = n1, n2, noise
            filled += 1
        else:
            first = corner
        prev = corner
        if j >= 3 and filled >= 3:
            scale = max(abs(acc.value + (corner - first)), abs(closed + first), 1e-300)
            # Below 4x the per-shell rounding noise further shells add no
            # information; stop there even if rel_tol has not been reached.
            # eps * sum|y^e0| is the rounding a per-point ladder would leave;
            # the corner sums leave far less, so it is a conservative
            # stand-in, kept so that the stopping rule does not move.
            if max(r0, r1, r2) <= max(cfg.rel_tol * scale, 4.0 * max(n0, n1, n2)):
                return EvalResult(acc.value + corner + closed, r0 + r1 + r2 + noise_total,
                                  Method.SERIES, diag(j))
        if points >= MAX_POINTS:
            raise ConvergenceError(f"shell summation spent its budget of {MAX_POINTS} points "
                                   f"in {j + 1} shells without meeting the stopping rule",
                                   diagnostics=diag(j))
    raise ConvergenceError(
        "shell summation hit MAX_SHELLS without meeting the stopping rule",
        diagnostics=diag(MAX_SHELLS),
    )


def _min_abs_lattice(a0: complex, w: tuple[complex, ...], homog: bool) -> float:
    if homog:
        return min(abs(wi) for wi in w)
    return abs(a0)


# ---------------------------------------------------------------------------
# Operations: params is a BarnesParams, or the weights of the homogeneous
# function (a = 0, origin excluded from the lattice)


def zeta_series(alpha: complex, params, *, config: EvalConfig | None = None,
                k: int | None = None) -> EvalResult:
    """Analytic continuation of the lattice zeta by the shifted series.

    Valid for Re(alpha) > -k off the poles alpha = 1..d; the closed term
    outside the lattice sum carries the whole pole structure.
    """
    cfg = config or DEFAULT_CONFIG
    a, w, homog = lattice(params)
    alpha = complex(alpha)
    d = len(w)
    check_pole(alpha, d, "homogeneous lattice zeta" if homog else "lattice zeta")
    if k is None:
        k = _auto_k(alpha.real, d, _min_abs_lattice(a, w, homog))
    if k <= -d:
        raise DomainError(f"shift parameter k = {k} must exceed -d = {-d}")
    if not alpha.real > -k:
        raise DomainError(f"series representation needs Re(alpha) > -k = {-k}")
    plan = _plan_generic(alpha, w, k)
    closed = 0.0 if homog else _plain_closed(plan, a, CompensatedSum())
    return _sum_shells(plan, a, w, cfg, homog, closed)


def _pole_series(q: int, a0: complex, w: tuple[complex, ...], cfg: EvalConfig, k: int | None,
                 homog: bool) -> EvalResult:
    """The finite part at alpha = q, or the derivative at zero for q = 0: the
    closed `pole_term`, plus the plain ladder terms (inhomogeneous) or the
    origin's per-point constant (homogeneous), and the lattice sum."""
    d = len(w)
    keff = k if k is not None else _auto_k_fixed(q, d, _min_abs_lattice(a0, w, homog))
    if keff < 1 - q:
        raise DomainError(f"shift parameter k = {keff} must be >= 1 - q = {1 - q}")
    plan = _plan_pole(q, w, keff)
    closed = pole_term(q, a0, d, ds_values(w, keff + d))
    if homog:
        closed.add(plan.const)
    return _sum_shells(plan, a0, w, cfg, homog,
                       closed.value if homog else _plain_closed(plan, a0, closed))


def fp_series(q: int, params, *, config: EvalConfig | None = None,
              k: int | None = None) -> EvalResult:
    """Finite part at the pole alpha = q, 1 <= q <= d, in series form.

    The ladder terms with m <= d-q are the log-weighted G symbols arising
    from expanding the vanishing G factor against the Gamma-ratio pole; the
    closed term collects the matching a^(d-q-m)(log a - H_(d-q-m) + H_(q-1))
    polynomial.
    """
    a, w, homog = lattice(params)
    check_order(q, len(w))
    return _pole_series(q, a, w, config or DEFAULT_CONFIG, k, homog)


def deriv0_series(params, *, config: EvalConfig | None = None,
                  k: int | None = None) -> EvalResult:
    """alpha-derivative at zero of the lattice zeta, in series form."""
    a, w, homog = lattice(params)
    return _pole_series(0, a, w, config or DEFAULT_CONFIG, k, homog)
