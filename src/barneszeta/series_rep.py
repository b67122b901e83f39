"""Lattice series representations: analytic continuation, finite parts at
the poles, and the derivative at zero, for both the inhomogeneous and the
homogeneous lattice zeta functions.

The engine sums, over hypercubic shells, terms of the form

    base(y) + sum_m c_m * G[(y+x)^{e0 - m} (log(y+x))]_{x=w},   y = a + n.w,

where the ladder c_m is built from b_m = B_m(w)/(m! prod w_i) and the
Gamma-factor ratio Gamma(1-alpha)/Gamma(d-alpha-m+1), kept in its exact
rational-in-alpha form so no Gamma function is ever evaluated near a pole.
The shift parameter k controls how many ladder terms are subtracted: the
summand then decays like |y|^(-Re(alpha)-k-d), and the value of the
analytic continuation is independent of k.  Each route chooses its own k >
-Re(alpha) by `_auto_k`; the pole forms take its k at alpha = 0, less q.

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
real.  Each call builds one plan, the kernel's only input, and its closed
term, and takes its shells from `combinatorics.walk_shells`.
"""

from __future__ import annotations

import cmath
import math
from math import factorial
from typing import NamedTuple

import numpy as np

from .bernoulli import bernoulli_taylor_over_prod, pole_coeffs, pole_term
from .combinatorics import CompensatedSum, subset_table, walk_shells
from .foundations import (
    ConvergenceError,
    EPS,
    EvalResult,
    REL_TOL,
    check_order,
    check_pole,
    check_tol,
    gamma_ratio,
    harmonic_float,
    lattice,
)

# Decay exponent Re(alpha) + k + d targeted by the automatic k choice; at
# this rate a few tens of shells reach ~1e-12 tails in double precision.
_K_TARGET = 13

# Cap on |y_min|^(1-k): larger k inflates the intermediate ladder terms at
# the innermost lattice points like |y_min|^(1-k), which is pure cancellation.
_GROWTH_CAP_DIGITS = 8.0

# Shells whose corner sums C(j) come from one ladder call.
_CORNER_BLOCK = 16


def _k_growth_limit(y_min: float) -> int:
    """Largest k whose inner-shell cancellation stays within the cap."""
    if y_min >= 1.0:
        return 10**6
    return max(1, int(1.0 + _GROWTH_CAP_DIGITS / (-math.log10(y_min))))


def _auto_k(re_alpha: float, d: int, y_min: float) -> int:
    base = max(1, math.ceil(-re_alpha) + 1)
    boosted = max(base, math.ceil(_K_TARGET - d - re_alpha))
    return min(boosted, max(base, _k_growth_limit(y_min)))


def _auto_k_fixed(q: int, d: int, y_min: float) -> int:
    """k for the finite part at q and the derivative at zero (q = 0): the
    ladder's decay |y|^-(q+k+d) and its inner growth |a|^(1-q-k) depend on
    q + k alone, which is the zeta series' k at alpha = 0."""
    return _auto_k(0.0, d, y_min) - q


class _Plan(NamedTuple):
    """The kernel's input: the subset signs (empty subset first) and sums, the
    plain and log-weighted ladder rows less trailing zeros, a, e0, base_expo
    and const, float64 when all are real, else complex128; whether base(y) is
    -log y rather than y^-base_expo; and the shift k."""

    signs: np.ndarray
    sigmas: np.ndarray
    plain: np.ndarray
    logc: np.ndarray
    a: np.ndarray
    e0: np.ndarray
    base_expo: np.ndarray
    const: np.ndarray
    neglog: bool
    k: int


def _plan(a0: complex, w: tuple[complex, ...], homog: bool, k: int, e0: complex,
          row: list[complex], plain: list[complex], neglog: bool, base_expo: complex,
          const: complex, closed: CompensatedSum) -> tuple[_Plan, complex]:
    """The plan of the ladder `row` (log-weighted) then `plain`, and the closed
    term: `closed`, plus the inhomogeneous plain ladder terms -(-1)^d c_m
    a^(e0-m) summed before the rows are trimmed."""
    sign = 1.0 if len(w) % 2 else -1.0
    try:
        for m, c in enumerate([] if homog else plain, len(row)):
            closed.add(sign * c * a0 ** (e0 - m))
    except OverflowError:
        raise ConvergenceError(f"closed term at alpha = {base_expo} overflows a double") from None
    signs, sigmas = subset_table(w)
    plain, logc = [0] * len(row) + plain, list(row)
    for r in (plain, logc):
        while r and r[-1] == 0:
            r.pop()
    rows = [np.array(r, np.complex128)
            for r in (signs, sigmas, plain, logc, a0, e0, base_expo, const)]
    if not any(r.imag.any() for r in rows):
        rows = [r.real.copy() for r in rows]
    return _Plan(*rows, neglog, k), closed.value


def _plan_generic(alpha: complex, a0: complex, w: tuple[complex, ...], k: int,
                  homog: bool) -> tuple[_Plan, complex]:
    """The zeta summand: the plain ladder -b_m Gamma(1-alpha)/Gamma(d-alpha-m+1),
    the Gamma ratio by reflection (-1)^(m-d) Gamma(alpha+m-d)/Gamma(alpha): poles
    at alpha = 1..d-m, zeros at the integers alpha <= 0 when m > d."""
    d = len(w)
    bw = bernoulli_taylor_over_prod(w, k + d - 1)
    plain = [-bw[m] * ((-1.0) ** (m - d) * gamma_ratio(alpha, m - d)) for m in range(k + d)]
    return _plan(a0, w, homog, k, d - alpha, [], plain, False, alpha, 0.0, CompensatedSum())


def _plan_pole(q: int, a0: complex, w: tuple[complex, ...], k: int,
               homog: bool) -> tuple[_Plan, complex]:
    """The finite part at alpha = q, or the derivative at zero for q = 0:
    the pole row c_m of `pole_coeffs` as log-weighted G symbols for
    m <= d - q, then the plain ladder terms -b_m (-1)^(m-d) (q+m-d-1)!/(q-1)!,
    with (q-1)! -> 1 at q = 0, the Gamma ratio at alpha = q (for q = 0, its
    alpha-derivative at zero).  The closed term is `pole_term`, plus the
    origin's per-point constant when homogeneous."""
    d = len(w)
    bw = bernoulli_taylor_over_prod(w, k + d - 1)
    row = pole_coeffs(q, d, bw)
    qf = factorial(q - 1) if q else 1
    plain = [-bw[m] * ((-1.0) ** (m - d) * (factorial(q + m - d - 1) / qf))
             for m in range(d - q + 1, k + d)]
    const = 0.0 if q else -harmonic_float(d)
    closed = pole_term(q, a0, row)
    if homog:
        closed.add(const)
    return _plan(a0, w, homog, k, d - q, row, plain, not q, q, const, closed)


def _ladder(plan: _Plan, z: np.ndarray) -> np.ndarray:
    """The ladder f(z) = sum_m c_m z^(e0-m) (log z) at every entry of z, from
    one table of the powers z^e0 (1/z)^m and one product per coefficient row."""
    plain, logc = plan.plain, plan.logc
    m = np.arange(max(plain.size, logc.size))
    zp = np.power(z, plan.e0)[:, None] * np.power(1.0 / z[:, None], m)
    out = zp[:, :plain.size] @ plain
    if logc.size:
        out = out + np.log(z) * (zp[:, :logc.size] @ logc)
    return out


def _corner_sums(plan: _Plan, steps: np.ndarray, homog: bool) -> np.ndarray:
    """C(j) at each step j + 1 of `steps`, the ladder parts of the boxes
    {0..j}^d, from one ladder call on their 2^d far corners per step; the
    homogeneous forms drop the empty subset, whose f(0) is the same in every
    C(j).  A non-finite C(j) is left to the caller's check."""
    lo = 1 if homog else 0
    with np.errstate(over="ignore", invalid="ignore"):
        corners = _ladder(plan, (plan.a + steps[:, None] * plan.sigmas[lo:]).ravel())
        return corners.reshape(steps.size, -1) @ plan.signs[lo:]


def _eval_shell(plan: _Plan, y: np.ndarray) -> tuple[complex, float]:
    """Per-point part of one shell: the sum of base(y) + const, and the noise
    estimate eps * sum |y^e0|.  On a real lattice y arrives as float64 and
    positive: a complex alpha then costs one complex exp per point, and
    |y^e0| = y^Re(e0) needs no abs."""
    e0, base_expo = plan.e0, plan.base_expo
    real = y.dtype == np.float64
    if plan.neglog:
        total = -np.log(y).sum()
    elif real and base_expo.dtype == np.complex128:
        total = np.exp(-base_expo * np.log(y)).sum()
    else:
        total = np.power(y, -base_expo).sum()
    noise = np.power(y, e0.real).sum() if real else np.abs(np.power(y, e0)).sum()
    return complex(total + plan.const * y.size), EPS * float(noise)


@np.errstate(over="ignore", invalid="ignore")
def _sum_shells(plan: _Plan, w: tuple[complex, ...], rel_tol: float, homog: bool,
                closed: complex) -> EvalResult:
    """Lattice sum of the plan's summand plus the closed term, over the shells
    of `walk_shells`: shell j adds its per-point part and C(j) - C(j-1).  The
    value is the compensated per-point sum plus the last C(j), never a running
    sum of corner differences.  Homogeneous forms pass only their constant:
    the nonempty-subset part of their closed term is C(0), which the shells
    subtract again.  The walk stops once three consecutive shells pass the
    stopping rule, and raises ConvergenceError if it ends first, or at a
    shell past the largest double (numpy's warnings are off for the walk)."""
    check_tol(rel_tol)
    acc = CompensatedSum()
    # The last three shells' |total| and noise, oldest first: only shell 0 can be empty.
    r0 = r1 = r2 = n0 = n1 = n2 = 0.0
    j, points = -1, 0
    noise_total = 0.0
    first = prev = 0.0

    def diag(j: int, points: int) -> dict:
        return {"shells": j + 1, "points": points, "k": plan.k}

    for j, y, points in walk_shells(plan.a, w, homog, diag):
        if j % _CORNER_BLOCK == 0:
            steps = np.arange(j + 1.0, j + _CORNER_BLOCK + 1.0)
            corners = _corner_sums(plan, steps, homog).astype(np.complex128).tolist()
        corner = corners[j % _CORNER_BLOCK]
        if y.size:
            part, noise = _eval_shell(plan, y)
            s = part + (corner - prev)
            if not cmath.isfinite(s):
                raise ConvergenceError(f"shell {j} sums to {s}; the series cannot converge",
                                       diagnostics=diag(j, points))
            acc.add(part)
            noise_total += noise
            r0, r1, r2 = r1, r2, abs(s)
            n0, n1, n2 = n1, n2, noise
        else:
            first = corner
        prev = corner
        if j >= 3:
            scale = max(abs(acc.value + (corner - first)), abs(closed + first), 1e-300)
            # Below 4x the per-shell rounding noise further shells add no
            # information; stop there even if rel_tol has not been reached.
            # eps * sum|y^e0| is the rounding a per-point ladder would leave;
            # the corner sums leave far less, so it is a conservative
            # stand-in, kept so that the stopping rule does not move.
            if max(r0, r1, r2) <= max(rel_tol * scale, 4.0 * max(n0, n1, n2)):
                return EvalResult(acc.value + corner + closed, r0 + r1 + r2 + noise_total,
                                  "series", diag(j, points))
    raise ConvergenceError(f"shell {j + 1} would take the shell summation past its point "
                           "budget without meeting the stopping rule", diagnostics=diag(j, points))


def _min_abs_lattice(a0: complex, w: tuple[complex, ...], homog: bool) -> float:
    return min(abs(wi) for wi in w) if homog else abs(a0)


# ---------------------------------------------------------------------------
# Operations: params is a BarnesParams, or the weights of the homogeneous
# function (a = 0, origin excluded from the lattice)


def zeta_series(alpha: complex, params, *, rel_tol: float = REL_TOL) -> EvalResult:
    """Analytic continuation of the lattice zeta by the shifted series, off
    the poles alpha = 1..d, at the shift k = `_auto_k` > -Re(alpha); the
    closed term outside the lattice sum carries the whole pole structure.
    """
    a, w, homog = lattice(params)
    alpha = complex(alpha)
    d = len(w)
    check_pole(alpha, d, homog)
    k = _auto_k(alpha.real, d, _min_abs_lattice(a, w, homog))
    plan, closed = _plan_generic(alpha, a, w, k, homog)
    return _sum_shells(plan, w, rel_tol, homog, closed)


def _pole_series(q: int, a0: complex, w: tuple[complex, ...], rel_tol: float,
                 homog: bool) -> EvalResult:
    """The finite part at alpha = q, or the derivative at zero for q = 0: the
    closed term of `_plan_pole` and the lattice sum, at k = `_auto_k_fixed`."""
    k = _auto_k_fixed(q, len(w), _min_abs_lattice(a0, w, homog))
    plan, closed = _plan_pole(q, a0, w, k, homog)
    return _sum_shells(plan, w, rel_tol, homog, closed)


def fp_series(q: int, params, *, rel_tol: float = REL_TOL) -> EvalResult:
    """Finite part at the pole alpha = q, 1 <= q <= d, in series form.

    The ladder terms with m <= d-q are the log-weighted G symbols arising
    from expanding the vanishing G factor against the Gamma-ratio pole; the
    closed term collects the matching a^(d-q-m)(log a - H_(d-q-m) + H_(q-1))
    polynomial.
    """
    a, w, homog = lattice(params)
    check_order(q, len(w))
    return _pole_series(q, a, w, rel_tol, homog)


def deriv0_series(params, *, rel_tol: float = REL_TOL) -> EvalResult:
    """alpha-derivative at zero of the lattice zeta, in series form."""
    a, w, homog = lattice(params)
    return _pole_series(0, a, w, rel_tol, homog)
