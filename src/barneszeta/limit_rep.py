"""Limit (M -> infinity) representations of the finite parts and of the
derivative at zero, for the inhomogeneous and the homogeneous function.

Each quantity is written as  lim_M [ edge terms at x = M*w + cube sum over
{0..M-1}^d ] + closed constant.  The bracket is evaluated on a schedule of
M values and extrapolated to 1/M -> 0 with a Neville tableau (the leading
error is empirically c/M).  The bracket holds terms of size M^d log M that
cancel to an O(1) result, so double precision limits the attainable
accuracy to roughly 1e-5 at M = 4000 in d = 2; the reported est_error is
the difference of the last two extrapolants.

Cube sums are cached by (a, w, M), so two routes comparing the same
parameters share bit-identical lattice contributions and differ only in
their edge-term algebra.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from math import factorial
from typing import Sequence

import numpy as np

from .bernoulli import ds_values
from .combinatorics import CompensatedSum, f_symbol, neville_in_reciprocal, shell_values
from .foundations import (
    BarnesParams,
    ConvergenceError,
    DEFAULT_CONFIG,
    DomainError,
    EvalConfig,
    EvalResult,
    Method,
    harmonic_float,
    narrow,
    validate_params,
    validate_weights,
)

# Largest cube size kept when rescaling a schedule for d >= 3; the default
# schedule (1000, 2000, 4000) was sized for d <= 2 and would need 6.4e10
# lattice points at d = 3.
_CUBE_POINT_BUDGET = 3.2e7


def _effective_schedule(cfg: EvalConfig, d: int) -> tuple[int, ...]:
    sched = cfg.limit_M_schedule
    if d <= 2 or max(sched) ** d <= _CUBE_POINT_BUDGET:
        return sched
    shrink = (_CUBE_POINT_BUDGET / max(sched) ** d) ** (1.0 / d)
    scaled = tuple(max(4, int(round(m * shrink))) for m in sched)
    # keep strict monotonicity after rounding
    out = [scaled[0]]
    for m in scaled[1:]:
        out.append(max(m, out[-1] + 1))
    return tuple(out)


def _is_monotone(vals: Sequence[complex]) -> bool:
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    scale = max((abs(v) for v in vals), default=1.0)
    return all(d2 <= d1 + 1e-12 * (1.0 + scale) for d1, d2 in zip(diffs, diffs[1:]))


# ---------------------------------------------------------------------------
# Cached cube reductions


def _cube_chunks(a0: complex, w: tuple[complex, ...], M: int, homog: bool):
    """Yield the values a0 + n.w over {0..M-1}^d as flat arrays.

    Real parameters stay in float64 for speed; the origin is dropped from
    the first chunk in the homogeneous case.
    """
    d = len(w)
    a_val, ws = narrow(a0), [narrow(wi) for wi in w]
    if d == 1:
        n = np.arange(1 if homog else 0, M)
        yield a_val + ws[0] * n
        return
    if d == 2:
        block = max(1, int(4_000_000 // max(M, 1)))
        base2 = ws[1] * np.arange(M)
        for start in range(0, M, block):
            n1 = np.arange(start, min(start + block, M))
            y = (a_val + ws[0] * n1)[:, None] + base2[None, :]
            y = y.ravel()
            if homog and start == 0:
                y = y[1:]
            yield y
        return
    if d == 3:
        base2 = ws[1] * np.arange(M)
        base3 = ws[2] * np.arange(M)
        grid = base2[:, None] + base3[None, :]
        for n1 in range(M):
            y = (a_val + ws[0] * n1) + grid
            y = y.ravel()
            if homog and n1 == 0:
                y = y[1:]
            yield y
        return
    # generic dimension: shell enumeration (slower, used only for d >= 4)
    for k in range(M):
        y = shell_values(a0, w, k, skip_origin=homog)
        if y.size:
            yield y


@lru_cache(maxsize=512)
def _cube_pow(a0: complex, w: tuple[complex, ...], M: int, q: int, homog: bool) -> complex:
    acc = CompensatedSum()
    for y in _cube_chunks(a0, w, M, homog):
        inv = 1.0 / y
        out = inv
        for _ in range(q - 1):
            out = out * inv
        acc.add(complex(np.sum(out)))
    return acc.value


@lru_cache(maxsize=512)
def _cube_log(a0: complex, w: tuple[complex, ...], M: int, homog: bool) -> complex:
    acc = CompensatedSum()
    for y in _cube_chunks(a0, w, M, homog):
        acc.add(complex(np.sum(np.log(y))))
    return acc.value


# ---------------------------------------------------------------------------
# Edge terms


def _edge(q: int, a: complex, w: tuple[complex, ...], M: int, dS, homog: bool) -> complex:
    """Edge terms at x = M*w of the finite part at q, or of the derivative at
    zero for q = 0: sum_m s dS_m / (m! e!) F[t^e log t], e = d - q - m, with
    s = (-1)^q/(q-1)! (1 for the derivative).  The homogeneous forms scale
    F[...](0|w) by M^e and add the log M term of the origin."""
    d = len(w)
    qf = factorial(q - 1) if q else 1
    s = (-1.0) ** q / qf
    mw = tuple(M * wi for wi in w)
    acc = CompensatedSum()
    if q == 0:
        if homog:
            acc.add(float(M) ** d * (math.log(M) - harmonic_float(d)))
        else:
            acc.add(-harmonic_float(d) * float(M) ** d)
    for m in range(d - q + 1):
        e = d - q - m

        def f(t, e=e):
            return t**e * cmath.log(t)

        term = s * dS[m] / (factorial(m) * factorial(e))
        acc.add(term * f_symbol(f, 0.0, w) * float(M) ** e if homog
                else term * f_symbol(f, a, mw))
    if homog:
        acc.add(dS[d - q] * (-1.0) ** (d + q + 1) / (qf * factorial(d - q)) * math.log(M))
    return acc.value


# ---------------------------------------------------------------------------
# Shared assembly


def _run_limit(brackets, const: complex, cfg: EvalConfig, Ms: tuple[int, ...],
               d: int) -> EvalResult:
    approx = tuple(b + const for b in brackets)
    value, est = neville_in_reciprocal(Ms, approx)
    # Attainable accuracy shrinks with the rescaled d >= 3 schedules; 1e-5 is
    # the documented cancellation budget for d <= 2 at M = 4000.
    floor = 1e-5 if d <= 2 else 1e-3
    tol = 10.0 * max(cfg.rel_tol, floor) * (1.0 + abs(value))
    diag = {"M_values": list(Ms), "raw_values": [[v.real, v.imag] for v in approx],
            "extrapolated": [value.real, value.imag], "est_error": est}
    if est > tol:
        raise ConvergenceError(
            f"limit extrapolants disagree by {est:.3e} (allowed {tol:.3e})",
            diagnostics=diag,
        )
    diag["monotone"] = _is_monotone(approx)
    return EvalResult(value, est, Method.LIMIT, diag)


def fp_barnes_limit(q: int, p: BarnesParams, *, config: EvalConfig | None = None) -> EvalResult:
    """Finite part at alpha = q by edge terms at M*w plus a cube sum."""
    cfg = config or DEFAULT_CONFIG
    validate_params(p)
    d = p.d
    if not 1 <= q <= d:
        raise DomainError(f"finite parts exist for q = 1..{d}, got {q}")
    Ms = _effective_schedule(cfg, d)
    dS = ds_values(p.w, d + 1)
    brackets = [
        _edge(q, p.a, p.w, M, dS, False) + _cube_pow(p.a, p.w, M, q, False) for M in Ms
    ]
    s1 = (-1.0) ** (d - q + 1) / factorial(q - 1)
    const = CompensatedSum()
    for m in range(d - q + 1):
        const.add(s1 * dS[m] * p.a ** (d - q - m) / (factorial(m) * factorial(d - q - m))
                  * (harmonic_float(q - 1) - harmonic_float(d - q - m)))
    return _run_limit(brackets, const.value, cfg, Ms, d)


def deriv0_barnes_limit(p: BarnesParams, *, config: EvalConfig | None = None) -> EvalResult:
    """Derivative at zero by edge terms at M*w plus a cube log sum."""
    cfg = config or DEFAULT_CONFIG
    validate_params(p)
    d = p.d
    Ms = _effective_schedule(cfg, d)
    dS = ds_values(p.w, d + 1)
    brackets = [
        _edge(0, p.a, p.w, M, dS, False) - _cube_log(p.a, p.w, M, False) for M in Ms
    ]
    sign_d = -1.0 if d % 2 else 1.0
    const = CompensatedSum()
    for m in range(d + 1):
        const.add(sign_d * dS[m] * harmonic_float(d - m) * p.a ** (d - m)
                  / (factorial(m) * factorial(d - m)))
    return _run_limit(brackets, const.value, cfg, Ms, d)


def fp_bh_limit(q: int, w: Sequence[complex], *, config: EvalConfig | None = None) -> EvalResult:
    """Homogeneous finite part at alpha = q in limit form (origin excluded)."""
    cfg = config or DEFAULT_CONFIG
    wt = validate_weights(w)
    d = len(wt)
    if not 1 <= q <= d:
        raise DomainError(f"finite parts exist for q = 1..{d}, got {q}")
    Ms = _effective_schedule(cfg, d)
    dS = ds_values(wt, d + 1)
    brackets = [
        _edge(q, 0j, wt, M, dS, True) + _cube_pow(0j, wt, M, q, True) for M in Ms
    ]
    const = (dS[d - q] * (-1.0) ** (d + q + 1) / (factorial(q - 1) * factorial(d - q))
             * harmonic_float(q - 1))
    return _run_limit(brackets, const, cfg, Ms, d)


def deriv0_bh_limit(w: Sequence[complex], *, config: EvalConfig | None = None) -> EvalResult:
    """Homogeneous derivative at zero in limit form (origin excluded)."""
    cfg = config or DEFAULT_CONFIG
    wt = validate_weights(w)
    d = len(wt)
    Ms = _effective_schedule(cfg, d)
    dS = ds_values(wt, d + 1)
    brackets = [
        _edge(0, 0j, wt, M, dS, True) - _cube_log(0j, wt, M, True) for M in Ms
    ]
    return _run_limit(brackets, 0.0, cfg, Ms, d)
