"""Limit (M -> infinity) representations of the finite parts and of the
derivative at zero, for the inhomogeneous and the homogeneous function.

Each quantity is written as  lim_M [ edge terms at x = M*w + cube sum over
{0..M-1}^d ] + closed constant.  The finite part at q and the derivative
at zero are one form, q = 0 being the derivative: the edge terms read the
pole row of `pole_coeffs`, and the closed constant is `pole_term` without
its log a part, which the edge terms carry.  The bracket is evaluated on a
short geometric ladder of M and extrapolated to 1/M -> 0 with a Neville
tableau.
The cube {0..M-1}^d is the shells S_0..S_{M-1}, so one walk of the shells
up to the largest M gives the cube sum at every rung as a running sum.

Of its ladder _SCHEDULE the route keeps the _RUNGS largest rungs whose
cube holds at most _CUBE_POINTS points: M = 64..256 at d <= 2, 24..96 at
d = 3, 8..32 at d = 4, 4..16 at d = 5, and none from d = 11 on.
Smaller rungs are further from the asymptotic regime and spoil the tableau
on anisotropic weights.  The bracket holds terms of size M^d log M that cancel to an O(1)
result, so each rung carries a rounding error of about eps times its summed
term size, which the tableau amplifies by at most the Lebesgue constant of
its nodes 1/M.  The reported est_error is the larger of the last two gaps
along the tableau's diagonal, built from the largest M down, plus that
rounding term.

Cube sums are cached by (a, w, rungs), so two routes comparing the same
parameters share bit-identical lattice contributions and differ only in
their edge-term algebra.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .bernoulli import bernoulli_taylor_over_prod, pole_coeffs, pole_term
from .combinatorics import CompensatedSum, f_symbol_sum, neville_diagonal, shell_values
from .foundations import (
    ConvergenceError,
    DEFAULT_CONFIG,
    EPS,
    EvalConfig,
    EvalResult,
    check_order,
    harmonic_float,
    lattice,
    narrow_weights,
)

_SCHEDULE = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)   # the ladder of M
_CUBE_POINTS = 2 ** 20   # largest cube {0..M-1}^d a rung may hold
_RUNGS = 5               # rungs kept: the largest that fit


def _rungs_kept(d: int) -> tuple[int, ...]:
    """The last _RUNGS entries of _SCHEDULE whose cube fits in _CUBE_POINTS."""
    Ms = tuple(M for M in _SCHEDULE if M ** d <= _CUBE_POINTS)[-_RUNGS:]
    if not Ms:
        raise ConvergenceError(f"no M of the limit schedule has a cube of at most "
                               f"{_CUBE_POINTS} points at d = {d}")
    return Ms


# ---------------------------------------------------------------------------
# Cached cube reductions


def _cube_chunks(a0: complex, w: tuple[complex, ...], M: int, homog: bool):
    """Yield the values a0 + n.w on the shells S_0..S_{M-1} of {0..M-1}^d,
    one array per shell; the homogeneous S_0 is empty (origin dropped)."""
    weights = narrow_weights(w)
    for k in range(M):
        yield shell_values(a0, weights, k, skip_origin=homog)


def _prefix_sums(a0: complex, w: tuple[complex, ...], Ms: tuple[int, ...], homog: bool,
                 term: Callable[[np.ndarray], np.ndarray]) -> tuple[tuple[int, complex, float], ...]:
    """(M, sum, summed term size) of term(a0 + n.w) over {0..M-1}^d for each
    rung M of the increasing Ms, from one walk of the shells up to the largest."""
    acc, mass, out = CompensatedSum(), 0.0, []
    for k, y in enumerate(_cube_chunks(a0, w, Ms[-1], homog)):
        t = term(y)
        acc.add(complex(np.sum(t)))
        mass += float(np.sum(np.abs(t)))
        if k + 1 in Ms:
            out.append((k + 1, acc.value, mass))
    return tuple(out)


@lru_cache(maxsize=512)
def _cube_pow(a0: complex, w: tuple[complex, ...], Ms: tuple[int, ...], q: int,
              homog: bool) -> tuple[tuple[int, complex, float], ...]:
    return _prefix_sums(a0, w, Ms, homog, lambda y: y ** -q)


@lru_cache(maxsize=512)
def _cube_log(a0: complex, w: tuple[complex, ...], Ms: tuple[int, ...],
              homog: bool) -> tuple[tuple[int, complex, float], ...]:
    return _prefix_sums(a0, w, Ms, homog, np.log)


# ---------------------------------------------------------------------------
# Edge terms


def _log_power(e: int) -> Callable[[complex], complex]:
    """t -> t^e log t, the function of the edge terms' F symbols."""
    return lambda t: t**e * cmath.log(t)


def _edge(q: int, a: complex, w: tuple[complex, ...], M: int, row: Sequence[complex],
          symbols: Sequence[CompensatedSum] | None) -> tuple[complex, float]:
    """Edge terms at x = M*w of the finite part at q, or of the derivative at
    zero for q = 0: sum_m c_m F[t^e log t], e = d - q - m, over the row c_m
    of `pole_coeffs`.  The homogeneous forms pass the symbols F[t^e log t](0|w),
    which do not depend on M, scale them by M^e and add the log M term of
    the origin, (-1)^(d+1) c_(d-q) log M; the inhomogeneous forms pass None.
    Returns the sum and its summed term size, each F symbol counted by its
    own terms."""
    d = len(w)
    homog = symbols is not None
    mw = tuple(M * wi for wi in w)
    terms = []   # (value, summed term size)
    if q == 0:
        lead = float(M) ** d * ((math.log(M) if homog else 0.0) - harmonic_float(d))
        terms.append((lead, abs(lead)))
    for m, c in enumerate(row):
        e = d - q - m
        scale = c * (float(M) ** e if homog else 1.0)
        F = symbols[m] if homog else f_symbol_sum(_log_power(e), a, mw)
        terms.append((scale * F.value, abs(scale) * F.mass))
    if homog:
        tail = (1.0 if d % 2 else -1.0) * row[-1] * math.log(M)
        terms.append((tail, abs(tail)))
    acc = CompensatedSum()
    for value, _ in terms:
        acc.add(value)
    return acc.value, sum(size for _, size in terms)


def _rungs(q: int, a: complex, w: tuple[complex, ...], row: Sequence[complex],
           homog: bool) -> list[tuple[int, complex, float]]:
    """(M, bracket, summed term size) of each rung: the edge terms at M*w
    plus the cube sum of (a + n.w)^-q, or minus the cube log sum for q = 0.
    The caller's `pole_coeffs` row and the homogeneous F symbols, built once,
    serve every rung."""
    d = len(w)
    if q:
        cube, sign = _cube_pow(a, w, _rungs_kept(d), q, homog), 1.0
    else:
        cube, sign = _cube_log(a, w, _rungs_kept(d), homog), -1.0
    symbols = ([f_symbol_sum(_log_power(d - q - m), 0.0, w) for m in range(len(row))]
               if homog else None)
    out = []
    for M, c, c_mass in cube:
        e, e_mass = _edge(q, a, w, M, row, symbols)
        out.append((M, e + sign * c, e_mass + c_mass))
    return out


# ---------------------------------------------------------------------------
# Shared assembly


def _run_limit(rungs: Sequence[tuple[int, complex, float]], const: complex, rel_tol: float,
               d: int) -> EvalResult:
    Ms = [M for M, _, _ in rungs]
    approx = [b + const for _, b, _ in rungs]
    # from the largest M down: entry j extrapolates through the j + 1 largest
    tableau, lebesgue = neville_diagonal(Ms[::-1], approx[::-1])
    value = tableau[-1]
    gaps = [abs(tableau[j] - tableau[j - 1]) for j in range(max(1, len(tableau) - 2), len(tableau))]
    rounding = EPS * max(m for _, _, m in rungs) * lebesgue
    est = max(gaps, default=math.inf) + rounding
    # Raise above 10x a floor of 1e-5 relative for d <= 2, and of 1e-3 from
    # d = 3 on, where the cubes that fit are smaller and the rungs less
    # asymptotic.
    floor = 1e-5 if d <= 2 else 1e-3
    tol = 10.0 * max(rel_tol, floor) * (1.0 + abs(value))
    diag = {"M_values": Ms, "raw_values": [[v.real, v.imag] for v in approx],
            "extrapolated": [value.real, value.imag], "est_error": est}
    if est > tol:
        raise ConvergenceError(
            f"limit extrapolants disagree by {est:.3e} (allowed {tol:.3e})",
            diagnostics=diag,
        )
    return EvalResult(value, est, "limit", diag)


def _pole_limit(q: int, a: complex, w: tuple[complex, ...], homog: bool,
                cfg: EvalConfig) -> EvalResult:
    """The finite part at alpha = q, or the derivative at zero for q = 0: the
    extrapolated rungs plus the closed `pole_term` without its log a part,
    which the edge terms carry."""
    d = len(w)
    row = pole_coeffs(q, d, bernoulli_taylor_over_prod(w, d))
    const = pole_term(q, a, row, log=False).value
    return _run_limit(_rungs(q, a, w, row, homog), const, cfg.rel_tol, d)


def fp_limit(q: int, params, *, config: EvalConfig | None = None) -> EvalResult:
    """Finite part at alpha = q by edge terms at M*w plus a cube sum (origin
    excluded for the homogeneous function)."""
    a, w, homog = lattice(params)
    check_order(q, len(w))
    return _pole_limit(q, a, w, homog, config or DEFAULT_CONFIG)


def deriv0_limit(params, *, config: EvalConfig | None = None) -> EvalResult:
    """Derivative at zero by edge terms at M*w plus a cube log sum (origin
    excluded for the homogeneous function)."""
    a, w, homog = lattice(params)
    return _pole_limit(0, a, w, homog, config or DEFAULT_CONFIG)
