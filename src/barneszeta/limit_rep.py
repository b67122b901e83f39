"""Limit (M -> infinity) representations of the finite parts and of the
derivative at zero, for the inhomogeneous and the homogeneous function.

By the telescoping lemma the lattice series is the limit of its partial
sums over the boxes {0..M-1}^d.  At the shift k = 1 - q the series plan of
the finite part at q, or of the derivative at zero for q = 0, has no plain
ladder left, only its pole row, so a rung is the plan's far-corner sum
C(M - 1) at x = M*w, its constant times the box's point count and the cube
sum of (a + n.w)^-q (minus the cube log sum for q = 0), and the closed
term is the plan's own.  The rungs are extrapolated to 1/M -> 0 with a
Neville tableau.
The cube {0..M-1}^d is the shells S_0..S_{M-1}, so one walk of the shells
up to the largest M gives the cube sum at every rung as a running sum.

Of its ladder _SCHEDULE the route keeps the _RUNGS largest rungs whose
cube holds at most _CUBE_POINTS points: M = 64..256 at d <= 2, 24..96 at
d = 3, 8..32 at d = 4, 4..16 at d = 5, and fewer than two from d = 8 on,
where it raises before it walks a cube.
Smaller rungs are further from the asymptotic regime and spoil the tableau
on anisotropic weights.  A rung holds terms of size M^d log M that cancel to an O(1)
result, so each rung carries a rounding error of about eps times its summed
term size, which the tableau amplifies by at most the Lebesgue constant of
its nodes 1/M.  The reported est_error is the larger of the last two gaps
along the tableau's diagonal, built from the largest M down, plus that
rounding term.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .combinatorics import CompensatedSum, neville_diagonal, shell_values
from .foundations import (
    ConvergenceError,
    EPS,
    EvalResult,
    REL_TOL,
    check_order,
    check_tol,
    lattice,
    narrow_weights,
)
from .series_rep import _Plan, _corner_sums, _plan_pole

_SCHEDULE = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)   # the ladder of M
_CUBE_POINTS = 2 ** 20   # largest cube {0..M-1}^d a rung may hold
_RUNGS = 5               # rungs kept: the largest that fit


def _rungs_kept(d: int) -> tuple[int, ...]:
    """The last _RUNGS entries of _SCHEDULE whose cube fits in _CUBE_POINTS."""
    Ms = tuple(M for M in _SCHEDULE if M ** d <= _CUBE_POINTS)[-_RUNGS:]
    if len(Ms) < 2:
        fits = f"only M = {Ms[0]} fits" if Ms else "no M fits"
        raise ConvergenceError(f"the limit needs at least two rungs; {fits} at d = {d}")
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
# Rungs


def _corners(plan: _Plan, q: int, d: int, Ms: np.ndarray,
             homog: bool) -> tuple[np.ndarray, np.ndarray]:
    """C(M - 1) at each M of Ms, and the summed size of its terms.  The
    inhomogeneous sums are the plan's `_corner_sums`, each term c_m z^e log z,
    e = d - q - m, counted at z = a + M sigma_S.  The homogeneous ones are
    split exactly: (M sigma)^e log(M sigma) = M^e sigma^e (log sigma + log M),
    and the signed sums of sigma_S^e over the nonempty subsets are (-1)^(d+1)
    at e = 0, 0 for 0 < e < d and d! prod w = 1/c_0 at e = d, so C(M - 1) =
    sum_m c_m M^e L_m + log M ((-1)^(d+1) c_(d-q) + [q = 0] M^d), with L_m
    the signed sum of sigma_S^e log sigma_S, each term counted by its size.
    A non-finite sum is left to `EvalResult`'s check on the value."""
    c, e = plan.logc, d - q - np.arange(plan.logc.size)
    with np.errstate(over="ignore", invalid="ignore"):
        if not homog:
            z = (plan.a + Ms[:, None] * plan.sigmas).astype(np.complex128)[..., None]
            sizes = (np.abs(z) ** e * np.abs(np.log(z))).sum(axis=1) @ abs(c)
            return _corner_sums(plan, Ms, False), sizes
        t = plan.sigmas[1:, None] ** e * np.log(plan.sigmas[1:, None])
        log_m = np.log(Ms) * ((1.0 if d % 2 else -1.0) * (c[d - q] if c.size > d - q else 0.0)
                              + (0.0 if q else Ms ** d))
        return (Ms[:, None] ** e @ (c * (plan.signs[1:] @ t)) + log_m,
                Ms[:, None] ** e @ (abs(c) * abs(t).sum(axis=0)) + abs(log_m))


def _rungs(q: int, a: complex, w: tuple[complex, ...],
           homog: bool) -> tuple[list[tuple[int, complex, float]], complex]:
    """(M, rung, summed term size) of each rung, and the closed term: the
    series of `_plan_pole` at k = 1 - q, where its plain ladder is empty,
    summed over the box {0..M-1}^d.  A rung is the corner sum C(M - 1), the
    plan's constant times the box's point count, and the cube sum of
    (a + n.w)^-q, or minus the cube log sum for q = 0."""
    d = len(w)
    kept = _rungs_kept(d)
    plan, closed = _plan_pole(q, a, w, 1 - q, homog)
    edges, sizes = _corners(plan, q, d, np.array(kept, float), homog)
    if q:
        cube, sign = _cube_pow(a, w, kept, q, homog), 1.0
    else:
        cube, sign = _cube_log(a, w, kept, homog), -1.0
    const, rungs = complex(plan.const), []
    for (M, c, c_mass), e, s in zip(cube, edges.tolist(), sizes.tolist()):
        n = M ** d - homog      # the box's points, less the homogeneous origin
        rungs.append((M, e + const * n + sign * c, s + abs(const) * n + c_mass))
    return rungs, closed


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
                rel_tol: float) -> EvalResult:
    """The finite part at alpha = q, or the derivative at zero for q = 0: the
    extrapolated rungs plus the closed term of `_plan_pole`."""
    check_tol(rel_tol)
    rungs, closed = _rungs(q, a, w, homog)
    return _run_limit(rungs, closed, rel_tol, len(w))


def fp_limit(q: int, params, *, rel_tol: float = REL_TOL) -> EvalResult:
    """Finite part at alpha = q by the series partial sums at k = 1 - q over
    {0..M-1}^d (origin excluded for the homogeneous function)."""
    a, w, homog = lattice(params)
    check_order(q, len(w))
    return _pole_limit(q, a, w, homog, rel_tol)


def deriv0_limit(params, *, rel_tol: float = REL_TOL) -> EvalResult:
    """Derivative at zero by the series partial sums at k = 1 over
    {0..M-1}^d (origin excluded for the homogeneous function)."""
    a, w, homog = lattice(params)
    return _pole_limit(0, a, w, homog, rel_tol)
