"""Reference forms that only the tests call: each is an independent route to a
value that the package computes another way, kept here as the thing its
test compares against.

* `bernoullian_dS` differentiates B_(m+d-1)(a|w) d - 1 times at a = 0, from
  the exact coefficients of `bernoulli_poly_exact`;
  `bernoullian_dS_closed` is the closed form B_m(w)/(m! prod(w_i)) of
  `bernoulli.bernoulli_taylor_over_prod` that it must collapse to.
* `f_symbol` is the alternating sum over nonempty subsets, the value of
  `combinatorics.f_symbol_sum` from an enumeration of its own, and
  `g_symbol` the G symbol, the d-fold forward difference, whose identities
  the tests check.
* `bernoulli_poly_exact` is B_n(a|w) as an exact rational for rational a
  and w, from its generating function with a Bernoulli recurrence of its
  own.
* `DimensionError` is what `d2_fast_path` raises off d = 2.
* `d2_fast_path` holds the explicit d = 2 limit formulas, a cross-check of
  the generic limit route on the same cached cube sums.
* `bracket_sum` is the lattice bracket [u(n)]_v, and `cube_bracket_sum`
  both sides of the telescoping identity: the explicit sum of [u(n)]_1 over
  {0..M}^d, point by point from `cube_indices`, and its closed form, one
  bracket at the far corner; `BudgetError` is what it raises when the
  explicit side would exceed its budget.
* `digamma_ref` is the digamma function by shifted Euler-Maclaurin, and
  `log_gamma_rep_checks` three more routes to log Gamma(a) (a Stirling-type
  lattice series, a limit in 1/M and a Hurwitz-zeta series), next to the
  package's `oracles.log_gamma_ref`.
* `neville_in_reciprocal` extrapolates in 1/M to 0 with the gap between the
  last two diagonal entries of `combinatorics.neville_diagonal` as its
  estimate, for the limit form of log Gamma.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from barneszeta.bernoulli import bernoulli_taylor_over_prod, classical_bernoulli
from barneszeta.combinatorics import MAX_DIM, CompensatedSum, neville_diagonal
from barneszeta.foundations import (
    DEFAULT_CONFIG,
    BarnesParams,
    BarnesZetaError,
    ConvergenceError,
    DomainError,
    EvalConfig,
    EvalResult,
    as_weights,
    validate_params,
)
from barneszeta.limit_rep import _cube_log, _cube_pow, _rungs_kept, _run_limit
from barneszeta.oracles import (
    _BERNOULLI_TERMS,
    _SHIFT_N,
    LOG_2PI,
    hurwitz_zeta,
    log_gamma_ref,
)


def bernoullian_dS(m: int, w: Iterable[complex]) -> complex:
    """The d-th derivative at zero of the m-th Bernoullian function, over m!.

    The Bernoullian functions S are pinned down by S'(a) being a known
    multiple of B_{m+d-1}(a|w); differentiating that relation d-1 more
    times in a (term by term on the polynomial coefficients, using
    d/da B_n = n B_{n-1}) and evaluating at a = 0 yields this value.
    The coefficients are the exact rationals of `bernoulli_poly_exact`, so
    this path does not read the engine it checks; the weights must be real.
    It collapses algebraically to B_m(w)/(m! prod(w_i)), the value
    bernoulli_taylor_over_prod returns; this path is the reference the test
    suite checks that against.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    if any(x.imag for x in as_weights(w)):
        raise DomainError("the exact reference takes real weights")
    wt = [Fraction(x.real) for x in as_weights(w)]
    d = len(wt)
    n = m + d - 1
    # B_n(a|w) in powers of a
    coeffs = [comb(n, l) * bernoulli_poly_exact(n - l, 0, wt) for l in range(n + 1)]
    for _ in range(d - 1):
        coeffs = [l * c for l, c in enumerate(coeffs)][1:]
    value_at_0 = coeffs[0] if coeffs else Fraction(0)
    return complex(value_at_0 / factorial(n) / math.prod(wt))


def bernoullian_dS_closed(m: int, w: Iterable[complex]) -> complex:
    """Closed form B_m(w)/(m! prod(w_i)) that bernoullian_dS must collapse to."""
    return bernoulli_taylor_over_prod(w, m)[m]


def bernoulli_poly_exact(n: int, a, w: Sequence) -> Fraction:
    """B_n(a|w), the coefficient of z^n/n! in z^d e^(az) prod_i w_i/(e^(w_i z) - 1),
    as the Cauchy product of e^(az) and the d series sum_k B_k w_i^k z^k/k!."""
    bern = [Fraction(1)]
    for m in range(1, n + 1):
        bern.append(-sum(comb(m + 1, r) * bern[r] for r in range(m)) / (m + 1))
    series = [Fraction(a) ** k / factorial(k) for k in range(n + 1)]
    for wi in w:
        row = [bern[k] * Fraction(wi) ** k / factorial(k) for k in range(n + 1)]
        series = [sum(series[i] * row[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return series[n] * factorial(n)


class DimensionError(BarnesZetaError, ValueError):
    """Operation restricted to a specific dimension was called outside it."""


class BudgetError(BarnesZetaError, RuntimeError):
    """The explicit side of a cube bracket sum would exceed its budget."""


def _subsets(d: int) -> Iterator[tuple[int, ...]]:
    """Index lists of the subsets of {0..d-1}, by size, then lexicographically."""
    if d < 1 or d > MAX_DIM:
        raise DomainError(f"dimension must be in 1..{MAX_DIM}")
    for size in range(d + 1):
        yield from combinations(range(d), size)


def f_symbol(f: Callable[[complex], complex], a: complex, w: Iterable[complex]) -> complex:
    """Alternating subset sum F[f(a+x)]_{x=w} over nonempty subsets.

    sum over nonempty S of (-1)^{d-|S|} f(a + sum_{i in S} w_i), evaluated
    in subset-size-then-lexicographic order with compensated accumulation.
    """
    wt = as_weights(w)
    a = complex(a)
    d = len(wt)
    acc = CompensatedSum()
    for idx in _subsets(d):
        if idx:
            acc.add((-1.0) ** (d - len(idx)) * complex(f(a + sum(wt[i] for i in idx))))
    return acc.value


def g_symbol(f: Callable[[complex], complex], a: complex, w: Iterable[complex]) -> complex:
    """G[f(a+x)]_{x=w} = (-1)^d f(a) + F[f(a+x)]_{x=w}.

    Equals the d-fold forward difference of f with steps w_1..w_d at a, so
    G of any polynomial of degree < d vanishes and G[(c+x)^d] = d! prod(w_i).
    """
    wt = as_weights(w)
    a = complex(a)
    acc = CompensatedSum()
    acc.add((-1.0 if len(wt) % 2 else 1.0) * complex(f(a)))
    acc.add(f_symbol(f, a, wt))
    return acc.value


class FastPathKind(str, Enum):
    FP1 = "fp1"
    FP2 = "fp2"
    DERIV0 = "deriv0"


def d2_fast_path(kind: FastPathKind | str, p: BarnesParams) -> EvalResult:
    """Specialized two-dimensional limit formulas (must match the generic ops).

    The cube sums are shared (cached) with the generic operations, on the
    route's own rungs, so the two differ only in their edge-term algebra.
    """
    validate_params(p)
    if p.d != 2:
        raise DimensionError(f"fast path is d = 2 only, got d = {p.d}")
    kind = FastPathKind(kind)
    a = p.a
    w1, w2 = p.w
    Ms = _rungs_kept(2)
    lsum = cmath.log(w1 + w2)
    l1 = lsum - cmath.log(w1)   # log((w1+w2)/w1)
    l2 = lsum - cmath.log(w2)
    lprod = lsum - cmath.log(w1) - cmath.log(w2)   # log((w1+w2)/(w1*w2))
    # each rung: (M, edge terms, cube sum and its summed term size), the
    # edge terms counted by their own sizes
    if kind is FastPathKind.FP2:
        rungs = [(M, [-math.log(M) / (w1 * w2)], c, m)
                 for M, c, m in _cube_pow(a, p.w, Ms, 2, False)]
        const = (-1 + lprod) / (w1 * w2)
    elif kind is FastPathKind.FP1:
        slope = l1 / w2 + l2 / w1
        coef = ((w1 + w2) / 2 - a) / (w1 * w2)
        rungs = [(M, [-slope * M, -coef * math.log(M)], c, m)
                 for M, c, m in _cube_pow(a, p.w, Ms, 1, False)]
        const = coef * lprod
    else:
        quad = a * a - (w1 + w2) * a + ((w1 + w2) ** 2 + w1 * w2) / 6
        c2 = w1 / (2 * w2) * l1 + w2 / (2 * w1) * l2 + lsum - 1.5
        c1 = (2 * a - w1 - w2) / (2 * w2) * l1 + (2 * a - w1 - w2) / (2 * w1) * l2
        c0 = quad / (2 * w1 * w2)
        rungs = [(M, [(M * M) * math.log(M), c2 * (M * M), c1 * M, -c0 * math.log(M)], -c, m)
                 for M, c, m in _cube_log(a, p.w, Ms, False)]
        const = c0 * lprod
    return _run_limit([(M, sum(edge) + c, sum(map(abs, edge)) + m) for M, edge, c, m in rungs],
                      const, DEFAULT_CONFIG.rel_tol, 2)


def _masked(n: Sequence[int], v: Sequence[int], idx: tuple[int, ...]) -> tuple[int, ...]:
    out = list(n)
    for i in idx:
        out[i] += v[i]
    return tuple(out)


def bracket_sum(
    u: Callable[[tuple[int, ...]], complex],
    n: Sequence[int],
    v: Sequence[int],
) -> complex:
    """Lattice bracket [u(n)]_v: alternating sum over masked additions of v.

    [u(n)]_v = sum over all S of (-1)^{d-|S|} u(n + v restricted to S).
    """
    n = tuple(int(x) for x in n)
    v = tuple(int(x) for x in v)
    if len(n) != len(v):
        raise DomainError("n and v must have the same length")
    d = len(n)
    acc = CompensatedSum()
    for idx in _subsets(d):
        acc.add((-1.0) ** (d - len(idx)) * complex(u(_masked(n, v, idx))))
    return acc.value


def shell_indices(k: int, d: int) -> Iterator[tuple[int, ...]]:
    """Lattice points with max coordinate exactly k, lexicographic order."""
    if k < 0:
        raise DomainError("shell index must be >= 0")
    if k == 0:
        yield (0,) * d
        return
    for point in product(range(k + 1), repeat=d):
        if max(point) == k:
            yield point


def cube_indices(M: int, d: int, exclude_origin: bool = False) -> Iterator[tuple[int, ...]]:
    """All points of {0..M}^d, grouped in hypercubic shells S_0, S_1, ...

    Within each shell the order is lexicographic, so iteration is fully
    deterministic.  With exclude_origin the single point of S_0 is skipped.
    """
    if M < 0:
        raise DomainError("M must be >= 0")
    if d < 1 or d > MAX_DIM:
        raise DomainError(f"dimension must be in 1..{MAX_DIM}")
    for k in range(M + 1):
        if k == 0 and exclude_origin:
            continue
        yield from shell_indices(k, d)


@dataclass(frozen=True)
class CubeBracketSum:
    """Both sides of the telescoping identity; `value` is the closed side."""

    rhs: complex
    lhs: complex | None

    @property
    def value(self) -> complex:
        return self.rhs


def cube_bracket_sum(
    u: Callable[[tuple[int, ...]], complex],
    M: int,
    d: int,
    explicit: bool = True,
    budget: int = 2_000_000,
) -> CubeBracketSum:
    """sum_{n in C_M} [u(n)]_1 together with its closed form [u(0)]_{(M+1)1}.

    The left side is the explicit telescoping sum over (M+1)^d lattice
    points (kept for testing); the right side is a single bracket at the
    far corner.  BudgetError if the explicit side would exceed `budget`.
    Neighbouring brackets share corners, so the explicit side evaluates u
    once per point of {0..M+1}^d.
    """
    if M < 0:
        raise DomainError("M must be >= 0")
    ones = (1,) * d
    rhs = bracket_sum(u, (0,) * d, ((M + 1),) * d)
    lhs: complex | None = None
    if explicit:
        npoints = (M + 1) ** d
        if npoints > budget:
            raise BudgetError(
                f"explicit cube sum needs {npoints} points, budget is {budget}"
            )
        seen: dict[tuple[int, ...], complex] = {}

        def u_once(n):
            if n not in seen:
                seen[n] = u(n)
            return seen[n]

        acc = CompensatedSum()
        for point in cube_indices(M, d):
            acc.add(bracket_sum(u_once, point, ones))
        lhs = acc.value
    return CubeBracketSum(rhs=rhs, lhs=lhs)


def digamma_ref(a: complex) -> complex:
    """Digamma by the shifted Euler-Maclaurin expansion (reference only)."""
    a = complex(a)
    if not a.real > 0:
        raise DomainError("digamma_ref requires Re(a) > 0")
    N, J = _SHIFT_N, _BERNOULLI_TERMS
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


def neville_in_reciprocal(Ms: Sequence[int], vals: Sequence[complex]) -> tuple[complex, float]:
    """Extrapolate vals(1/M) to 1/M = 0 with a Neville tableau.

    Returns the extrapolant and the gap between the last two diagonal
    entries (inf for a single value) as its error estimate.
    """
    diag, _ = neville_diagonal(Ms, vals)
    return diag[-1], abs(diag[-1] - diag[-2]) if len(diag) >= 2 else float("inf")


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
