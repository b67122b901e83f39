"""Reference forms that only the tests call: each is an independent route to a
value that the package computes another way, kept here as the thing its
test compares against.

* `bernoullian_dS` differentiates B_(m+d-1)(a|w) d - 1 times at a = 0;
  `bernoullian_dS_closed` is the closed form B_m(w)/prod(w_i) of
  `bernoulli.ds_values` that it must collapse to.
* `g_symbol` is the G symbol, the d-fold forward difference, whose
  identities the tests check against `combinatorics.f_symbol`.
* `d2_fast_path` holds the explicit d = 2 limit formulas, a cross-check of
  the generic limit route on the same cached cube sums.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from math import comb, factorial
from typing import Callable, Iterable

from barneszeta.bernoulli import bernoulli_numbers, ds_values
from barneszeta.combinatorics import CompensatedSum, f_symbol
from barneszeta.foundations import (
    DEFAULT_CONFIG,
    BarnesParams,
    DimensionError,
    DomainError,
    EvalConfig,
    EvalResult,
    EvaluationError,
    as_weights,
    validate_params,
)
from barneszeta.limit_rep import _cube_log, _cube_pow, _effective_schedule, _run_limit


def bernoullian_dS(m: int, w: Iterable[complex]) -> complex:
    """The d-th derivative at zero of the m-th Bernoullian function.

    The Bernoullian functions S are pinned down by S'(a) being a known
    multiple of B_{m+d-1}(a|w); differentiating that relation d-1 more
    times in a (term by term on the polynomial coefficients, using
    d/da B_n = n B_{n-1}) and evaluating at a = 0 yields this value.
    It collapses algebraically to B_m(w)/prod(w_i), the value ds_values
    returns; this path is the reference the test suite checks that against.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    wt = as_weights(w)
    d = len(wt)
    n = m + d - 1
    numbers = bernoulli_numbers(wt, n).numbers
    coeffs = [comb(n, l) * numbers[n - l] for l in range(n + 1)]   # B_n(a|w) in powers of a
    for _ in range(d - 1):
        coeffs = [l * c for l, c in enumerate(coeffs)][1:]
    value_at_0 = coeffs[0] if coeffs else complex(0.0)
    return factorial(m) / factorial(n) / math.prod(wt) * value_at_0


def bernoullian_dS_closed(m: int, w: Iterable[complex]) -> complex:
    """Closed form B_m(w)/prod(w_i) that bernoullian_dS must collapse to."""
    return ds_values(w, m + 1)[m]


def g_symbol(f: Callable[[complex], complex], a: complex, w: Iterable[complex]) -> complex:
    """G[f(a+x)]_{x=w} = (-1)^d f(a) + F[f(a+x)]_{x=w}.

    Equals the d-fold forward difference of f with steps w_1..w_d at a, so
    G of any polynomial of degree < d vanishes and G[(c+x)^d] = d! prod(w_i).
    """
    wt = as_weights(w)
    a = complex(a)
    try:
        empty_val = f(a)
    except Exception as exc:
        raise EvaluationError("function evaluation failed at subset ()", subset=()) from exc
    acc = CompensatedSum()
    acc.add((-1.0 if len(wt) % 2 else 1.0) * complex(empty_val))
    acc.add(f_symbol(f, a, wt))
    return acc.value


class FastPathKind(str, Enum):
    FP1 = "fp1"
    FP2 = "fp2"
    DERIV0 = "deriv0"


def d2_fast_path(kind: FastPathKind | str, p: BarnesParams,
                 config: EvalConfig | None = None) -> EvalResult:
    """Specialized two-dimensional limit formulas (must match the generic ops).

    The cube sums are shared (cached) with the generic operations, so on a
    common M schedule the two routes differ only in their edge-term algebra.
    """
    cfg = config or DEFAULT_CONFIG
    validate_params(p)
    if p.d != 2:
        raise DimensionError(f"fast path is d = 2 only, got d = {p.d}")
    kind = FastPathKind(kind)
    a = p.a
    w1, w2 = p.w
    Ms = _effective_schedule(cfg, 2)
    lsum = cmath.log(w1 + w2)
    l1 = lsum - cmath.log(w1)   # log((w1+w2)/w1)
    l2 = lsum - cmath.log(w2)
    lprod = lsum - cmath.log(w1) - cmath.log(w2)   # log((w1+w2)/(w1*w2))
    if kind is FastPathKind.FP2:
        brackets = [
            -math.log(M) / (w1 * w2) + _cube_pow(a, p.w, M, 2, False) for M in Ms
        ]
        const = (-1 + lprod) / (w1 * w2)
    elif kind is FastPathKind.FP1:
        slope = l1 / w2 + l2 / w1
        coef = ((w1 + w2) / 2 - a) / (w1 * w2)
        brackets = [
            -slope * M - coef * math.log(M) + _cube_pow(a, p.w, M, 1, False) for M in Ms
        ]
        const = coef * lprod
    else:
        quad = a * a - (w1 + w2) * a + ((w1 + w2) ** 2 + w1 * w2) / 6
        c2 = w1 / (2 * w2) * l1 + w2 / (2 * w1) * l2 + lsum - 1.5
        c1 = (2 * a - w1 - w2) / (2 * w2) * l1 + (2 * a - w1 - w2) / (2 * w1) * l2
        c0 = quad / (2 * w1 * w2)
        brackets = [
            (M * M) * math.log(M) + c2 * (M * M) + c1 * M - c0 * math.log(M)
            - _cube_log(a, p.w, M, False)
            for M in Ms
        ]
        const = c0 * lprod
    return _run_limit(brackets, const, cfg, Ms, 2)
