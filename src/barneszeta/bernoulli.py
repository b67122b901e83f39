"""Higher-order Bernoulli numbers B_k(w), polynomials B_n(a|w), and the
derivative values of the associated Bernoullian functions at zero.

Convention: B_n(a|w) is the coefficient of z^n/n! in

    z^d e^{az} prod_i w_i / (e^{w_i z} - 1),    |z| < 2*pi/max|w_i|,

and B_k(w) = B_k(0|w).  (Some references rescale these objects by
prod_i w_i; that convention is *not* used here.)
Tables are numpy convolutions of cached B_n/n! arrays scaled by w_i^n, in
float64 when every w_i (and, for the polynomials, a) is real.  A lattice has
one table: B_n(w) does not depend on the table size, so a request of any
size N <= _TABLE_MIN reads the first N + 1 entries of the same build.

The pole expansion of the lattice zeta at alpha = q, q = 1..d, and at
alpha = 0 (its derivative there, the member q = 0) is one Laurent row c_m
of these numbers (Ruijsenaars, Adv. Math. 156, 2000); `pole_coeffs` and
`pole_term` give it and its closed term, which every route of the finite
parts and of the derivative at zero shares.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .combinatorics import CompensatedSum
from .foundations import ConvergenceError, DomainError, as_weights, harmonic_float, narrow

MAX_TABLE = 170            # 171! no longer fits in a float
# The smallest table built.  It holds the integral brackets' M + 60 terms at
# every subtraction order M <= 6 of the finite parts and the derivative at
# zero, so the series plan, the brackets and the closed terms of one
# Gamma-family call up to d = 6 read one build.
_TABLE_MIN = 66
_CLASSICAL_CAP = 320


_CLASSICAL = [Fraction(1)]     # B_0, B_1, ... as far as any call has needed


@lru_cache(maxsize=None)
def classical_bernoulli(n: int) -> tuple[Fraction, ...]:
    """Classical Bernoulli numbers B_0..B_n (B_1 = -1/2) as exact rationals.

    Uses the defining recurrence sum_{r=0}^{m} C(m+1, r) B_r = 0 for m >= 1,
    which produces the z/(e^z - 1) expansion coefficients directly.  One
    table grows in place, so each B_m is computed once per process, and each
    n returns the same tuple.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n > _CLASSICAL_CAP:
        raise ConvergenceError(f"classical Bernoulli table capped at {_CLASSICAL_CAP}")
    out = _CLASSICAL
    for m in range(len(out), n + 1):
        if m > 2 and m % 2 == 1:
            out.append(Fraction(0))
            continue
        acc = Fraction(0)
        for r in range(m):
            if out[r]:
                acc += comb(m + 1, r) * out[r]
        out.append(-acc / (m + 1))
    return tuple(out[: n + 1])


class BernoulliTable(NamedTuple):
    """The numbers B_0(w)..B_N(w), and B_n(w)/n!, a prefix of the one table
    of the lattice (sorted w); floats when every w_i is real."""

    numbers: tuple[complex, ...]
    scaled: tuple[complex, ...]


@lru_cache(maxsize=None)
def _unit_series(N: int) -> tuple[np.ndarray, np.ndarray]:
    """B_n/n! and n!, n = 0..N, each rounded once from its exact value; the
    same for every lattice."""
    classical = classical_bernoulli(N)
    unit = np.array([float(classical[n] / factorial(n)) for n in range(N + 1)])
    fact = np.array([float(factorial(n)) for n in range(N + 1)])
    unit.flags.writeable = fact.flags.writeable = False
    return unit, fact


@lru_cache(maxsize=512)
def _table_cached(w: tuple[complex, ...], N: int) -> BernoulliTable:
    # Rows w_i z/(e^{w_i z}-1) = sum B_n w_i^n z^n/n!.  A trailing zero keeps the
    # kept entries on the leading ramp of np.convolve, whose summation order
    # depends on n alone, so B_n(w) is the same in every table size N.  Huge
    # weights overflow to inf silently; a route fed such a table raises.
    unit, fact = _unit_series(N)
    wa = np.array([narrow(x) for x in w])
    rows = np.zeros((len(w), N + 2), dtype=wa.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        rows[:, :-1] = unit * wa[:, None] ** np.arange(N + 1)
        scaled = rows[0]
        for row in rows[1:]:
            scaled = np.convolve(scaled, row)[: N + 2]
        scaled = scaled[:-1]
        numbers = scaled * fact
    return BernoulliTable(tuple(numbers.tolist()), tuple(scaled.tolist()))


def bernoulli_numbers(w: Iterable[complex], N: int) -> BernoulliTable:
    """Table of higher-order Bernoulli numbers B_0(w)..B_N(w), one per lattice:
    the weights are sorted first, so every order of them gets the same table,
    and an N below _TABLE_MIN reads the first N + 1 entries of the table of
    size _TABLE_MIN, bit for bit the table of size N.

    Computed as the Cauchy product of the d classical one-weight expansions:
    each is the cached B_n/n! times w_i^n, and the product is d - 1 calls of
    np.convolve, in float64 when every w_i is real."""
    if N < 0:
        raise DomainError("N must be >= 0")
    if N > MAX_TABLE:
        raise ConvergenceError(f"Bernoulli table size capped at N = {MAX_TABLE}")
    table = _table_cached(tuple(sorted(as_weights(w), key=lambda z: (z.real, z.imag))),
                          max(N, _TABLE_MIN))
    if N >= _TABLE_MIN:
        return table
    return BernoulliTable(table.numbers[:N + 1], table.scaled[:N + 1])


def bernoulli_taylor(a: complex, w: Iterable[complex], N: int) -> np.ndarray:
    """B_n(a|w)/n!, n = 0..N: one table of B_n(w)/n! in one convolution with
    the e^{az} coefficients a^l/l!, the Taylor coefficients of the generating
    function; float64 when a and w are real.  At a = 0 the convolution with
    (1, 0, 0, ...) is skipped: the table's row comes back, plus 0.0, which
    turns a -0.0 entry into the 0.0 that the convolution's 0 * B_0 term gives."""
    scaled = bernoulli_numbers(w, N).scaled
    if a == 0:
        return np.array(scaled) + 0.0
    exp_a = narrow(a) ** np.arange(N + 1) / _unit_series(N)[1]
    return np.convolve(exp_a, scaled)[: N + 1]


def bernoulli_poly(n: int, a: complex, w: Iterable[complex]) -> complex:
    """Higher-order Bernoulli polynomial B_n(a|w), degree n in a."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return complex(factorial(n) * bernoulli_taylor(a, w, n)[n])


def ds_values(w: Sequence[complex], count: int) -> list[complex]:
    """Bernoullian derivative values B_m(w)/prod(w_i), m = 0..count-1, from one table."""
    wt = as_weights(w)
    pw = math.prod(wt)
    return [b / pw for b in bernoulli_numbers(wt, count - 1).numbers]


def pole_coeffs(q: int, d: int, dS: Sequence[complex]) -> list[complex]:
    """The row c_m = s dS_m / (m! e!), e = d - q - m, m = 0..d-q, of the pole
    expansion at alpha = q, with s = (-1)^q/(q-1)!; q = 0 is the derivative
    at zero, with s = 1.  dS is the caller's `ds_values` table."""
    s = (-1.0) ** q / factorial(q - 1) if q else 1.0
    return [s * dS[m] / (factorial(m) * factorial(d - q - m)) for m in range(d - q + 1)]


def pole_term(q: int, a: complex, row: Sequence[complex], log: bool = True) -> CompensatedSum:
    """The closed term (-1)^(d+1) sum_m c_m a^e (log a - H_e + H_(q-1)) of
    the finite part at alpha = q, or of the derivative at zero for q = 0
    (with H_(-1) = 0), over the caller's `pole_coeffs` row, d = q + len(row) - 1,
    as an accumulator whose `mass` callers keep for their estimates;
    log=False drops the log a part.  At a = 0 only e = 0 is left: the
    homogeneous constant (-1)^(d+1) c_(d-q) H_(q-1) = -H_(q-1) residue(q, w)."""
    d = q + len(row) - 1
    hq = harmonic_float(q - 1) if q else 0.0
    la = cmath.log(a) if log and a else 0.0
    sign = 1.0 if d % 2 else -1.0
    acc = CompensatedSum()
    for m in range(d - q + 1) if a else (d - q,):
        e = d - q - m
        acc.add(sign * row[m] * a ** e * (la - harmonic_float(e) + hq))
    return acc
