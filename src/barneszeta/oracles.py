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
from typing import Sequence

import numpy as np

from .bernoulli import classical_bernoulli
from .combinatorics import CompensatedSum, walk_shells
from .foundations import (
    ConvergenceError,
    DomainError,
    EvalResult,
    PoleError,
    REL_TOL,
    check_pole,
    check_tol,
    lattice,
    narrow,
)

TWO_PI = 2.0 * math.pi
LOG_2PI = math.log(TWO_PI)


_SHIFT_N = 20
_BERNOULLI_TERMS = 12


def _euler_maclaurin(s: complex, a: complex, N: int) -> tuple[complex, complex]:
    """Hurwitz zeta and its s-derivative from one Euler-Maclaurin sum: the
    head sum of N terms, the integral term and _BERNOULLI_TERMS even-index
    corrections, each differentiated termwise; the correction j carries the
    Pochhammer symbol (s)_(2j-1), whose derivative follows by the product rule."""
    s = complex(s)
    a = complex(a)
    if not a.real > 0:
        raise DomainError("the Hurwitz zeta requires Re(a) > 0")
    if s == 1:
        raise PoleError("hurwitz zeta has its pole at s = 1", q=1)
    zeta, dzeta = CompensatedSum(), CompensatedSum()
    for n in range(N):
        y = a + n
        p = y ** (-s)
        zeta.add(p)
        dzeta.add(-cmath.log(y) * p)
    x = a + N
    lx = cmath.log(x)
    p = x ** (1 - s)
    zeta.add(p / (s - 1))
    dzeta.add(-lx * p / (s - 1) - p / (s - 1) / (s - 1))
    p = x ** (-s)
    zeta.add(0.5 * p)
    dzeta.add(-0.5 * lx * p)
    bern = classical_bernoulli(2 * _BERNOULLI_TERMS)
    poch, dpoch = complex(1.0), complex(0.0)
    for j in range(1, _BERNOULLI_TERMS + 1):
        for i in range(max(0, 2 * j - 3), 2 * j - 1):
            poch, dpoch = poch * (s + i), dpoch * (s + i) + poch
        coeff = float(bern[2 * j]) / math.factorial(2 * j)
        p = x ** (-s - 2 * j + 1)
        zeta.add(coeff * poch * p)
        dzeta.add(coeff * (dpoch - poch * lx) * p)
    return zeta.value, dzeta.value


def hurwitz_zeta(s: complex, a: complex) -> complex:
    """Hurwitz zeta by Euler-Maclaurin with a head sum of _SHIFT_N terms."""
    return _euler_maclaurin(s, a, _SHIFT_N)[0]


def hurwitz_zeta_ds(s: complex, a: complex) -> complex:
    """d/ds of hurwitz_zeta, differentiating the Euler-Maclaurin formula termwise."""
    return _euler_maclaurin(s, a, _SHIFT_N)[1]


def log_gamma_ref(a: complex) -> complex:
    """log Gamma(a) from the s-derivative of Hurwitz zeta at s = 0."""
    a = complex(a)
    if not a.real > 0:
        raise DomainError("log_gamma_ref requires Re(a) > 0")
    return hurwitz_zeta_ds(0.0, a) + 0.5 * LOG_2PI


_DIRECT_WORST_REL = 1e-2


@np.errstate(over="ignore", invalid="ignore")
def direct_sum(alpha: complex, params, *, rel_tol: float = REL_TOL) -> EvalResult:
    """Brute-force lattice sum sum_n (a + n.w)^(-alpha) over `walk_shells`;
    the origin is left out when params are the weights of the homogeneous function.

    Requires Re(alpha) > d + 0.5 for a practical tail; stops once the
    rigorous integral tail bound drops below rel_tol of the partial sum, or
    where the walk ends first, with that bound if it is within
    _DIRECT_WORST_REL of the sum.  A power past the largest double ends the
    walk at once: a non-finite sum stays so, and EvalResult refuses it.
    """
    check_tol(rel_tol)
    a, w, homog = lattice(params)
    alpha = complex(alpha)
    d = len(w)
    check_pole(alpha, d, homog)
    if alpha.real <= d + 0.5:
        raise ConvergenceError(
            f"direct summation needs Re(alpha) > d + 0.5 = {d + 0.5}, got {alpha.real}"
        )
    wmin = min(wi.real for wi in w)
    a_re = max(complex(a).real, 0.0)
    # |y^-alpha| = |y|^-Re(alpha) e^(Im(alpha) arg y), and arg y lies in the
    # cone of the args of a (inhomogeneous) and of the w_i.
    cone = math.exp(max(0.0, *(alpha.imag * cmath.phase(z) for z in (w if homog else (a, *w)))))
    acc = CompensatedSum()
    k, points, bound = -1, 0, math.inf

    def diag(k: int, points: int) -> dict:
        return {"shells": k + 1, "points": points, "tail_bound": bound}

    for k, y, points in walk_shells(a, w, homog, diag):
        if y.size:
            acc.add(complex(np.sum(y ** -narrow(alpha))))
        # Tail bound:  sum_{j>k} (count of S_j) * (min |y| on S_j)^(-Re alpha)
        # with count <= d*(j+1)^(d-1) and |y| >= a_re + j*wmin, compared
        # against the integral of the continuous envelope, times `cone`.
        u_k = a_re + (k + 1) * wmin
        kappa = 1.0 / wmin + 2.0 / u_k
        bound = cone * d * kappa ** (d - 1) * u_k ** (d - alpha.real) / ((alpha.real - d) * wmin)
        if (not cmath.isfinite(acc.value)
                or k >= 1 and bound <= rel_tol * max(abs(acc.value), 1e-300)):
            return EvalResult(acc.value, bound, "direct", diag(k, points))
    # The walk met its point budget: near the abscissa rel_tol may be out of reach.
    if bound > _DIRECT_WORST_REL * max(abs(acc.value), 1e-300):
        raise ConvergenceError(f"tail bound {bound:.3e} still too large at the point budget",
                               diagnostics=diag(k, points))
    return EvalResult(acc.value, bound, "direct", diag(k, points))


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


def _reduce(alpha: complex, a: complex, w: tuple[complex, ...]) -> complex:
    """zeta(alpha, a | w) by its exact reduction: isotropic_reduction for equal
    weights, rational_d2_reduction for d = 2 with w = (1, n)."""
    d = len(w)
    if all(wi == w[0] for wi in w):
        return isotropic_reduction(alpha, a, w[0], d)
    if d == 2 and w[0] == 1 and w[1].imag == 0 and float(w[1].real).is_integer() and w[1].real >= 1:
        return rational_d2_reduction(alpha, a, int(w[1].real))
    raise DomainError("reduction method needs equal weights or d = 2 with w = (1, n), "
                      "n a positive integer")


def reduction(alpha: complex, params, *, rel_tol: float = REL_TOL) -> EvalResult:
    """The lattice zeta by exact reductions to Hurwitz zetas; the homogeneous
    one, its points split by their first nonzero coordinate, as the sum of
    zeta(alpha, w_i | w_i, ..., w_d), i = 1..d.  `rel_tol` is accepted so that
    every route shares one signature; the reductions have no tolerance.  A
    value past the largest double raises ConvergenceError."""
    a, w, homog = lattice(params)
    d = len(w)
    check_pole(complex(alpha), d, homog)
    try:
        value = sum(_reduce(alpha, w[i], w[i:]) for i in range(d)) if homog else _reduce(alpha, a, w)
        return EvalResult(value, 1e-13 * (1 + abs(value)), "reduction", {})
    except OverflowError:       # a Hurwitz term past the largest double
        raise ConvergenceError(f"the reduction at alpha = {alpha} overflows a double") from None
