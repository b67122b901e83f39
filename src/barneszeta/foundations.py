"""Shared domain types, parameter validation, and small numeric helpers.

Every error the package raises is a BarnesZetaError: DomainError for a bad
parameter, PoleError at a pole, and ConvergenceError for a valid input a
route cannot reach: a budget or cap (a series, limit, table or cube), a
quadrature rule that does not settle, or a value past the largest double.

Branch convention used throughout the package: every logarithm and power is
taken on the principal branch, arg z in (-pi, pi], with z**s defined as
exp(s*log z) for z != 0.  All parameters live in the right half-plane
(Re(a) > 0, Re(w_i) > 0), so lattice points a + n.w never touch the cut.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

EPS = 2.0 ** -52    # the rounding unit of every estimate: a double's machine epsilon


class BarnesZetaError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BarnesZetaError, ValueError):
    """A parameter violates its half-plane or positivity constraint."""


class PoleError(BarnesZetaError, ArithmeticError):
    """Evaluation requested at a pole of the target function."""

    def __init__(self, message: str, q: int | None = None):
        super().__init__(message)
        self.q = q


class ConvergenceError(BarnesZetaError, ArithmeticError):
    """A series, limit, lattice sum or quadrature failed to converge within
    budget, a route needs a table or cube beyond its cap, or its value is
    past the largest double."""

    def __init__(self, message: str, diagnostics: Mapping | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


def as_weights(w: Iterable[complex]) -> tuple[complex, ...]:
    """Normalize a weight list to a tuple of complex numbers (no validation)."""
    wt = tuple(complex(x) for x in w)
    if not wt:
        raise DomainError("weight list must contain at least one entry")
    return wt


def validate_weights(w: Iterable[complex]) -> tuple[complex, ...]:
    """Normalize and check that every weight is finite with Re(w_i) > 0."""
    wt = as_weights(w)
    for i, wi in enumerate(wt, start=1):
        if not (cmath.isfinite(wi) and wi.real > 0):
            raise DomainError(f"weight w_{i} = {wi} must be finite with Re(w_i) > 0")
    return wt


@dataclass(frozen=True)
class BarnesParams:
    """Parameter tuple (a, w_1..w_d) of the d-dimensional lattice a + n.w.

    The dimension d is always len(w); it is never stored separately.
    """

    a: complex
    w: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "w", as_weights(self.w))

    @property
    def d(self) -> int:
        return len(self.w)


def check_pole(alpha: complex, d: int, homog: bool) -> None:
    """Raise DomainError for a non-finite alpha and PoleError at the poles 1..d of the form."""
    if not cmath.isfinite(alpha):
        raise DomainError(f"alpha = {alpha} is not finite")
    if alpha.imag == 0 and float(alpha.real).is_integer():
        q = int(alpha.real)
        if 1 <= q <= d:
            form = "homogeneous lattice zeta" if homog else "lattice zeta"
            raise PoleError(f"{form} has a pole at alpha = {q}", q=q)


def check_order(q: int, d: int) -> None:
    """Raise DomainError unless q is one of the poles 1..d of the lattice zeta."""
    if not 1 <= q <= d:
        raise DomainError(f"poles sit at q = 1..{d}, got {q}")


def validate_params(p: BarnesParams) -> None:
    """Check that a and every w_i are finite with Re > 0; DomainError names the offender."""
    if not (cmath.isfinite(p.a) and p.a.real > 0):
        raise DomainError(f"parameter a = {p.a} must be finite with Re(a) > 0")
    validate_weights(p.w)


def lattice(params) -> tuple[complex, tuple[complex, ...], bool]:
    """(a, w, homogeneous) of a route's params, validated: a BarnesParams is
    the lattice a + n.w, anything else the weights of the homogeneous one
    (a = 0, origin excluded)."""
    if isinstance(params, BarnesParams):
        validate_params(params)
        return params.a, params.w, False
    return 0.0, validate_weights(params), True


@dataclass(frozen=True)
class EvalConfig:
    """The relative tolerance of the series, limit and direct routes (the
    integral route's quadrature keeps its own); how far a route walks, its
    shell cap or its ladder of M, is a constant of that route."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (self.rel_tol > 0 and cmath.isfinite(self.rel_tol)):
            raise DomainError("EvalConfig.rel_tol must be finite and positive")


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class EvalResult:
    """A computed complex value with an error estimate and route diagnostics;
    `method` is the route's key in `ROUTES`; a non-finite value raises ConvergenceError."""

    value: complex
    abs_error_estimate: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not cmath.isfinite(self.value):
            raise ConvergenceError(f"{self.method}: the value {self.value} is past the largest "
                                   "double", self.diagnostics)
        if not self.abs_error_estimate >= 0:
            raise DomainError("abs_error_estimate must be nonnegative")


@lru_cache(maxsize=None)
def harmonic(k: int) -> Fraction:
    """Harmonic number H_k = sum_{i=1}^k 1/i as an exact rational; H_0 = 0."""
    if k < 0:
        raise DomainError("harmonic numbers are defined for k >= 0")
    if k == 0:
        return Fraction(0)
    return harmonic(k - 1) + Fraction(1, k)


def harmonic_float(k: int) -> float:
    return float(harmonic(k))


def gamma_ratio(x: complex, n: int) -> complex:
    """Gamma(x + n)/Gamma(x) for any integer n, in closed rational form with
    no Gamma evaluated: x(x+1)...(x+n-1) for n >= 0, else 1/(x-1)/.../(x+n)."""
    out = complex(1.0)
    for i in range(n):
        out *= x + i
    for j in range(1, 1 - n):
        out /= x - j
    return out


def narrow(z: complex) -> complex | float:
    """z as a float when its imaginary part is zero: numpy then stays in float64."""
    z = complex(z)
    return z.real if z.imag == 0 else z


def narrow_weights(w: Iterable[complex]) -> np.ndarray:
    """The weights as one array of narrowed values: float64 when every w_i
    is real, else complex128.  A shell walk builds it once and hands it to
    every `shell_values` call."""
    return np.array([narrow(x) for x in w])


def horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray | float:
    """sum_m coeffs[m] * x^m by Horner's rule, in place, in the wider dtype
    of coeffs and x; 0 for no coefficients."""
    if not coeffs.size:
        return 0.0
    out = np.full(x.shape, coeffs[-1], dtype=np.result_type(coeffs, x))
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out
