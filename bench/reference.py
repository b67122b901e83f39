"""Independent high-precision reference for the benchmark (mpmath, >= 30 digits).

Every benchmark lattice has weights w = s * (N_1, ..., N_d) with integer N_i,
so the lattice values are a + s*k with multiplicity

    m(k) = #{n in N_0^d : n.N = k},

a quasi-polynomial in k (Bell's theorem: it holds for every k >= 0).  Writing
m(k) = sum_j k^j h_j(k) with L-periodic h_j (L = lcm N_i) and splitting each
h_j into components of exact period D (Moebius inversion of the residue-class
averages) turns the lattice sum into a short exact Hurwitz combination:

    zeta_B(alpha, a | w) = s^-alpha * sum_{D, r < D, i} coef * D^(i - alpha)
                                         * zeta_H(alpha - i, (a/s + r)/D).

Only periods that really occur are summed, so a lattice needs about
sum_D D*(j_max + 1) Hurwitz values instead of L*d.  Finite parts are the
symmetric epsilon-limit (F(q+eps) + F(q-eps))/2 at higher precision, applied
term by term: terms without a pole at q are even in eps and are evaluated at q.
Nothing here imports the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

DPS = 30           # working precision of every reference value
FP_DPS = 50        # precision of the epsilon-limit at the poles
FP_EPS = "1e-15"   # O(eps^2) = 1e-30 bias; 1/eps = 1e15 cancels, leaving 35 digits


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def _mobius(n: int) -> int:
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _power_basis(ks: list[int], ys: list[int]) -> list[Fraction]:
    """Coefficients c_j with sum_j c_j k^j = y at the given points (exact)."""
    n = len(ks)
    rows = [[Fraction(k) ** j for j in range(n)] + [Fraction(y)] for k, y in zip(ks, ys)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[j][n] for j in range(n)]


@lru_cache(maxsize=None)
def period_components(N: tuple[int, ...]) -> dict[int, dict[int, tuple[Fraction, ...]]]:
    """{D: {j: e_jD}} with m(k) = sum_{D, j} k^j e_jD[k mod D], exact.

    Raises AssertionError if the quasi-polynomial or its decomposition does
    not reproduce the counted multiplicities.
    """
    if not N or min(N) < 1:
        raise ValueError("lattice directions must be positive integers")
    d = len(N)
    L = math.lcm(*N)
    K = L * (d + 1)
    m = [0] * K
    m[0] = 1
    for ni in N:
        for k in range(ni, K):
            m[k] += m[k - ni]
    h = [[Fraction(0)] * L for _ in range(d)]
    for r in range(L):
        ks = [L * t + r for t in range(d)]
        coeffs = _power_basis(ks, [m[k] for k in ks])
        k = L * d + r
        assert sum(c * k ** j for j, c in enumerate(coeffs)) == m[k], "not a quasi-polynomial"
        for j in range(d):
            h[j][r] = coeffs[j]
    divs = _divisors(L)
    out: dict[int, dict[int, tuple[Fraction, ...]]] = {}
    for j in range(d):
        avg = {D: [Fraction(D, L) * sum(h[j][r + D * u] for u in range(L // D)) for r in range(D)]
               for D in divs}
        parts = {}
        for D in divs:
            e = tuple(sum((_mobius(D // Dp) * avg[Dp][r % Dp] for Dp in divs if D % Dp == 0),
                          Fraction(0)) for r in range(D))
            if any(e):
                parts[D] = e
        for r in range(L):
            assert sum(e[r % D] for D, e in parts.items()) == h[j][r], "bad period split"
        for D, e in parts.items():
            out.setdefault(D, {})[j] = e
    return out


class LatticeReference:
    """Reference values on the lattice a + s*(n.N); a = None is the homogeneous
    lattice (a = 0, origin excluded)."""

    def __init__(self, N: tuple[int, ...], s: float, a: float | None):
        self.N = tuple(int(n) for n in N)
        self.d = len(self.N)
        self.s = s
        self.a = a
        with mpmath.workdps(FP_DPS):
            self._terms = self._build_terms()

    def _build_terms(self):
        """(D, i, coef, c) with F(alpha) = s^-alpha sum coef D^(i-alpha) zeta_H(alpha-i, c)."""
        x = mpmath.mpf(0) if self.a is None else mpmath.mpf(self.a) / mpmath.mpf(self.s)
        terms = []
        for D, ej in sorted(period_components(self.N).items()):
            jmax = max(ej)
            for r in range(D):
                c = mpmath.mpf(1) if (self.a is None and r == 0) else (x + r) / D
                for i in range(jmax + 1):
                    coef = mpmath.mpf(0)
                    for j, e in ej.items():
                        if j >= i and e[r] != 0:
                            coef += (mpmath.mpf(e[r].numerator) / e[r].denominator
                                     * math.comb(j, i) * (-x) ** (j - i))
                    if coef != 0:
                        terms.append((D, i, coef, c))
        return terms

    def zeta(self, alpha) -> mpmath.mpc:
        with mpmath.workdps(DPS):
            alpha = mpmath.mpmathify(alpha)
            if alpha.imag == 0 and alpha.real == int(alpha.real) and 1 <= int(alpha.real) <= self.d:
                raise ValueError("alpha is a pole")
            acc = mpmath.mpf(0)
            for D, i, coef, c in self._terms:
                acc += coef * mpmath.power(D, i - alpha) * mpmath.zeta(alpha - i, c)
            return mpmath.mpc(mpmath.power(self.s, -alpha) * acc)

    def fp_and_residue(self, q: int) -> tuple[mpmath.mpf, mpmath.mpf]:
        """Finite part and residue at the pole alpha = q (1 <= q <= d)."""
        if not 1 <= q <= self.d:
            raise ValueError("q out of range")
        with mpmath.workdps(FP_DPS):
            eps = mpmath.mpf(FP_EPS)
            fp = mpmath.mpf(0)
            res = mpmath.mpf(0)
            for D, i, coef, c in self._terms:
                if q - i == 1:
                    hi = mpmath.power(self.s * D, -(q + eps)) * D ** i * mpmath.zeta(1 + eps, c)
                    lo = mpmath.power(self.s * D, -(q - eps)) * D ** i * mpmath.zeta(1 - eps, c)
                    fp += coef * (hi + lo) / 2
                    res += coef * eps * (hi - lo) / 2
                else:
                    fp += coef * mpmath.power(self.s * D, -q) * D ** i * mpmath.zeta(q - i, c)
            return +fp, +res

    def deriv0(self) -> mpmath.mpf:
        """d/dalpha at alpha = 0."""
        with mpmath.workdps(DPS):
            ls = mpmath.log(self.s)
            acc = mpmath.mpf(0)
            for D, i, coef, c in self._terms:
                z = mpmath.zeta(-i, c)
                dz = mpmath.zeta(-i, c, 1)
                acc += coef * D ** i * (dz - (mpmath.log(D) + ls) * z)
            return +acc


def harmonic(k: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


class ReferenceBook:
    """Memoized reference quantities for the lattices of one benchmark run."""

    def __init__(self):
        self._lat: dict = {}
        self._val: dict = {}

    def lattice(self, N, s, a) -> LatticeReference:
        key = (tuple(N), s, a)
        if key not in self._lat:
            self._lat[key] = LatticeReference(tuple(N), s, a)
        return self._lat[key]

    def _memo(self, key, fn):
        if key not in self._val:
            self._val[key] = fn()
        return self._val[key]

    def zeta(self, N, s, a, alpha) -> complex:
        return self._memo(("zeta", tuple(N), s, a, alpha),
                          lambda: complex(self.lattice(N, s, a).zeta(mpmath.mpc(*alpha))))

    def fp_res(self, N, s, a, q):
        return self._memo(("fp", tuple(N), s, a, q),
                          lambda: self.lattice(N, s, a).fp_and_residue(q))

    def fp(self, N, s, a, q) -> complex:
        return complex(self.fp_res(N, s, a, q)[0])

    def deriv0_mp(self, N, s, a):
        return self._memo(("d0", tuple(N), s, a), lambda: self.lattice(N, s, a).deriv0())

    def deriv0(self, N, s, a) -> complex:
        return complex(self.deriv0_mp(N, s, a))

    def log_rho(self, N, s) -> complex:
        return complex(-self.deriv0_mp(N, s, None))

    def log_gamma_B(self, N, s, a) -> complex:
        with mpmath.workdps(DPS):
            return complex(self.deriv0_mp(N, s, a) - self.deriv0_mp(N, s, None))

    def psi_B(self, N, s, a, q) -> complex:
        fp, res = self.fp_res(N, s, a, q)
        with mpmath.workdps(DPS):
            h = harmonic(q - 1)
            return complex((-1) ** q * math.factorial(q - 1)
                           * (fp + mpmath.mpf(h.numerator) / h.denominator * res))

    def gamma_dq(self, N, s, q) -> complex:
        fp, res = self.fp_res(N, s, None, q)
        with mpmath.workdps(DPS):
            h = harmonic(q - 1)
            return complex((-1) ** (q - 1) * math.factorial(q - 1)
                           * (fp + mpmath.mpf(h.numerator) / h.denominator * res))


def self_check(book: ReferenceBook, oracles, rng) -> list[str]:
    """Compare the reference with closed forms and with the package's exact
    reduction oracles at benign alpha; returns the list of disagreements."""
    bad = []

    def close(name, got, want, tol):
        with mpmath.workdps(DPS):
            got, want = mpmath.mpmathify(got), mpmath.mpmathify(want)
            if not abs(got - want) <= tol * (1 + abs(want)):
                bad.append(f"{name}: reference {complex(got)!r} vs {complex(want)!r}")

    a = round(rng.uniform(0.3, 2.5), 6)
    with mpmath.workdps(DPS):
        # d = 1 collapses to Hurwitz zeta: zeta'(0, a) = log Gamma(a) - log(2 pi)/2,
        # FP at 1 = -psi(a), homogeneous FP at 1 = Euler's gamma.
        close("d1 deriv0", book.deriv0_mp((1,), 1.0, a),
              mpmath.loggamma(a) - mpmath.log(2 * mpmath.pi) / 2, 1e-25)
        close("d1 fp1", book.fp_res((1,), 1.0, a, 1)[0], -mpmath.digamma(a), 1e-25)
        close("d1 fp1 homog", book.fp_res((1,), 1.0, None, 1)[0], mpmath.euler, 1e-25)
    for d in (2, 3, 4):
        s = rng.randint(128, 512) / 256
        for alpha in (d + 0.5, 0.5, -1.5):
            close(f"isotropic d={d} alpha={alpha}",
                  book.zeta((1,) * d, s, a, (alpha, 0.0)),
                  oracles.isotropic_reduction(alpha, a, s, d), 1e-9)
    for n in range(2, 9):
        for alpha in (2.5, 0.5, -1.5):
            close(f"rational d2 n={n} alpha={alpha}",
                  book.zeta((1, n), 1.0, a, (alpha, 0.0)),
                  oracles.rational_d2_reduction(alpha, a, n), 1e-9)
    return bad
