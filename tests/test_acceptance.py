"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines.
"""

import math
import random
import time
from fractions import Fraction
from math import factorial

from barneszeta import BarnesParams, gamma_dq, residue
from barneszeta.bernoulli import bernoulli_taylor
from barneszeta.foundations import harmonic
from barneszeta.integral_rep import deriv0_integral, fp_integral, zeta_integral
from barneszeta.limit_rep import deriv0_limit, fp_limit
from barneszeta.oracles import hurwitz_zeta, log_gamma_ref, rational_d2_reduction
from barneszeta.series_rep import deriv0_series, fp_series, zeta_series

from conftest import integral_at, neville_to_zero, rel_err, scaled_err, series_at
from references import cube_bracket_sum, d2_fast_path, g_symbol, log_gamma_rep_checks

EULER_GAMMA = 0.57721566490153286
LOG_2PI = math.log(2 * math.pi)

D2 = BarnesParams(0.7, (1.0, 2**0.5))
D3 = BarnesParams(0.9, (1.0, 2**0.5, math.pi / 4))


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_hurwitz_collapse():
    """d = 1 series and integral routes against the Euler-Maclaurin oracle."""
    alphas = (-1.5, 0.25, 2.5 + 1j)
    avals = (0.3, 1.0, 2.5)
    rel_tol = 1e-12
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in alphas:
        for a in avals:
            p = BarnesParams(a, (1.0,))
            want = hurwitz_zeta(alpha, a)
            got_s = zeta_series(alpha, p, rel_tol=rel_tol).value
            got_i = zeta_integral(alpha, p, rel_tol=rel_tol).value
            worst = max(worst, rel_err(got_s, want), rel_err(got_i, want))
            assert rel_err(got_s, want) <= 1e-10
            assert rel_err(got_i, want) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"Hurwitz collapse, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_cross_representation_agreement():
    """All finite parts and derivatives agree across the three routes."""
    t0 = time.perf_counter()
    worst_si = worst_sl = 0.0
    for p, tol_lim in ((D2, 1e-5), (D3, 1e-4)):
        w = p.w
        d = p.d
        quantities = []
        for q in range(1, d + 1):
            quantities.append((fp_series(q, p), fp_integral(q, p),
                               fp_limit(q, p)))
            quantities.append((fp_series(q, w), fp_integral(q, w), fp_limit(q, w)))
        quantities.append((deriv0_series(p), deriv0_integral(p),
                           deriv0_limit(p)))
        quantities.append((deriv0_series(w), deriv0_integral(w), deriv0_limit(w)))
        for s, i, l in quantities:
            dsi = scaled_err(i.value, s.value)
            dsl = scaled_err(l.value, s.value)
            worst_si = max(worst_si, dsi)
            worst_sl = max(worst_sl, dsl)
            assert dsi <= 1e-6
            assert dsl <= tol_lim
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"cross-representation, worst S-I {worst_si:.2e}, "
               f"worst S-L {worst_sl:.2e}, {elapsed:.1f}s")


def test_criterion_03_d2_fast_path():
    """Explicit d = 2 formulas against the generic limit operations."""
    rng = random.Random(12345)
    worst = 0.0
    for _ in range(20):
        p = BarnesParams(rng.uniform(0.3, 2.5),
                         (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)))
        for kind, generic in (("fp1", lambda: fp_limit(1, p)),
                              ("fp2", lambda: fp_limit(2, p)),
                              ("deriv0", lambda: deriv0_limit(p))):
            fast = d2_fast_path(kind, p).value
            gen = generic().value
            worst = max(worst, scaled_err(fast, gen))
            assert scaled_err(fast, gen) <= 1e-8
    _report(3, f"fast-path equivalence on 20 random sets, worst {worst:.2e}")


def test_criterion_04_telescoping_lemma():
    """Explicit cube sums of lattice brackets against the closed corner form."""
    rng = random.Random(20240811)
    worst = 0.0
    for d in (1, 2, 3, 4):
        for M in range(6):
            for _ in range(50):
                c = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d + 2)]
                b = [rng.uniform(-0.3, 0.2) for _ in range(d)]
                seen = [0.0]

                def u(n, c=c, b=b, seen=seen):
                    poly = c[0] + sum(ci * ni for ci, ni in zip(c[1:], n))
                    poly += c[d + 1] * n[0] * n[-1]
                    val = poly * math.exp(sum(bi * ni for bi, ni in zip(b, n)))
                    if abs(val) > seen[0]:
                        seen[0] = abs(val)
                    return val

                res = cube_bracket_sum(u, M, d)
                gap = abs(res.lhs - res.rhs) / (1.0 + seen[0])
                worst = max(worst, gap)
                assert gap <= 1e-12
    _report(4, f"telescoping lemma d<=4, M<=5, worst scaled gap {worst:.2e}")


def test_criterion_05_g_symbol_identities():
    rng = random.Random(7)
    worst_low = worst_top = 0.0
    for d in (1, 2, 3, 4):
        for _ in range(25):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = tuple(complex(rng.uniform(0.3, 2.0), rng.uniform(-0.2, 0.2))
                      for _ in range(d))
            scale = (abs(c) + sum(abs(x) for x in w)) ** d
            for n in range(d):
                val = abs(g_symbol(lambda x, n=n: (c + x) ** n, c, w))
                worst_low = max(worst_low, val / scale)
                assert val <= 1e-12 * scale
            pw = 1.0 + 0j
            for x in w:
                pw *= x
            want = factorial(d) * pw
            got = g_symbol(lambda x: (c + x) ** d, c, w)
            gap = abs(got - want) / (abs(want) + scale)
            worst_top = max(worst_top, gap)
            assert gap <= 1e-12
    _report(5, f"G-symbol identities, worst low {worst_low:.2e}, top {worst_top:.2e}")


def test_criterion_06_representation_parameter_invariance(monkeypatch):
    # series shift parameter
    worst_k = 0.0
    for alpha in (0.5, -1.25, 2.5 + 1j):
        for p in (BarnesParams(1.0, (1.0, 1.0)), D2):
            k0 = max(1, math.ceil(-complex(alpha).real) + 1) + 6
            v1 = series_at(monkeypatch, k0, zeta_series, alpha, p).value
            v2 = series_at(monkeypatch, k0 + 2, zeta_series, alpha, p).value
            worst_k = max(worst_k, rel_err(v1, v2))
            assert rel_err(v1, v2) <= 1e-9
    # integral subtraction order and regulator constant
    worst_m = worst_c = 0.0
    for alpha in (0.5, 3.5):
        v1 = integral_at(monkeypatch, alpha, D2, M=3).value
        v2 = integral_at(monkeypatch, alpha, D2, M=5).value
        worst_m = max(worst_m, rel_err(v1, v2))
        assert rel_err(v1, v2) <= 1e-8
        u1 = integral_at(monkeypatch, alpha, D2.w, M=3, c=1.0).value
        u2 = integral_at(monkeypatch, alpha, D2.w, M=3, c=2.0).value
        worst_c = max(worst_c, rel_err(u1, u2))
        assert rel_err(u1, u2) <= 1e-8
    _report(6, f"parameter invariance: k {worst_k:.2e}, M {worst_m:.2e}, c {worst_c:.2e}")


def test_criterion_07_residues():
    worst = 0.0
    for p in (D2, D3):
        for q in range(1, p.d + 1):
            want = residue(q, p)
            extraps = []
            for eps in (1e-2, 1e-3):
                plus = eps * zeta_integral(q + eps, p).value
                minus = -eps * zeta_integral(q - eps, p).value
                extraps.append(0.5 * (plus + minus))
            got = neville_to_zero((1e-4, 1e-6), extraps)  # symmetric average is O(eps^2)
            worst = max(worst, rel_err(got, want))
            assert rel_err(got, want) <= 1e-5
        # homogeneous residues are the exact a = 0 specialization
        d, pw = p.d, math.prod(p.w)
        for q in range(1, d + 1):
            at_zero = ((-1.0) ** (d - q) * complex(bernoulli_taylor(0.0, p.w, d - q)[d - q])
                       / (factorial(q - 1) * pw))
            assert residue(q, p.w) == at_zero
    _report(7, f"residue extraction, worst rel err {worst:.2e}")


def _bernoulli_symbol_coeffs_binom1(n):
    """LHS of binom1 as exact coefficients over the basis B_j(w)."""
    coeffs = {}
    for k in range(n + 1):
        for l in range(k + 1):
            j = k - l
            coeffs[j] = coeffs.get(j, Fraction(0)) + (
                Fraction((-1) ** l) / (factorial(l) * factorial(j) * factorial(n - k))
            )
    return {j: c for j, c in coeffs.items() if c != 0}


def test_criterion_08_binomial_identities_exact():
    for d in range(1, 9):
        for q in range(1, d + 1):
            n = d - q
            # binom1: sum_k B_k(-1|w)/(k!(n-k)!) == B_n(w)/n!
            got = _bernoulli_symbol_coeffs_binom1(n)
            assert got == {n: Fraction(1, factorial(n))}
            # binom2: the H-weighted sum collapses onto j < n coefficients
            lhs = {}
            for k in range(n + 1):
                for l in range(k + 1):
                    j = k - l
                    lhs[j] = lhs.get(j, Fraction(0)) + (
                        Fraction((-1) ** l) * harmonic(n - k)
                        / (factorial(l) * factorial(j) * factorial(n - k))
                    )
            rhs = {}
            for j in range(n):
                total = Fraction(0)
                for l in range(n - j):
                    total += Fraction((-1) ** l) * harmonic(n - j - l) / (
                        factorial(n - j - l) * factorial(l)
                    )
                rhs[j] = total / factorial(j)
            lhs = {j: c for j, c in lhs.items() if c != 0}
            rhs = {j: c for j, c in rhs.items() if c != 0}
            assert lhs == rhs
            # binom3: the inner sum has the closed form (-1)^(m+1)/(m! m)
            for m in range(1, n + 1):
                total = Fraction(0)
                for l in range(m):
                    total += Fraction((-1) ** l) * harmonic(m - l) / (
                        factorial(m - l) * factorial(l)
                    )
                assert total == Fraction((-1) ** (m + 1), factorial(m) * m)
    _report(8, "binomial identities exact in rationals for 1 <= q <= d <= 8")


def test_criterion_09_log_gamma_representations():
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 3.7, 10.0):
        rep = log_gamma_rep_checks(a)
        ref = log_gamma_ref(a)
        for v in (rep.series, rep.limit, rep.hurwitz_series):
            worst = max(worst, abs(v - ref))
            assert abs(v - ref) <= 1e-9
    _report(9, f"log Gamma representations, worst abs err {worst:.2e}")


def test_criterion_10_named_constants():
    g11 = gamma_dq(1, (1.0,), "series").value
    assert abs(g11 - 0.5772156649) <= 1e-8
    d0 = deriv0_series((1.0,)).value
    assert abs(d0 - (-0.9189385332)) <= 1e-8
    fp = fp_series(1, BarnesParams(1.0, (1.0,))).value
    assert abs(fp - EULER_GAMMA) <= 1e-8
    _report(10, "named constants (Euler constant, -log(2 pi)/2) reproduced")


def test_criterion_11_rational_weight_oracle():
    worst = 0.0
    for n in (2, 3):
        for alpha in (0.5, 3.5, -0.5):
            got = zeta_series(alpha, BarnesParams(1.0, (1.0, float(n)))).value
            want = rational_d2_reduction(alpha, 1.0, n)
            worst = max(worst, rel_err(got, want))
            assert rel_err(got, want) <= 1e-9
    _report(11, f"rational-weight oracle, worst rel err {worst:.2e}")
