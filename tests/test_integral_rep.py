import contextlib
import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    BarnesZetaError,
    ConvergenceError,
    DomainError,
    PoleError,
    residue,
)
from barneszeta.integral_rep import (
    deriv0_integral,
    fp_integral,
    quad_semiinfinite,
    zeta_integral,
)
from barneszeta.oracles import hurwitz_zeta
from barneszeta import integral_rep
from barneszeta.bernoulli import bernoulli_taylor
from barneszeta.integral_rep import _homog_bracket, _inhom_bracket, _reciprocal_gamma
from barneszeta.series_rep import deriv0_series

from conftest import integral_at, rel_err, scaled_err
from references import bernoulli_poly_exact

EULER_GAMMA = 0.57721566490153286
LOG_2PI = math.log(2 * math.pi)
ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90
ZETA5 = 1.0369277551433699


class TestQuadEngine:
    def test_exponential(self):
        v, e, _ = quad_semiinfinite(lambda t: np.exp(-t), 0.0, 1.0, 1e-12)
        assert rel_err(v, 1.0) <= 1e-12

    def test_gamma_two_scaled(self):
        v, e, _ = quad_semiinfinite(lambda t: t * np.exp(-2 * t), 1.0, 2.0, 1e-12, poly_growth=1)
        assert rel_err(v, 0.25) <= 1e-12

    def test_half_power(self):
        v, e, _ = quad_semiinfinite(lambda t: np.sqrt(t) * np.exp(-t), 0.5, 1.0, 1e-12,
                                    poly_growth=0.5)
        assert rel_err(v, math.sqrt(math.pi) / 2) <= 1e-11

    def test_invalid_decay(self):
        with pytest.raises(DomainError):
            quad_semiinfinite(lambda t: t, 0.0, 0.0, 1e-10)


class TestExpSinhRule:
    def test_divergent_origin_order_is_domain_error(self):
        with pytest.raises(DomainError):
            quad_semiinfinite(lambda t: 1 / t, -1.0, 1.0, 1e-12)

    def test_each_level_is_one_call_on_new_nodes(self):
        sizes = []

        def f(t):
            sizes.append(t.size)
            return np.exp(-t) * np.cos(t)

        v, e, n = quad_semiinfinite(f, 0.0, 1.0, 1e-12)
        assert abs(v - 0.5) <= e <= 1e-11
        assert n == sum(sizes)
        assert all(b == 2 * a for a, b in zip(sizes[1:], sizes[2:]))
        assert sizes[1] == sizes[0] - 1

    def test_near_divergent_origin(self):
        # t^(-0.9) e^(-t) integrates to Gamma(0.1)
        v, e, _ = quad_semiinfinite(lambda t: t ** -0.9 * np.exp(-t), -0.9, 1.0, 1e-12)
        want = math.gamma(0.1)
        assert abs(v - want) <= e + 8 * 2.0 ** -52 * want
        assert e <= 1e-10 * want

    def test_level_cap_raises(self):
        # A cusp at t = 1 defeats the double-exponential decay of the error.
        with pytest.raises(ConvergenceError, match="did not settle"):
            quad_semiinfinite(lambda t: np.abs(t - 1.0) * np.exp(-t), 0.0, 1.0, 1e-14)

    def test_non_finite_integrand_raises_at_once(self):
        calls = []

        def f(t):
            calls.append(t.size)
            return np.where(t > 3.0, np.inf, np.exp(-t))

        with pytest.raises(ConvergenceError, match="not finite"):
            quad_semiinfinite(f, 0.0, 1.0, 1e-12)
        assert len(calls) == 1

    def test_sums_that_overflow_raise(self):
        # Every value is finite, but their sum passes the largest double.
        def f(t):
            return np.where((t > 0.3) & (t < 1.0), 1e308, 0.0)

        with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match="overflow"):
            quad_semiinfinite(f, 0.0, 1.0, 1e-12)

    @staticmethod
    def nan_at_level(level, calls):
        """exp(-t), NaN at the level-`level` nodes of the first call.  That
        call holds levels 0-4 as one grid of 16n + 1 nodes at x = x_lo + r h/16,
        r = 0..16n (decay rate 1, so x = asinh(log t / (pi/2))); level l >= 1
        is the r that are odd multiples of 16 >> l."""
        off = 16 >> level

        def f(t):
            out = np.exp(-t)
            if not calls:
                x = np.arcsinh(np.log(t) / (math.pi / 2))
                r = np.rint((x - x.min()) * (t.size - 1) / (x.max() - x.min()))
                out[r % (2 * off) == off] = np.nan
            calls.append(t.size)
            return out
        return f

    def test_unconsumed_level_may_be_non_finite(self):
        calls = []
        v, e, n = quad_semiinfinite(self.nan_at_level(3, calls), 0.0, 1.0, 1e-2)
        assert len(calls) == 1 and n == calls[0] and n % 16 == 1
        assert abs(v - 1.0) <= e <= 1e-2

    def test_consumed_level_that_is_non_finite_raises(self):
        calls = []
        with pytest.raises(ConvergenceError, match="not finite"):
            quad_semiinfinite(self.nan_at_level(3, calls), 0.0, 1.0, 1e-12)
        assert len(calls) == 1

    def test_unconsumed_level_four_may_be_non_finite(self):
        # exp(-t) settles at level 3 for rel_tol 1e-8 and needs level 4 for 1e-12.
        calls = []
        v, e, n = quad_semiinfinite(self.nan_at_level(4, calls), 0.0, 1.0, 1e-8)
        assert len(calls) == 1 and n == calls[0] and n % 16 == 1
        assert abs(v - 1.0) <= e <= 1e-8

    def test_consumed_level_four_that_is_non_finite_raises(self):
        calls = []
        with pytest.raises(ConvergenceError, match="not finite"):
            quad_semiinfinite(self.nan_at_level(4, calls), 0.0, 1.0, 1e-12)
        assert len(calls) == 1

    @pytest.mark.parametrize("order, rate, rel_tol, growth", [
        (0.0, 1.0, 1e-12, 0.0), (-0.9, 0.3, 1e-8, 2.0), (2.5, 4.0, 1e-14, 5.0)])
    def test_first_call_views_are_the_levels_bit_for_bit(self, monkeypatch, order, rate,
                                                        rel_tol, growth):
        """Each level's strided view of the first call's grid holds, bit for
        bit, the nodes that level gets when every level is its own call."""
        first_levels = integral_rep._FIRST_LEVELS

        def node_calls(first):
            monkeypatch.setattr(integral_rep, "_FIRST_LEVELS", first)
            calls = []

            def f(t):
                calls.append(t.copy())
                return np.full(t.shape, (-4.0) ** len(calls))   # no two calls agree

            with contextlib.suppress(ConvergenceError):
                quad_semiinfinite(f, order, rate, rel_tol, growth)
            return calls

        grid = node_calls(first_levels)[0]
        own = node_calls(1)
        top = 1 << (first_levels - 1)
        views = [grid[::top]] + [grid[top >> l::top >> (l - 1)] for l in range(1, first_levels)]
        assert len(own) >= first_levels and grid.size == sum(v.size for v in views)
        for view, nodes in zip(views, own):
            assert view.tobytes() == nodes.tobytes()

    def test_unit_weighted_integrand_is_the_span_in_x(self):
        """With w(x) f(t(x)) = 1 every level's trapezoidal sum is the span
        x_hi - x_lo of the nodes, but only with the endpoints halved."""
        xs = []

        def f(t):
            u = np.log(t) / (math.pi / 2)      # sinh x at decay rate 1
            xs.append(np.arcsinh(u))
            return 1.0 / ((math.pi / 2) * np.sqrt(1.0 + u * u) * t)

        v, e, n = quad_semiinfinite(f, 0.0, 1.0, 1e-12)
        span = xs[0].max() - xs[0].min()
        assert abs(v - span) <= 1e-12 * span


class TestOneCallPerQuadrature:
    """Every finite-part and derivative quadrature of the integral route on
    these lattices settles within the levels of the first integrand call."""

    @pytest.mark.parametrize("params", ["d2_params", "d3_params", None], ids=["D2", "D3", "d4"])
    def test_fp_and_deriv0(self, params, request, monkeypatch):
        p = (request.getfixturevalue(params) if params
             else BarnesParams(1.0, (1.0, 1.3, 1.7, 2.1)))
        calls = []
        quad = integral_rep.quad_semiinfinite

        def counted(f, *rest):
            calls.append(0)

            def integrand(t):
                calls[-1] += 1
                return f(t)
            return quad(integrand, *rest)

        monkeypatch.setattr(integral_rep, "quad_semiinfinite", counted)
        for q in range(1, p.d + 1):
            fp_integral(q, p)
            fp_integral(q, p.w)
        deriv0_integral(p)
        deriv0_integral(p.w)
        assert calls == [1] * (2 * p.d + 2)


class TestQuadEvals:
    """The nodes each finite-part and derivative quadrature evaluates: fp
    grows like t^(q-1+M) = t^(d-1) at infinity and the derivative at zero
    like t^d, which widens its tail."""

    @pytest.mark.parametrize("params, fp_evals, deriv0_evals", [
        ("d2_params", 193, 193),
        ("d3_params", 193, 209),
    ])
    def test_counts(self, params, fp_evals, deriv0_evals, request):
        p = request.getfixturevalue(params)
        for q in range(1, p.d + 1):
            assert fp_integral(q, p).diagnostics["quad_evals"] == fp_evals
            assert fp_integral(q, p.w).diagnostics["quad_evals"] == fp_evals
        assert deriv0_integral(p).diagnostics["quad_evals"] == deriv0_evals
        assert deriv0_integral(p.w).diagnostics["quad_evals"] == deriv0_evals


class TestContinuation:
    def test_unit_d2_at_5(self, monkeypatch):
        res = integral_at(monkeypatch, 5.0, BarnesParams(1.0, (1.0, 1.0)), M=0)
        assert rel_err(res.value, ZETA4) <= 1e-11

    def test_below_abscissa(self, monkeypatch):
        res = integral_at(monkeypatch, 0.5, BarnesParams(1.0, (1.0, 1.0)), M=2)
        assert rel_err(res.value, hurwitz_zeta(-0.5, 1.0)) <= 1e-11

    def test_hurwitz_collapse(self, monkeypatch):
        res = integral_at(monkeypatch, -1.5, BarnesParams(0.3, (1.0,)), M=3)
        assert rel_err(res.value, hurwitz_zeta(-1.5, 0.3)) <= 1e-10

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta_integral(1.0, BarnesParams(1.0, (1.0, 1.0)))

    def test_M_independence(self, d2_params, monkeypatch):
        v1 = integral_at(monkeypatch, 0.5, d2_params, M=2).value
        v2 = integral_at(monkeypatch, 0.5, d2_params, M=4).value
        assert rel_err(v1, v2) <= 1e-9

    def test_nonpositive_integer_alpha_prefactor_only(self, monkeypatch):
        # at alpha = 0 the 1/Gamma factor kills the integral and the
        # prefactor carries the exact value: zeta_H(0, a) = 1/2 - a
        res = integral_at(monkeypatch, 0.0, BarnesParams(0.7, (1.0,)), M=4)
        assert res.diagnostics.get("integral_skipped") is True
        assert abs(res.value - (0.5 - 0.7)) <= 1e-12


class TestStronglyNegativeIntegerAlpha:
    """At alpha = -n the prefactor alone is the value, read as B_k(w)/k! in
    both forms; one that overflows a double raises ConvergenceError."""

    @pytest.mark.parametrize("n, w", [(150, (1, 1)), (100, (1, 50))])
    def test_closed_form(self, n, w):
        # zeta(-n, a | w) = (-1)^d n!/(d+n)! B_(d+n)(a|w)/prod(w), here with a = 1
        d = len(w)
        exact = ((-1) ** d * Fraction(factorial(n), factorial(d + n))
                 * bernoulli_poly_exact(d + n, 1, w) / math.prod(w))
        res = zeta_integral(-n, BarnesParams(1.0, w))
        assert res.diagnostics["integral_skipped"] is True
        err = abs(Fraction(res.value.real) - exact)
        assert res.value.imag == 0
        assert err <= Fraction(res.abs_error_estimate + ULP8 * (1 + abs(res.value)))
        if w == (1, 1):
            assert float(exact) == pytest.approx(8.1952152e+143, rel=1e-8)

    def test_prefactor_overflow_raises(self):
        # the homogeneous value at alpha = -150 on w = (1, 50) is -1.9e398
        with pytest.raises(ConvergenceError, match="overflows a double"):
            zeta_integral(-150, (1.0, 50.0))


class TestHomogeneous:
    def test_unit_d2_at_5(self, monkeypatch):
        res = integral_at(monkeypatch, 5.0, (1.0, 1.0), M=0)
        assert rel_err(res.value, ZETA4 + ZETA5) <= 1e-10

    def test_d1_is_riemann(self, monkeypatch):
        res = integral_at(monkeypatch, 2.0, (1.0,), M=0)
        assert rel_err(res.value, ZETA2) <= 1e-12

    def test_c_independence(self, monkeypatch):
        v1 = integral_at(monkeypatch, 0.5, (1.0, 1.0), M=2, c=1.0).value
        v2 = integral_at(monkeypatch, 0.5, (1.0, 1.0), M=2, c=2.0).value
        assert rel_err(v1, v2) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, -1.5, 2.5 + 1j])
    @pytest.mark.parametrize("w", [(1.0, 2 ** 0.5), (1.0, 2 ** 0.5, math.pi / 4)],
                             ids=["d2", "d3"])
    def test_regulators_agree_within_estimates(self, w, alpha, monkeypatch):
        # The rows c^k/k! of the bracket come from a cache keyed on c: each
        # regulator must get its own, and c = 1 the same bits before and
        # after the others.  At 0.5 and -1.5 the default M is at least d, so
        # the counter-exponential rows are in use.
        ref = zeta_integral(alpha, w)
        for c in (2.0, 1.0 + 0.5j):
            res = integral_at(monkeypatch, alpha, w, c=c)
            slack = 8 * 2.0 ** -52 * (1 + abs(ref.value))
            assert abs(res.value - ref.value) <= (res.abs_error_estimate
                                                  + ref.abs_error_estimate + slack)
        again = zeta_integral(alpha, w)
        assert (again.value, again.abs_error_estimate) == (ref.value, ref.abs_error_estimate)


class TestFiniteParts:
    def test_d1_euler(self):
        res = fp_integral(1, BarnesParams(1.0, (1.0,)))
        assert abs(res.value - EULER_GAMMA) <= 1e-12

    def test_d2_reduction(self):
        res = fp_integral(2, BarnesParams(1.0, (1.0, 1.0)))
        assert abs(res.value - EULER_GAMMA) <= 1e-12

    def test_homogeneous_d1(self):
        res = fp_integral(1, (1.0,))
        assert abs(res.value - EULER_GAMMA) <= 1e-12

    def test_homogeneous_d2(self):
        res = fp_integral(2, (1.0, 1.0))
        assert abs(res.value - (EULER_GAMMA + ZETA2)) <= 1e-12


class TestDerivative:
    def test_d1_lerch(self):
        res = deriv0_integral(BarnesParams(1.0, (1.0,)))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-8

    def test_d1_a3(self):
        res = deriv0_integral(BarnesParams(3.0, (1.0,)))
        assert abs(res.value - (math.log(2) - 0.5 * LOG_2PI)) <= 1e-8

    def test_homogeneous_d1(self):
        res = deriv0_integral((1.0,))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-10

    def test_homogeneous_scaling(self):
        res = deriv0_integral((2.0,))
        assert abs(res.value - (0.5 * math.log(2) - 0.5 * LOG_2PI)) <= 1e-10

    @pytest.mark.parametrize("params", ["d2_params", "d3_params"])
    def test_one_quadrature_matches_series(self, params, request, monkeypatch):
        p = request.getfixturevalue(params)
        calls = []
        quad = integral_rep.quad_semiinfinite

        def counted(*args, **kwargs):
            calls.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(integral_rep, "quad_semiinfinite", counted)
        res = deriv0_integral(p)
        assert len(calls) == 1
        assert res.diagnostics["M"] == p.d and res.diagnostics["quad_evals"] > 0
        assert "alpha_step" not in res.diagnostics
        assert scaled_err(res.value, deriv0_series(p).value) <= 1e-10


class TestResidues:
    def test_hurwitz(self):
        assert residue(1, BarnesParams(1.0, (1.0,))) == 1.0

    def test_d2_unit_weights(self):
        for a in (0.4, 1.0, 1.7):
            assert residue(1, BarnesParams(a, (1.0, 1.0))) == pytest.approx(1 - a)
            assert residue(2, BarnesParams(a, (1.0, 1.0))) == pytest.approx(1.0)

    def test_homogeneous_is_a0_specialization(self, d3_params):
        w = d3_params.w
        d = len(w)
        for q in range(1, d + 1):
            pw = w[0] * w[1] * w[2]
            want = ((-1.0) ** (d - q) * complex(bernoulli_taylor(0.0, w, d - q)[d - q])
                    / (math.factorial(q - 1) * pw))
            assert residue(q, w) == want


class TestIntegrandRegularity:
    """At t = 1e-6 the regularized brackets must show their subtraction order.

    A wrong sign or convention in the B_k(-c|w) ladder would leave the raw
    t^(-d) blowup in place; the subtracted bracket has to sit many orders
    below that.
    """

    @pytest.mark.parametrize("M", [0, 1, 3])
    def test_inhomogeneous(self, M, d2_params):
        w = d2_params.w
        d = len(w)
        t = 1e-6
        val = abs(_inhom_bracket(w, M)(np.array([t]))[0])
        assert val <= 1e3 * t ** (M + 1 - d)
        assert val <= 1e-4 * t ** (-d)

    @pytest.mark.parametrize("M", [0, 2, 3])
    def test_homogeneous(self, M, d2_params):
        w = d2_params.w
        d = len(w)
        t = 1e-6
        val = abs(_homog_bracket(w, M)(np.array([t]))[0])
        # for M < d the counter-exponential sum is empty and a -1 floor remains
        expected = t ** (M + 1 - d) if M >= d else max(t ** (M + 1 - d), 1.0)
        assert val <= 1e3 * expected
        assert val <= 1e-4 * t ** (-d)


class TestSmallTBracketAgainstMpmath:
    """Below t0 both brackets are their own Bernoulli tail series.  Compare
    them with a 50-digit evaluation of the same regularized bracket, built
    from mpmath's classical Bernoulli numbers: the heat kernel minus the
    first M + 1 terms of its expansion.  The bound is a few eps times the
    summed tail-term sizes (majorized through |coefficients|), so a dropped
    or shifted tail coefficient, which errs by about one term, fails."""

    WEIGHTS = {"real": (1.0, 2 ** 0.5, math.pi / 4, 2.1),
               "complex": (1.0 + 0.25j, 1.5 - 0.5j, 0.75 + 0.1j, 2.0 - 0.3j)}
    FRACTIONS = (1e-3, 0.1, 0.5, 0.9, 0.999)     # of t0
    N_TERMS = 70                                  # past M + 1 + the package's 60 tail terms

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def laurent(kind, d, homog):
        """t^d prod(w) e^{ct} / prod(1 - e^{-w_i t}) = sum_k c_k t^k, k < N_TERMS,
        with c = 1 when homog and c = 0 otherwise, and the same Cauchy products
        of |terms|, the rounding scale of each c_k; at 50 digits."""
        import mpmath
        n = TestSmallTBracketAgainstMpmath.N_TERMS
        with mpmath.workdps(50):
            mp = mpmath.mp
            c, size = [mp.mpf(1)] + [mp.mpf(0)] * (n - 1), [mp.mpf(1)] + [mp.mpf(0)] * (n - 1)
            rows = [[(-1) ** m * mp.bernoulli(m) * mp.mpc(wi.real, wi.imag) ** m / mp.factorial(m)
                     for m in range(n)]    # x/(1 - e^{-x}) = sum (-1)^m B_m x^m/m!, B_1 = -1/2
                    for wi in map(complex, TestSmallTBracketAgainstMpmath.WEIGHTS[kind][:d])]
            if homog:
                rows.append([1 / mp.factorial(m) for m in range(n)])
            for row in rows:
                c = [mp.fsum(c[j] * row[k - j] for j in range(k + 1)) for k in range(n)]
                size = [mp.fsum(size[j] * abs(row[k - j]) for j in range(k + 1)) for k in range(n)]
        return c, size

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("homog", [False, True], ids=["inhom", "homog"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("m_shift", [None, 0, 2], ids=["M=0", "M=d", "M=d+2"])
    def test_tail_series(self, kind, homog, d, m_shift):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        w = self.WEIGHTS[kind][:d]
        M = 0 if m_shift is None else d + m_shift
        t0 = integral_rep._small_t_threshold(tuple(map(complex, w)))
        ts = np.array([f * t0 for f in self.FRACTIONS])
        bracket = _homog_bracket(w, M) if homog else _inhom_bracket(w, M)
        got = bracket(ts)
        c, size = self.laurent(kind, d, homog)
        n, eps = self.N_TERMS, 2.0 ** -52
        with mpmath.workdps(50):
            pw = mp.fprod(mp.mpc(wi.real, wi.imag) for wi in map(complex, w))
            for t, g in zip(ts, got):
                t = mp.mpf(t)
                heat = mp.fprod(1 / (1 - mp.exp(-mp.mpc(wi.real, wi.imag) * t))
                                for wi in map(complex, w))
                head = mp.fsum(c[k] * t ** k for k in range(M + 1)) / (pw * t ** d)
                tail = mp.fsum(size[k] * t ** k for k in range(M + 1, n)) / abs(pw * t ** d)
                if not homog:
                    want, scale = heat - head, tail
                elif M >= d:
                    ect = mp.exp(-t)
                    want = (heat - 1 - ect * head
                            + ect * mp.fsum(t ** k / mp.factorial(k) for k in range(M - d + 1)))
                    scale = ect * (tail + mp.fsum(t ** k / mp.factorial(k)
                                                  for k in range(M - d + 1, n)))
                else:   # the counter-exponential sum is empty and -1 remains
                    ect = mp.exp(-t)
                    want, scale = heat - 1 - ect * head, ect * tail + 1
                err = abs(complex(g) - complex(want))
                assert err <= 8 * eps * float(scale), (
                    f"t = {float(t):.3e}: error {err:.3e}, {err / (eps * float(scale)):.1f} eps "
                    f"of the tail-term sizes {float(scale):.3e}")


class TestReciprocalGamma:
    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        # The |Im| <= 30 bound is about four ulps of log Gamma; on a finer grid
        # (step 0.1) this and scipy's rgamma both reach 5.5e-14 to 6.2e-14.
        worst = {30: 0.0, 100: 0.0}
        points = [complex(-25.5 + 0.5 * i, sign * im)
                  for i in range(112) for im in (0, 0.3, 1, 3, 10, 30, 60, 100)
                  for sign in (1, -1)]
        for n in range(25):
            for eps in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
                points += [complex(-n + eps), complex(-n - eps), complex(-n, eps)]
        for z in points:
            want = complex(mpmath.rgamma(mpmath.mpc(z.real, z.imag)))
            got = _reciprocal_gamma(z)
            if want == 0:
                assert got == 0j
                continue
            key = 30 if abs(z.imag) <= 30 else 100
            worst[key] = max(worst[key], abs(got - want) / abs(want))
        assert worst[30] <= 5e-14
        assert worst[100] <= 2e-13

    def test_exact_zero_at_poles(self):
        for n in range(30):
            assert _reciprocal_gamma(-n) == 0j
            assert _reciprocal_gamma(complex(-n, 0.0)) == 0j

    def test_overflow_is_convergence_error(self):
        with pytest.raises(ConvergenceError, match="overflows a double"):
            _reciprocal_gamma(0.5 + 500j)
        with pytest.raises(ConvergenceError, match="overflows a double"):
            zeta_integral(0.5 + 500j, BarnesParams(1.0, (1.0, 1.0)))

    def test_import_pulls_in_no_scipy(self):
        src = os.path.dirname(os.path.dirname(integral_rep.__file__))
        code = ("import sys, barneszeta; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Honest or raise, against exact references

ULP8 = 8 * 2.0 ** -52
EXACT_ALPHAS = [0.5, 2.5, -1.5, -7.5, -0.5, 3.5, 0.5 + 3j, 0.5 + 10j, 0.5 + 20j,
                2.5 + 40j, 1.5 - 5j, -3.5 + 7j]


def _mp_zeta(mpmath, s: complex, a=1):
    return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), a))


EXACT_CASES = {
    # name: (integral route, exact value through the Riemann / Hurwitz zeta)
    "a=1, w=(1,1)": (lambda al: zeta_integral(al, BarnesParams(1.0, (1.0, 1.0))),
                     lambda mp, al: _mp_zeta(mp, al - 1)),
    "a=1, w=(1,1,1)": (lambda al: zeta_integral(al, BarnesParams(1.0, (1.0, 1.0, 1.0))),
                       lambda mp, al: (_mp_zeta(mp, al - 2) + _mp_zeta(mp, al - 1)) / 2),
    "w=(1,1)": (lambda al: zeta_integral(al, (1.0, 1.0)),
                lambda mp, al: _mp_zeta(mp, al - 1) + _mp_zeta(mp, al)),
    "a=0.3, w=(1,)": (lambda al: zeta_integral(al, BarnesParams(0.3, (1.0,))),
                      lambda mp, al: _mp_zeta(mp, al, mp.mpf("0.3"))),
}


def assert_honest_or_raises(route, want: complex):
    """The value is within its estimate plus 8 ulp of (1 + |want|), or the
    route raises a BarnesZetaError."""
    try:
        res = route()
    except BarnesZetaError:
        return
    err = abs(res.value - want)
    assert err <= res.abs_error_estimate + ULP8 * (1 + abs(want)), (
        f"error {err:.3e} against estimate {res.abs_error_estimate:.3e}")


@pytest.mark.parametrize("case", list(EXACT_CASES))
@pytest.mark.parametrize("alpha", EXACT_ALPHAS, ids=str)
def test_integral_route_honest_against_exact(case, alpha):
    mpmath = pytest.importorskip("mpmath")
    route, exact = EXACT_CASES[case]
    alpha = complex(alpha)
    with mpmath.workdps(30):
        want = exact(mpmath, alpha)
    assert_honest_or_raises(lambda: route(alpha), want)


def _mp_zeta2(mpmath, s: float, a: float, w2: float) -> complex:
    """sum over n in N_0^2 of (a + n_1 + n_2 w2)^-s, origin excluded when
    a = 0: a Hurwitz zeta in n_1, Euler-Maclaurin in n_2, at 60 digits."""
    with mpmath.workdps(60):
        s, a, w2 = mpmath.mpf(s), mpmath.mpf(a), mpmath.mpf(w2)
        acc = mpmath.zeta(s) if a == 0 else mpmath.mpf(0)
        acc += sum(mpmath.zeta(s, a + n * w2) for n in range(1 if a == 0 else 0, 20))
        x = a + 20 * w2
        acc += mpmath.zeta(s - 1, x) / ((s - 1) * w2) + mpmath.zeta(s, x) / 2
        for k in range(1, 21):
            acc -= (mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * (-w2) ** (2 * k - 1)
                    * mpmath.rf(s, 2 * k - 1) * mpmath.zeta(s + 2 * k - 1, x))
        return complex(acc)


class TestNoGrind:
    """Strongly negative alpha used to exhaust a 10^6-node budget before
    raising; the level cap ends it within one rule's worth of nodes."""

    @pytest.mark.parametrize("alpha, a", [(-7.5, None), (-7.5, 0.7), (-20.5, 0.7)])
    def test_honest_or_raises_within_level_cap(self, alpha, a, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        w = (1.0, 2 ** 0.5)
        nodes = []
        quad = integral_rep.quad_semiinfinite

        def counted(f, *rest):
            def integrand(t):
                nodes.append(t.size)
                return f(t)
            return quad(integrand, *rest)

        monkeypatch.setattr(integral_rep, "quad_semiinfinite", counted)
        if a is None:
            route = lambda: zeta_integral(alpha, w)
        else:
            route = lambda: zeta_integral(alpha, BarnesParams(a, w))
        assert_honest_or_raises(route, _mp_zeta2(mpmath, alpha, a or 0.0, w[1]))
        # At most 14 first-level intervals here, doubled at each later level.
        assert 0 < sum(nodes) <= 14 * 2 ** (integral_rep._LEVELS - 1) + 1


class TestBracketDtype:
    """A real lattice at real alpha keeps the brackets and every array that
    reaches quad_semiinfinite in float64; complex w or c makes them complex."""

    W = (1.0, 2 ** 0.5)
    CW = (1.0 + 0.2j, 1.5 - 0.1j)

    def _dtypes(self, monkeypatch, route):
        seen = {"bracket": set(), "integrand": set()}
        quad = integral_rep.quad_semiinfinite

        def watched(make):
            def build(*args):
                bracket = make(*args)

                def watched_bracket(t):
                    out = bracket(t)
                    seen["bracket"].add(out.dtype)
                    return out
                return watched_bracket
            return build

        def counted(f, *rest):
            def integrand(t):
                out = f(t)
                seen["integrand"].add(out.dtype)
                return out
            return quad(integrand, *rest)

        monkeypatch.setattr(integral_rep, "_inhom_bracket", watched(_inhom_bracket))
        monkeypatch.setattr(integral_rep, "_homog_bracket", watched(_homog_bracket))
        monkeypatch.setattr(integral_rep, "quad_semiinfinite", counted)
        route()
        return seen

    def _routes(self, w, a):
        p = BarnesParams(a, w)
        return [lambda: zeta_integral(0.5, p), lambda: fp_integral(1, p),
                lambda: deriv0_integral(p), lambda: zeta_integral(-1.5, w),
                lambda: fp_integral(2, w), lambda: deriv0_integral(w)]

    @pytest.mark.parametrize("i", range(6))
    def test_real_lattice_runs_in_float64(self, i, monkeypatch):
        seen = self._dtypes(monkeypatch, self._routes(self.W, 0.7 + 0j)[i])
        assert seen == {"bracket": {np.dtype(np.float64)}, "integrand": {np.dtype(np.float64)}}

    @pytest.mark.parametrize("i", range(6))
    def test_complex_weights_run_in_complex128(self, i, monkeypatch):
        seen = self._dtypes(monkeypatch, self._routes(self.CW, 0.7)[i])
        assert seen == {"bracket": {np.dtype(np.complex128)},
                        "integrand": {np.dtype(np.complex128)}}

    def test_complex_c_runs_in_complex128(self, monkeypatch):
        seen = self._dtypes(monkeypatch, lambda: integral_at(
            monkeypatch, 0.5, self.W, c=1.0 + 0.5j))
        assert seen == {"bracket": {np.dtype(np.complex128)},
                        "integrand": {np.dtype(np.complex128)}}

    def test_complex_alpha_keeps_the_bracket_real(self, monkeypatch):
        seen = self._dtypes(monkeypatch, lambda: zeta_integral(
            0.5 + 3j, BarnesParams(0.7, self.W)))
        assert seen == {"bracket": {np.dtype(np.float64)}, "integrand": {np.dtype(np.complex128)}}
