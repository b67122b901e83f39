import math

import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    ConvergenceError,
    DomainError,
    PoleError,
)
from barneszeta import combinatorics, oracles
from barneszeta.combinatorics import CompensatedSum, shell_values
from barneszeta.integral_rep import zeta_integral
from barneszeta.oracles import (
    direct_sum,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    isotropic_reduction,
    log_gamma_ref,
    rational_d2_reduction,
)

from conftest import rel_err
from references import digamma_ref, log_gamma_rep_checks

EULER_GAMMA = 0.57721566490153286
LOG_2PI = math.log(2 * math.pi)
ZETA5 = 1.0369277551433699263


class TestHurwitz:
    def test_basel(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
    def test_value_at_zero(self, a):
        assert hurwitz_zeta(0.0, a) == pytest.approx(0.5 - a, abs=1e-13)

    def test_derivative_at_zero_is_lerch(self):
        assert hurwitz_zeta_ds(0.0, 1.0) == pytest.approx(-0.5 * LOG_2PI, abs=1e-13)

    def test_pole(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, -1.0)

    @pytest.mark.parametrize("s", [2.0, 0.5, -0.5, 3.5 + 1j])
    @pytest.mark.parametrize("a", [0.7, 1.0, 2.5])
    def test_shift_stability(self, s, a):
        v20 = hurwitz_zeta(s, a)
        v40 = oracles._euler_maclaurin(s, a, 40)[0]
        assert abs(v20 - v40) <= 1e-12 * (1 + abs(v40))


class TestLogGammaRef:
    def test_at_one(self):
        assert abs(log_gamma_ref(1.0)) <= 1e-13

    def test_at_three(self):
        assert log_gamma_ref(3.0) == pytest.approx(math.log(2), abs=1e-13)

    def test_at_half(self):
        assert log_gamma_ref(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_digamma(self):
        assert digamma_ref(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
        assert digamma_ref(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-13)


class TestDirectSum:
    def test_d2_alpha5(self):
        res = direct_sum(5.0, BarnesParams(1.0, (1.0, 1.0)))
        assert rel_err(res.value, math.pi**4 / 90) <= 1e-10
        assert abs(res.value - math.pi**4 / 90) <= 2 * res.abs_error_estimate

    def test_d2_alpha3_within_estimate(self):
        res = direct_sum(3.0, BarnesParams(1.0, (1.0, 1.0)), rel_tol=1e-6)
        assert abs(res.value - math.pi**2 / 6) <= 2 * res.abs_error_estimate

    def test_hurwitz_shift(self):
        res = direct_sum(4.0, BarnesParams(2.0, (1.0,)), rel_tol=1e-12)
        assert rel_err(res.value, math.pi**4 / 90 - 1.0) <= 1e-11

    def test_near_abscissa_rejected(self):
        with pytest.raises(ConvergenceError):
            direct_sum(2.4, BarnesParams(1.0, (1.0, 1.0)))

    def test_point_budget(self, monkeypatch):
        # The walk stops before the shell that would take it past the
        # package's point budget, which the series walk shares, and raises
        # while the tail bound is still above 1e-2: shell 14 would take the
        # 14^2 = 196 points summed to 225 > 200.
        assert combinatorics.MAX_POINTS == 30_000_000
        monkeypatch.setattr(combinatorics, "MAX_POINTS", 200)
        with pytest.raises(ConvergenceError, match="point budget") as exc:
            direct_sum(3.0, BarnesParams(1.0, (1.0, 1.0)), rel_tol=1e-6)
        assert (exc.value.diagnostics["shells"], exc.value.diagnostics["points"]) == (14, 196)

    @pytest.mark.parametrize("homog", [False, True], ids=["inhomogeneous", "homogeneous"])
    def test_budget_exactly_met(self, homog, monkeypatch):
        # A walk may end its summing exactly at the budget: with a budget of
        # 10^2 (10^2 - 1 homogeneous) points, ten shells fit and the eleventh
        # does not; the tail bound is then below 1e-2, so the value returns
        # with that bound.
        monkeypatch.setattr(combinatorics, "MAX_POINTS", 100 - homog)
        params = (1.0, 1.0) if homog else BarnesParams(1.0, (1.0, 1.0))
        res = direct_sum(6.0, params, rel_tol=1e-15)
        diag = res.diagnostics
        assert (diag["shells"], diag["points"]) == (10, 100 - homog)
        assert res.abs_error_estimate == diag["tail_bound"] <= 1e-2 * abs(res.value)
        # sum over m = n1 + n2 of (m + 1)(1 + m)^-6 = zeta(5), and of (m + 1) m^-6,
        # m >= 1, = zeta(5) + zeta(6) without the origin
        want = ZETA5 + (math.pi ** 6 / 945 if homog else 0.0)
        assert abs(res.value - want) <= res.abs_error_estimate

    def test_shell_cap_diagnostics(self, monkeypatch):
        # Past MAX_SHELLS the sum raises with the shells it summed, 0..5,
        # their 6^2 points and the tail bound after the last, as its other
        # exits report them.
        monkeypatch.setattr(combinatorics, "MAX_SHELLS", 5)
        with pytest.raises(ConvergenceError, match="hit MAX_SHELLS") as exc:
            direct_sum(6.5, BarnesParams(0.7, (1.0, 2.0)))
        diag = exc.value.diagnostics
        assert (diag["shells"], diag["points"]) == (6, 36)
        assert math.isfinite(diag["tail_bound"])

    def test_overflow_is_convergence_error(self):
        # At a = 1e-3 the first term 1e-3^-400 is past the largest double and
        # the sum reads NaN; the walk ends at that first point, and
        # EvalResult refuses the value, with no RuntimeWarning on the way.
        with pytest.raises(ConvergenceError, match="past the largest double") as exc:
            direct_sum(400, BarnesParams(1e-3, (1.0, 1.0)))
        assert exc.value.diagnostics["points"] == 1

    def test_tail_bound_covers_complex_alpha(self):
        # On a complex lattice |y^-alpha| = |y|^-Re(alpha) e^(Im(alpha) arg y)
        # exceeds |y|^-Re(alpha) where Im(alpha) arg y > 0; the bound carries
        # the largest such factor over the cone of the args of a and the w_i.
        # Without it this sum stops after 99 shells, off by twice its bound.
        p = BarnesParams(1 + 0.8j, (1 + 0.9j, 1 + 0.7j))
        res = direct_sum(6 + 8j, p)
        want = zeta_integral(6 + 8j, p).value
        assert abs(res.value - want) <= res.abs_error_estimate + 8 * 2.0 ** -52 * (1 + abs(want))

    def test_homogeneous(self):
        res = direct_sum(4.0, (1.0,), rel_tol=1e-12)
        assert rel_err(res.value, math.pi**4 / 90) <= 1e-11

    @pytest.mark.parametrize("homog", [False, True])
    def test_real_power_matches_complex_power(self, homog):
        # At real alpha on a real lattice the sum takes the float power; the
        # complex power over the same shells must agree to rounding.
        alpha, a, w = 6.5, 0.7, (1.0, 2 ** 0.5)
        res = direct_sum(alpha, w) if homog else direct_sum(alpha, BarnesParams(a, w))
        acc = CompensatedSum()
        for k in range(res.diagnostics["shells"]):
            y = shell_values(0.0 if homog else a, w, k, skip_origin=homog)
            acc.add(complex(np.sum(y.astype(np.complex128) ** complex(-alpha))))
        assert rel_err(res.value, acc.value) <= 1e-15


class TestReductions:
    def test_isotropic_d1_is_hurwitz(self):
        got = isotropic_reduction(3.5, 0.8, 1.0, 1)
        assert got == pytest.approx(hurwitz_zeta(3.5, 0.8), rel=1e-14)

    def test_isotropic_d2_formula(self):
        a, alpha = 0.6, 4.2
        want = hurwitz_zeta(alpha - 1, a) + (1 - a) * hurwitz_zeta(alpha, a)
        assert isotropic_reduction(alpha, a, 1.0, 2) == pytest.approx(want, rel=1e-14)

    def test_isotropic_matches_direct(self):
        got = isotropic_reduction(5.0, 1.0, 1.0, 2)
        res = direct_sum(5.0, BarnesParams(1.0, (1.0, 1.0)))
        assert rel_err(got, res.value) <= 1e-10

    def test_isotropic_pole(self):
        with pytest.raises(PoleError):
            isotropic_reduction(2.0, 0.7, 1.0, 2)

    def test_rational_reduces_to_isotropic(self):
        got = rational_d2_reduction(4.5, 0.9, 1)
        want = isotropic_reduction(4.5, 0.9, 1.0, 2)
        assert rel_err(got, want) <= 1e-13

    def test_rational_n2_matches_direct(self):
        got = rational_d2_reduction(6.5, 1.0, 2)
        res = direct_sum(6.5, BarnesParams(1.0, (1.0, 2.0)), rel_tol=1e-13)
        assert rel_err(got, res.value) <= 1e-12

    def test_pairwise_consistency_d2(self):
        # direct / isotropic / rational all agree at alpha = 6.5
        alpha, a = 6.5, 0.8
        iso = isotropic_reduction(alpha, a, 1.0, 2)
        rat = rational_d2_reduction(alpha, a, 1)
        direct = direct_sum(alpha, BarnesParams(a, (1.0, 1.0)), rel_tol=1e-13).value
        assert rel_err(iso, rat) <= 1e-12
        assert rel_err(iso, direct) <= 1e-12

    def test_pairwise_consistency_d3(self):
        alpha, a = 8.5, 1.2
        iso = isotropic_reduction(alpha, a, 1.0, 3)
        direct = direct_sum(alpha, BarnesParams(a, (1.0, 1.0, 1.0)), rel_tol=1e-12).value
        assert rel_err(iso, direct) <= 1e-11

    @pytest.mark.parametrize("a, n", [(0.7, 2), (1.0, 1)])
    def test_estimate_is_honest_at_half(self, a, n):
        # The reduction's fixed estimate 1e-13 (1 + |v|) against a 40-digit
        # value of the same residue-class sum of mpmath Hurwitz zetas: the
        # errors are 7.1e-15 and 5.1e-15 (1 + |v|), so an estimate 100 times
        # smaller fails at both points, by 2.5 and 1.8 times.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        res = oracles.reduction(0.5, BarnesParams(a, (1.0, float(n))))
        with mpmath.workdps(40):
            alpha = mp.mpf(0.5)
            ars = [(mp.mpf(a) + r) / n for r in range(n)]
            want = complex(mp.mpf(n) ** -alpha * mp.fsum(
                mpmath.zeta(alpha - 1, ar) + (1 - ar) * mpmath.zeta(alpha, ar) for ar in ars))
        slack = 8 * 2.0 ** -52 * (1 + abs(want))
        assert abs(res.value - want) <= res.abs_error_estimate + slack

    @pytest.mark.parametrize("params", [BarnesParams(0.7, (1.0, 50.0)), (1.0, 50.0)])
    def test_value_past_a_double_is_convergence_error(self, params):
        # At alpha = -150 the Hurwitz combination on w = (1, 50) overflows to
        # inf in both forms; the route raises instead of returning it.
        with pytest.raises(ConvergenceError, match="inf"):
            oracles.reduction(-150, params)


class TestLogGammaReps:
    def test_at_one_all_near_zero(self):
        rep = log_gamma_rep_checks(1.0)
        for v in (rep.series, rep.limit, rep.hurwitz_series):
            assert abs(v) <= 1e-9

    def test_at_3_7_against_reference(self):
        rep = log_gamma_rep_checks(3.7)
        # log Gamma(3.7) = 1.42807232666...; pin the oracle itself first
        assert abs(rep.reference - 1.4280723266653892) <= 1e-12
        for v in (rep.series, rep.limit, rep.hurwitz_series):
            assert abs(v - rep.reference) <= 1e-9

    def test_small_argument_uses_split_variant(self):
        rep = log_gamma_rep_checks(0.5)
        want = 0.5 * math.log(math.pi)
        assert abs(rep.hurwitz_series - want) <= 1e-9
        assert abs(rep.series - want) <= 1e-9
