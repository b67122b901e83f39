import cmath
import math
import random

import numpy as np
import pytest

from barneszeta import BarnesParams, ConvergenceError
from barneszeta import limit_rep
from barneszeta.bernoulli import bernoulli_taylor_over_prod, pole_coeffs
from barneszeta.integral_rep import deriv0_integral, fp_integral
from barneszeta.limit_rep import deriv0_limit, fp_limit
from barneszeta.oracles import log_gamma_ref
from barneszeta.series_rep import deriv0_series, fp_series

from conftest import scaled_err
from references import DimensionError, FastPathKind, d2_fast_path

EULER_GAMMA = 0.57721566490153286
LOG_2PI = math.log(2 * math.pi)


class TestFiniteParts:
    def test_d1_euler(self):
        res = fp_limit(1, BarnesParams(1.0, (1.0,)))
        assert abs(res.value - EULER_GAMMA) <= 1e-9

    def test_d2_reduction(self):
        res = fp_limit(2, BarnesParams(1.0, (1.0, 1.0)))
        assert abs(res.value - EULER_GAMMA) <= 1e-9

    def test_homogeneous_d1(self):
        res = fp_limit(1, (1.0,))
        assert abs(res.value - EULER_GAMMA) <= 1e-9

    def test_homogeneous_matches_series(self, d2_params):
        got = fp_limit(1, d2_params.w)
        want = fp_series(1, d2_params.w)
        assert scaled_err(got.value, want.value) <= 1e-5


class TestDerivative:
    def test_d1_lerch(self):
        res = deriv0_limit(BarnesParams(1.0, (1.0,)))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-9

    @pytest.mark.parametrize("a", [0.45, 1.7])
    def test_d1_general_a(self, a):
        # the d = 1 limit form evaluates log Gamma(a) - log(2 pi)/2
        res = deriv0_limit(BarnesParams(a, (1.0,)))
        want = log_gamma_ref(a) - 0.5 * LOG_2PI
        assert abs(res.value - want) <= 1e-9

    def test_matches_series(self, d2_params):
        got = deriv0_limit(d2_params)
        want = deriv0_series(d2_params)
        assert scaled_err(got.value, want.value) <= 1e-5

    def test_homogeneous_d1(self):
        res = deriv0_limit((1.0,))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-9


class TestDiagnostics:
    def test_schedule_and_raw_values_recorded(self):
        res = fp_limit(1, BarnesParams(1.0, (1.0,)))
        assert res.diagnostics["M_values"] == [64, 96, 128, 192, 256]
        assert len(res.diagnostics["raw_values"]) == 5

    def test_est_error_is_extrapolant_gap(self):
        res = deriv0_limit((1.0, 1.0))
        assert res.abs_error_estimate >= 0

    def test_schedule_cut_rule(self):
        # the five largest rungs of the default ladder whose cube fits the budget
        kept = {1: (64, 96, 128, 192, 256), 2: (64, 96, 128, 192, 256),
                3: (24, 32, 48, 64, 96), 4: (8, 12, 16, 24, 32), 5: (4, 6, 8, 12, 16)}
        for d, Ms in kept.items():
            assert limit_rep._rungs_kept(d) == Ms
            assert max(Ms) ** d <= limit_rep._CUBE_POINTS

    def test_edge_size_counts_every_subset_term(self, d2_params):
        # the largest term of F[t^2 log t] at x = M*w is the full subset,
        # t = a + M*(w1 + w2), with weight b_0/2!, b_0 = B_0(w)/prod(w)
        p, M = d2_params, 256
        bw = bernoulli_taylor_over_prod(p.w, 2)
        value, size = limit_rep._edge(0, p.a, p.w, M, pole_coeffs(0, 2, bw), None)
        t = p.a + M * sum(p.w)
        assert size >= abs(bw[0] / 2 * t**2 * cmath.log(t)) > abs(value)

    @pytest.mark.parametrize("w", [(1.0, 2**0.5), (1.0, 2**0.5, math.pi / 4)])
    def test_homogeneous_symbols_once_per_call(self, w, monkeypatch):
        # F[t^e log t](0|w) does not depend on M: one symbol per entry of the
        # pole row, d + 1 for the derivative at zero, not one per rung
        calls = []
        real = limit_rep.f_symbol_sum

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(limit_rep, "f_symbol_sum", counted)
        deriv0_limit(w)
        assert len(calls) == len(w) + 1

    def test_unusable_schedule_raises(self):
        # from d = 11 on not even M = 4 has a cube of at most 2^20 points
        assert limit_rep._rungs_kept(10) == (4,)
        with pytest.raises(ConvergenceError):
            deriv0_limit(BarnesParams(0.7, (1.0,) * 11))


class TestHomogeneousBridgeLimitForm:
    def test_fp_bridge_at_limit_tolerance(self, d2_params):
        # [fp(q=1, a) - 1/a] extrapolated to a -> 0 against the homogeneous value
        w = d2_params.w
        avals = (1e-2, 1e-3)
        vals = [fp_limit(1, BarnesParams(a, w)).value - 1.0 / a for a in avals]
        ext = (avals[0] * vals[1] - avals[1] * vals[0]) / (avals[0] - avals[1])
        target = fp_limit(1, w).value
        assert abs(ext - target) <= 1e-4 * (1 + abs(target))


class TestFastPath:
    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            d2_fast_path(FastPathKind.FP2, BarnesParams(1.0, (1.0,)))

    def test_fp2_euler(self):
        res = d2_fast_path("fp2", BarnesParams(1.0, (1.0, 1.0)))
        assert abs(res.value - EULER_GAMMA) <= 1e-9

    def test_fp1_regular_value(self):
        # at a = 1 the residue vanishes and the finite part is zeta(0) = -1/2
        res = d2_fast_path("fp1", BarnesParams(1.0, (1.0, 1.0)))
        assert abs(res.value + 0.5) <= 1e-9

    def test_deriv0_matches_generic(self, d2_params):
        fast = d2_fast_path("deriv0", d2_params)
        generic = deriv0_limit(d2_params)
        assert scaled_err(fast.value, generic.value) <= 1e-8


EPS = float(np.finfo(float).eps)


class TestPrefixWalk:
    """One walk of the shells gives the cube sum at every kept M."""

    SCHEDULE = (2, 3, 5, 8)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("homog", [False, True])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_matches_explicit_cube(self, d, homog, q):
        w = (1.0, 1.3, 0.7, 2.1)[:d]
        a = 0j if homog else 0.45
        if q:
            rungs = limit_rep._cube_pow(a, w, self.SCHEDULE, q, homog)
        else:
            rungs = limit_rep._cube_log(a, w, self.SCHEDULE, homog)
        assert [M for M, _, _ in rungs] == list(self.SCHEDULE)
        for M, total, mass in rungs:
            n = np.indices((M,) * d).reshape(d, -1)
            y = a.real + np.asarray(w) @ n
            if homog:
                y = y[n.any(axis=0)]
            terms = np.log(y) if q == 0 else y ** -float(q)
            assert mass == pytest.approx(np.sum(np.abs(terms)), rel=1e-12)
            assert abs(total - math.fsum(terms)) <= EPS * mass


def _limit_vs_integral(p: BarnesParams):
    """(name, limit route, integral route) of every finite part and of the
    derivative at zero, both forms."""
    cases = []
    for q in range(1, p.d + 1):
        cases.append((f"fp{q}", lambda q=q: fp_limit(q, p), lambda q=q: fp_integral(q, p)))
        cases.append((f"fp_bh{q}", lambda q=q: fp_limit(q, p.w), lambda q=q: fp_integral(q, p.w)))
    cases.append(("deriv0", lambda: deriv0_limit(p), lambda: deriv0_integral(p)))
    cases.append(("deriv0_bh", lambda: deriv0_limit(p.w), lambda: deriv0_integral(p.w)))
    return cases


def _worst_honest_error(p: BarnesParams) -> float:
    """Worst |limit - integral| / (1 + |v|) over every case; each must lie
    within the two routes' estimates plus 8 ulp."""
    worst = 0.0
    for name, limit, integral in _limit_vs_integral(p):
        ref, got = integral(), limit()
        err = abs(got.value - ref.value)
        bound = got.abs_error_estimate + ref.abs_error_estimate + 8 * EPS * (1 + abs(ref.value))
        assert err <= bound, (name, p, err, got.abs_error_estimate)
        worst = max(worst, err / (1 + abs(ref.value)))
    return worst


class TestHonesty:
    """The limit route against the integral route: every value returned and
    honest, and the worst error below what the three-point (1000, 2000,
    4000) tableau reached on the same lattices."""

    @pytest.mark.parametrize("p, worst", [
        (BarnesParams(0.7, (1.0, 2 ** 0.5)), 7.3e-8),
        (BarnesParams(0.9, (1.0, 2 ** 0.5, math.pi / 4)), 2.6e-7),
        (BarnesParams(1.0, (1.0, 1.3, 1.7, 2.1)), 4.7e-6),
        (BarnesParams(0.8 + 0.1j, (1 + 0.2j, 1.5 - 0.1j)), 2.7e-7),
        (BarnesParams(0.7, (1.0, 50.0)), 1e-4),   # the d <= 2 accept bound
    ], ids=["D2", "D3", "d4", "complex", "w1_50"])
    def test_matrix(self, p, worst):
        assert _worst_honest_error(p) <= worst

    @pytest.mark.parametrize("d, count", [(2, 20), (3, 4)])
    def test_seeded_anisotropic(self, d, count):
        # w = s * (1, n_2, ...) with n_i in 1..8, as in the benchmark lattices;
        # at d = 2 every n comes up
        rng = random.Random(d)
        for i in range(count):
            s, a = rng.uniform(0.5, 2.0), rng.uniform(0.3, 2.5)
            n = [1 + i % 8] if d == 2 else [rng.randint(1, 8) for _ in range(d - 1)]
            _worst_honest_error(BarnesParams(a, tuple(s * x for x in [1, *n])))
