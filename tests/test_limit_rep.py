import math

import pytest

from barneszeta import (
    BarnesParams,
    ConvergenceError,
    EvalConfig,
)
from barneszeta.foundations import DimensionError
from barneszeta.limit_rep import deriv0_barnes_limit, deriv0_bh_limit, fp_barnes_limit, fp_bh_limit
from barneszeta.oracles import log_gamma_ref
from barneszeta.series_rep import deriv0_barnes_series, fp_bh_series

from conftest import scaled_err
from references import FastPathKind, d2_fast_path

EULER_GAMMA = 0.57721566490153286
LOG_2PI = math.log(2 * math.pi)


class TestFiniteParts:
    def test_d1_euler(self):
        res = fp_barnes_limit(1, BarnesParams(1.0, (1.0,)))
        assert abs(res.value - EULER_GAMMA) <= 1e-9

    def test_d2_reduction(self):
        res = fp_barnes_limit(2, BarnesParams(1.0, (1.0, 1.0)))
        assert abs(res.value - EULER_GAMMA) <= 1e-9

    def test_homogeneous_d1(self):
        res = fp_bh_limit(1, (1.0,))
        assert abs(res.value - EULER_GAMMA) <= 1e-9

    def test_homogeneous_matches_series(self, d2_params):
        got = fp_bh_limit(1, d2_params.w)
        want = fp_bh_series(1, d2_params.w)
        assert scaled_err(got.value, want.value) <= 1e-5


class TestDerivative:
    def test_d1_lerch(self):
        res = deriv0_barnes_limit(BarnesParams(1.0, (1.0,)))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-9

    @pytest.mark.parametrize("a", [0.45, 1.7])
    def test_d1_general_a(self, a):
        # the d = 1 limit form evaluates log Gamma(a) - log(2 pi)/2
        res = deriv0_barnes_limit(BarnesParams(a, (1.0,)))
        want = log_gamma_ref(a) - 0.5 * LOG_2PI
        assert abs(res.value - want) <= 1e-9

    def test_matches_series(self, d2_params):
        got = deriv0_barnes_limit(d2_params)
        want = deriv0_barnes_series(d2_params)
        assert scaled_err(got.value, want.value) <= 1e-5

    def test_homogeneous_d1(self):
        res = deriv0_bh_limit((1.0,))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-9


class TestDiagnostics:
    def test_schedule_and_raw_values_recorded(self):
        cfg = EvalConfig(limit_M_schedule=(500, 1000, 2000))
        res = fp_barnes_limit(1, BarnesParams(1.0, (1.0,)), config=cfg)
        assert res.diagnostics["M_values"] == [500, 1000, 2000]
        assert len(res.diagnostics["raw_values"]) == 3
        assert "monotone" in res.diagnostics

    def test_est_error_is_extrapolant_gap(self):
        res = deriv0_bh_limit((1.0, 1.0))
        assert res.abs_error_estimate >= 0

    def test_d3_schedule_rescaled(self, d3_params):
        res = fp_barnes_limit(1, d3_params)
        Ms = res.diagnostics["M_values"]
        assert max(Ms) ** 3 <= 3.3e7
        assert Ms == sorted(Ms)

    def test_unusable_schedule_raises(self):
        cfg = EvalConfig(limit_M_schedule=(1, 2, 3))
        with pytest.raises(ConvergenceError):
            deriv0_barnes_limit(BarnesParams(0.7, (1.0, 2**0.5)), config=cfg)


class TestHomogeneousBridgeLimitForm:
    def test_fp_bridge_at_limit_tolerance(self, d2_params):
        # [fp(q=1, a) - 1/a] extrapolated to a -> 0 against the homogeneous value
        w = d2_params.w
        avals = (1e-2, 1e-3)
        vals = [fp_barnes_limit(1, BarnesParams(a, w)).value - 1.0 / a for a in avals]
        ext = (avals[0] * vals[1] - avals[1] * vals[0]) / (avals[0] - avals[1])
        target = fp_bh_limit(1, w).value
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
        cfg = EvalConfig(limit_M_schedule=(30, 60, 120, 240, 480))
        fast = d2_fast_path("deriv0", d2_params, cfg)
        generic = deriv0_barnes_limit(d2_params, config=cfg)
        assert scaled_err(fast.value, generic.value) <= 1e-8
