import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from barneszeta import (
    BarnesParams,
    ConvergenceError,
    DomainError,
    EvalConfig,
    EvalResult,
    PoleError,
)
from barneszeta.foundations import (
    check_pole,
    gamma_ratio,
    harmonic,
    horner,
    validate_params,
    validate_weights,
)


class TestValidateParams:
    def test_canonical_hurwitz_case_ok(self):
        validate_params(BarnesParams(1.0, (1.0,)))

    def test_negative_a_rejected(self):
        with pytest.raises(DomainError, match="a ="):
            validate_params(BarnesParams(-1.0, (1.0,)))

    def test_bad_weight_rejected_with_index(self):
        with pytest.raises(DomainError, match="w_2"):
            validate_params(BarnesParams(1.0, (1.0, -2.0 + 0.1j)))

    @pytest.mark.parametrize("a", [float("inf"), float("nan"), complex(1.0, float("inf"))])
    def test_non_finite_a_rejected(self, a):
        with pytest.raises(DomainError, match="a = .*finite"):
            validate_params(BarnesParams(a, (1.0,)))

    @pytest.mark.parametrize("wi", [float("inf"), float("nan"), complex(1.0, float("-inf"))])
    def test_non_finite_weight_rejected(self, wi):
        with pytest.raises(DomainError, match="w_2 = .*finite"):
            validate_weights((1.0, wi))

    def test_dimension_is_derived(self):
        p = BarnesParams(1.0, (1.0, 2.0, 3.0))
        assert p.d == 3

    def test_empty_weights_rejected(self):
        with pytest.raises(DomainError):
            BarnesParams(1.0, ())


class TestHarmonic:
    def test_h0_is_zero(self):
        assert harmonic(0) == 0

    def test_h1(self):
        assert harmonic(1) == 1

    def test_h4_exact(self):
        assert harmonic(4) == Fraction(25, 12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            harmonic(-1)

    @given(st.integers(min_value=0, max_value=400))
    def test_increment_identity_exact(self, k):
        assert harmonic(k + 1) - harmonic(k) == Fraction(1, k + 1)


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.rel_tol == 1e-10

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(DomainError):
            EvalConfig(rel_tol=0.0)

    def test_only_field_is_rel_tol(self):
        # the shell cap and the limit ladder are constants of their routes
        assert [f.name for f in dataclasses.fields(EvalConfig)] == ["rel_tol"]

    def test_has_no_alpha_step(self):
        assert not hasattr(EvalConfig(), "alpha_step")

    def test_has_no_quad_rel_tol(self):
        # the integral route's quadrature tolerance is a constant of its module
        assert not hasattr(EvalConfig(), "quad_rel_tol")

    def test_negative_error_estimate_rejected(self):
        with pytest.raises(DomainError):
            EvalResult(1.0, -1.0, "series")

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_value_is_convergence_error(self, value):
        # Every route returns through EvalResult, so none can return a value
        # past the largest double; the error names the route and keeps its
        # diagnostics.
        with pytest.raises(ConvergenceError, match="series: the value") as exc:
            EvalResult(value, 0.0, "series", {"shells": 3})
        assert exc.value.diagnostics == {"shells": 3}


class TestSmallHelpers:
    def test_gamma_ratio(self):
        # Gamma(x + n)/Gamma(x): the rising product for n >= 0, one over the
        # product (x-1)...(x+n) for n < 0, and an exact zero at a pole of Gamma(x)
        assert gamma_ratio(3.0, 0) == gamma_ratio(3.0, -0) == 1
        assert gamma_ratio(3.0, 4) == 3 * 4 * 5 * 6
        assert gamma_ratio(-2.0, 3) == 0
        assert gamma_ratio(7.0, -3) == pytest.approx(1 / (6 * 5 * 4), rel=1e-15)
        for x in (0.3, 2.5, -4.25):
            for n in range(-6, 7):
                want = math.gamma(x + n) / math.gamma(x)
                assert gamma_ratio(x, n) == pytest.approx(want, rel=1e-13)
        x = 1.5 - 2j
        for n in range(-6, 7):
            assert gamma_ratio(x, n + 1) == pytest.approx(gamma_ratio(x, n) * (x + n), rel=1e-14)
            assert gamma_ratio(x, n) * gamma_ratio(x + n, -n) == pytest.approx(1, rel=1e-14)

    @pytest.mark.parametrize("coeffs", [[2.0, -1.0, 0.5], [1 + 2j, 0.0, -3j, 0.25]])
    def test_horner_matches_polyval(self, coeffs):
        x = np.linspace(-2.0, 3.0, 7).reshape(7, 1)
        got = horner(np.array(coeffs), x)
        assert got.shape == x.shape and got.dtype == np.result_type(np.array(coeffs), x)
        assert np.allclose(got, np.polynomial.polynomial.polyval(x, coeffs), rtol=1e-15, atol=1e-14)
        assert horner(np.array([]), x) == 0.0

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_pole_check_raises_at_poles(self, alpha):
        for homog, form in ((False, "lattice zeta"), (True, "homogeneous lattice zeta")):
            with pytest.raises(PoleError) as exc:
                check_pole(complex(alpha), 3, homog)
            assert exc.value.q == alpha
            assert str(exc.value) == f"{form} has a pole at alpha = {alpha}"

    @pytest.mark.parametrize("alpha", [0, 4, 1.5, complex(2, 1e-9), -1])
    def test_pole_check_passes_elsewhere(self, alpha):
        check_pole(complex(alpha), 3, False)
        check_pole(complex(alpha), 3, True)

    @pytest.mark.parametrize("alpha", [float("inf"), float("-inf"), float("nan"),
                                       complex(0.5, float("inf")), complex(float("nan"), 1.0)])
    def test_pole_check_rejects_non_finite(self, alpha):
        with pytest.raises(DomainError, match="not finite"):
            check_pole(complex(alpha), 3, False)
