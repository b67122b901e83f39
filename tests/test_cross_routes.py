"""Cross-route agreement beyond the acceptance parameter sets: complex
offsets and weights, and a four-dimensional case."""

import math

import pytest

from barneszeta import (
    BarnesParams,
    isotropic_reduction,
)
from barneszeta.integral_rep import deriv0_integral, fp_integral, zeta_integral
from barneszeta.limit_rep import fp_limit
from barneszeta.series_rep import deriv0_series, fp_series, zeta_series

from conftest import rel_err, scaled_err

EULER_GAMMA = 0.57721566490153286
ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595943

P_COMPLEX = BarnesParams(0.8 + 0.3j, (1.0, 1.2 + 0.4j))
W_COMPLEX = (1.0, 1.2 + 0.4j)


class TestComplexParameters:
    @pytest.mark.parametrize("alpha", [0.5, -1.25, 1.5 + 2j, 2.5 + 1j])
    def test_continuation_series_vs_integral(self, alpha):
        s = zeta_series(alpha, P_COMPLEX).value
        i = zeta_integral(alpha, P_COMPLEX).value
        assert scaled_err(s, i) <= 1e-9

    @pytest.mark.parametrize("q", [1, 2])
    def test_finite_parts_three_routes(self, q):
        s = fp_series(q, P_COMPLEX).value
        i = fp_integral(q, P_COMPLEX).value
        l = fp_limit(q, P_COMPLEX).value
        assert scaled_err(s, i) <= 1e-9
        assert scaled_err(s, l) <= 1e-5

    def test_derivative(self):
        s = deriv0_series(P_COMPLEX).value
        i = deriv0_integral(P_COMPLEX).value
        assert scaled_err(s, i) <= 1e-6

    def test_homogeneous_complex_weights(self):
        s = fp_series(2, W_COMPLEX).value
        i = fp_integral(2, W_COMPLEX).value
        assert scaled_err(s, i) <= 1e-9
        s = deriv0_series(W_COMPLEX).value
        i = deriv0_integral(W_COMPLEX).value
        assert scaled_err(s, i) <= 1e-9


class TestFourDimensions:
    P4 = BarnesParams(1.0, (1.0, 1.0, 1.0, 1.0))

    def test_finite_part_against_riemann_combination(self):
        # C(n+3,3) = [(n+1)^3 + 3(n+1)^2 + 2(n+1)]/6 gives
        # zeta_B(alpha,1|1^4) = [zeta(alpha-3) + 3 zeta(alpha-2) + 2 zeta(alpha-1)]/6
        want = (EULER_GAMMA + 3 * ZETA2 + 2 * ZETA3) / 6
        s = fp_series(4, self.P4).value
        i = fp_integral(4, self.P4).value
        assert abs(s - want) <= 1e-9
        assert abs(i - want) <= 1e-12

    def test_continuation_against_isotropic_oracle(self):
        got = zeta_series(6.5, self.P4).value
        want = isotropic_reduction(6.5, 1.0, 1.0, 4)
        assert rel_err(got, want) <= 1e-9

    def test_limit_route_shell_fallback(self):
        want = (EULER_GAMMA + 3 * ZETA2 + 2 * ZETA3) / 6
        res = fp_limit(4, self.P4)
        assert abs(res.value - want) <= 1e-4
