"""Cross-route agreement beyond the acceptance parameter sets: complex
offsets and weights, a four-dimensional case, and the homogeneous function
as the sum of its inhomogeneous pieces."""

import math

import pytest

from barneszeta import (
    ROUTES,
    BarnesParams,
    BarnesZetaError,
    evaluate,
)
from barneszeta.integral_rep import deriv0_integral, fp_integral, zeta_integral
from barneszeta.limit_rep import fp_limit
from barneszeta.oracles import isotropic_reduction
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

    def test_series_finite_part_within_its_estimate(self):
        # On the homogeneous w = (1, 3, 1, 7) the series is off from the line
        # integral by 0.95 of its own estimate (15 shells, default k), so an
        # estimate half as large would not cover its error.
        w = (1.0, 3.0, 1.0, 7.0)
        s, i = fp_series(3, w), fp_integral(3, w)
        bound = (s.abs_error_estimate + i.abs_error_estimate
                 + 8 * 2.0 ** -52 * (1.0 + abs(i.value)))
        assert abs(s.value - i.value) <= bound


# Weights of the piece-sum oracle: D2's, D3's, d = 4, d = 5 and two complex sets.
PIECE_WEIGHTS = {
    "D2": (1.0, 2 ** 0.5),
    "D3": (1.0, 2 ** 0.5, math.pi / 4),
    "d4": (1.0, 1.3, 1.7, 2.1),
    "d5": (1.0, 1.3, 1.7, 2.1, 2.6),
    "c2": (1.0, 1.2 + 0.2j),
    "c3": (1.0, 1.3 - 0.1j, 0.9 + 0.05j),
}


def assert_sum_of_pieces(quantity, w, at, route):
    """The homogeneous value by `route` against the sum of its pieces
    zeta(alpha, w_i | w_i, ..., w_d), i = 1..d (the lattice points split by
    their first nonzero coordinate), each by the same route, within the
    summed estimates plus 8 ulp of (1 + |v|).  At alpha = q a piece of
    dimension below q is regular and adds its zeta value, which the integral
    route gives when `route` has no zeta route."""
    whole = evaluate(quantity, w, at, route)
    parts = []
    for i in range(len(w)):
        piece = BarnesParams(w[i], w[i:])
        if quantity == "fp" and piece.d < at:
            parts.append(evaluate("zeta", piece, at,
                                  route if route in ROUTES["zeta"] else "integral"))
        else:
            parts.append(evaluate(quantity, piece, at, route))
    err = abs(whole.value - sum(r.value for r in parts))
    bound = (whole.abs_error_estimate + sum(r.abs_error_estimate for r in parts)
             + 8 * 2.0 ** -52 * (1.0 + abs(whole.value)))
    assert err <= bound, (quantity, at, route, err, bound)


def assert_shift_relation(quantity, a, w, at, route):
    """zeta(alpha, a | w) - zeta(alpha, a + w_1 | w) = zeta(alpha, a | w_2, ..., w_d),
    each side by `route`, within the three estimates plus 8 ulp of (1 + |v|);
    the finite parts and the derivative at zero inherit it.  At alpha = q = d
    the right side is regular and adds its zeta value, which the integral
    route gives when `route` has no zeta route.  A call that raises a
    BarnesZetaError passes: the contract is honest or raise."""
    right_quantity, right_route = quantity, route
    if quantity == "fp" and at == len(w):
        right_quantity, right_route = "zeta", route if route in ROUTES["zeta"] else "integral"
    try:
        left = evaluate(quantity, BarnesParams(a, w), at, route)
        shifted = evaluate(quantity, BarnesParams(a + w[0], w), at, route)
        right = evaluate(right_quantity, BarnesParams(a, w[1:]), at, right_route)
    except BarnesZetaError:
        return
    err = abs(left.value - shifted.value - right.value)
    bound = (left.abs_error_estimate + shifted.abs_error_estimate + right.abs_error_estimate
             + 8 * 2.0 ** -52 * (1.0 + abs(left.value)))
    assert err <= bound, (quantity, at, route, err, bound)


def _piece_cases():
    for route in ("series", "integral", "limit"):
        for name, w in PIECE_WEIGHTS.items():
            # d = 5 is left out of the limit route: its small cubes are known
            # to under-report there on anisotropic weights.
            if route == "limit" and len(w) > 4:
                continue
            for quantity in ("zeta", "fp", "deriv0"):
                if route in ROUTES[quantity]:
                    yield pytest.param(quantity, w, route, id=f"{route}-{name}-{quantity}")


class TestHomogeneousAsPieces:
    """zeta_h(alpha | w) = sum_i zeta(alpha, w_i | w_i, ..., w_d): every
    homogeneous route against its own inhomogeneous pieces."""

    @pytest.mark.parametrize("quantity, w, route", _piece_cases())
    def test_sum_of_pieces(self, quantity, w, route):
        points = {"zeta": [0.5, 2.5 + 1j, -1.5], "fp": range(1, len(w) + 1), "deriv0": [None]}
        for at in points[quantity]:
            assert_sum_of_pieces(quantity, w, at, route)


# Weights of the shift relation: the prefixes (1, 1.3), (1, 1.3, 1.7) and
# (1, 1.3, 1.7, 2.1) of the d = 6 weights of the series tests, and a complex set.
SHIFT_WEIGHTS = {"d2": (1.0, 1.3), "d3": (1.0, 1.3, 1.7), "d4": (1.0, 1.3, 1.7, 2.1),
                 "c3": (1.0, 1.2 + 0.2j, 1.3 - 0.1j)}


def _shift_cases():
    for route in ("series", "integral", "limit"):
        for name, w in SHIFT_WEIGHTS.items():
            for quantity in ("zeta", "fp", "deriv0"):
                if route in ROUTES[quantity]:
                    yield pytest.param(quantity, w, route, id=f"{route}-{name}-{quantity}")


class TestShiftRelation:
    """zeta(alpha, a | w) - zeta(alpha, a + w_1 | w) = zeta(alpha, a | w_2, ..., w_d):
    the points with n_1 = 0 form the (d-1)-dimensional lattice.  Every route
    against itself, one dimension down."""

    @pytest.mark.parametrize("quantity, w, route", _shift_cases())
    def test_shift_relation(self, quantity, w, route):
        points = {"zeta": [0.5, 2.5 + 1j, -1.5], "fp": range(1, len(w) + 1), "deriv0": [None]}
        for at in points[quantity]:
            assert_shift_relation(quantity, 0.7, w, at, route)


def assert_permutation_symmetric(quantity, params, reordered, at, route):
    """The lattice does not depend on the order of its weights: `route` on
    params and on reordered agrees within both estimates plus 8 ulp of
    (1 + |v|), or both sides raise a BarnesZetaError."""
    outcomes = []
    for p in (params, reordered):
        try:
            outcomes.append(evaluate(quantity, p, at, route))
        except BarnesZetaError as exc:
            outcomes.append(exc)
    first, second = outcomes
    raised = [isinstance(r, BarnesZetaError) for r in outcomes]
    assert raised[0] == raised[1], (quantity, at, route, first, second)
    if raised[0]:
        return
    err = abs(first.value - second.value)
    bound = (first.abs_error_estimate + second.abs_error_estimate
             + 8 * 2.0 ** -52 * (1.0 + abs(first.value)))
    assert err <= bound, (quantity, at, route, err, bound)


# Weights of the permutation oracle, each against its reverse.
PERMUTED_WEIGHTS = {"d3": (1.0, 1.3, 1.7), "d4": (1.0, 1.3, 1.7, 2.1),
                    "c3": (1.0, 1.2 + 0.2j, 1.3 - 0.1j)}


def _permutation_cases():
    for quantity, routes in ROUTES.items():
        for route in routes:
            for name, w in PERMUTED_WEIGHTS.items():
                for form in ("inhomogeneous", "homogeneous"):
                    yield pytest.param(quantity, w, route, form,
                                       id=f"{route}-{name}-{quantity}-{form}")


class TestPermutationSymmetry:
    """zeta(alpha, a | w) = zeta(alpha, a | reversed(w)), in both forms: every
    route of every quantity against itself on the reversed weights, which
    read the same Bernoulli table under a different product order."""

    @pytest.mark.parametrize("quantity, w, route, form", _permutation_cases())
    def test_reversed_weights(self, quantity, w, route, form):
        reordered = tuple(reversed(w))
        if form == "inhomogeneous":
            params, reordered = BarnesParams(0.7, w), BarnesParams(0.7, reordered)
        else:
            params = w
        points = {"zeta": [0.5, 2.5 + 1j, -1.5], "fp": range(1, len(w) + 1), "deriv0": [None]}
        for at in points[quantity]:
            assert_permutation_symmetric(quantity, params, reordered, at, route)
