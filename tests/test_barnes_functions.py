import inspect
import math
from math import factorial

import pytest

from barneszeta import (
    BarnesParams,
    ConvergenceError,
    DomainError,
    EvalResult,
    Method,
    PoleError,
    gamma_dq,
    log_gamma_B,
    log_rho,
    multiple_gamma,
    psi_B,
    residue,
)
from barneszeta.barnes_functions import ROUTES, evaluate
from barneszeta.foundations import harmonic
from barneszeta.oracles import hurwitz_zeta, hurwitz_zeta_ds, log_gamma_ref
from barneszeta.series_rep import fp_series, zeta_series

from conftest import scaled_err
from references import digamma_ref

EULER_GAMMA = 0.57721566490153286
LOG_2PI = math.log(2 * math.pi)


class TestLogRho:
    def test_unit_weight(self):
        assert abs(log_rho((1.0,), Method.SERIES).value - 0.5 * LOG_2PI) <= 1e-12

    def test_scaled_weight(self):
        assert abs(log_rho((2.0,), Method.SERIES).value - 0.5 * math.log(math.pi)) <= 1e-12

    def test_routes_agree_d2(self):
        s = log_rho((1.0, 1.0), Method.SERIES).value
        i = log_rho((1.0, 1.0), Method.INTEGRAL).value
        assert scaled_err(s, i) <= 1e-6


class TestLogGammaB:
    def test_d1_at_one(self):
        assert abs(log_gamma_B(BarnesParams(1.0, (1.0,)), Method.SERIES).value) <= 1e-12

    def test_d1_at_three(self):
        got = log_gamma_B(BarnesParams(3.0, (1.0,)), Method.SERIES).value
        assert abs(got - math.log(2)) <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.7])
    def test_d1_collapse_to_reference(self, a):
        got = log_gamma_B(BarnesParams(a, (1.0,)), Method.SERIES).value
        assert abs(got - log_gamma_ref(a)) <= 1e-9

    def test_best_route_carries_cross_check(self):
        res = log_gamma_B(BarnesParams(2.0, (1.0, 1.0)), "best")
        assert "cross_check_delta" in res.diagnostics["deriv0"]


class TestPsi:
    def test_digamma_at_one(self):
        got = psi_B(1, BarnesParams(1.0, (1.0,)), Method.SERIES).value
        assert abs(got + EULER_GAMMA) <= 1e-12

    def test_digamma_at_half(self):
        got = psi_B(1, BarnesParams(0.5, (1.0,)), Method.SERIES).value
        assert abs(got - (-EULER_GAMMA - 2 * math.log(2))) <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 1.3, 2.2])
    def test_d1_matches_termwise_digamma(self, a):
        got = psi_B(1, BarnesParams(a, (1.0,)), Method.SERIES).value
        assert abs(got - digamma_ref(a)) <= 1e-9

    def test_routes_agree(self, d2_params):
        s = psi_B(2, d2_params, Method.SERIES).value
        i = psi_B(2, d2_params, Method.INTEGRAL).value
        l = psi_B(2, d2_params, Method.LIMIT).value
        assert scaled_err(s, i) <= 1e-6
        assert scaled_err(s, l) <= 1e-4

    def test_relation_round_trip(self, d2_params):
        # recombining psi through the finite-part relation reproduces fp exactly
        q = 2
        fp = fp_series(q, d2_params).value
        res = residue(q, d2_params)
        psi = (-1.0) ** q * factorial(q - 1) * (fp + float(harmonic(q - 1)) * res)
        fp_back = (-1.0) ** q / factorial(q - 1) * psi - float(harmonic(q - 1)) * res
        assert abs(fp_back - fp) <= 1e-14 * (1 + abs(fp))

    def test_q_out_of_range(self):
        with pytest.raises(DomainError):
            psi_B(2, BarnesParams(1.0, (1.0,)))


class TestGammaModularForms:
    def test_euler_constant(self):
        got = gamma_dq(1, (1.0,), Method.SERIES).value
        assert abs(got - EULER_GAMMA) <= 1e-12

    def test_scaled_weight(self):
        got = gamma_dq(1, (2.0,), Method.SERIES).value
        assert abs(got - (EULER_GAMMA - math.log(2)) / 2) <= 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_routes_agree_d2(self, q):
        s = gamma_dq(q, (1.0, 1.0), Method.SERIES).value
        i = gamma_dq(q, (1.0, 1.0), Method.INTEGRAL).value
        assert scaled_err(s, i) <= 1e-6


class TestMultipleGamma:
    def test_d1_is_ordinary_gamma(self):
        assert abs(multiple_gamma(3.0, 1, Method.SERIES).value - math.log(2)) <= 1e-12
        got = multiple_gamma(0.5, 1, Method.SERIES).value
        assert abs(got - 0.5 * math.log(math.pi)) <= 1e-12

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_d2_routes_agree(self, a):
        s = multiple_gamma(a, 2, Method.SERIES).value
        i = multiple_gamma(a, 2, Method.INTEGRAL).value
        assert scaled_err(s, i) <= 1e-6


class TestExactIdentities:
    """Identities that hold exactly at every d, so each route is checked
    against a value it does not compute, within its own estimates."""

    ULP = 2.0 ** -52

    @pytest.mark.parametrize("method", ["best", "series", "integral"])
    @pytest.mark.parametrize("w", [(1.0, 2 ** 0.5), (1.0, 2 ** 0.5, math.pi / 4),
                                   (1.0, 1.3, 1.7, 2.1)], ids=["d2", "d3", "d4"])
    @pytest.mark.parametrize("a", [0.7, 0.3 + 0.2j])
    def test_barnes_functional_equation(self, a, w, method):
        # log Gamma_B(a|w) - log Gamma_B(a + w_1|w) = zeta'_(d-1)(0, a|w_2..w_d):
        # the lattice points with n_1 = 0; log rho cancels
        lhs = [log_gamma_B(BarnesParams(b, w), method) for b in (a, a + w[0])]
        rhs = evaluate("deriv0", BarnesParams(a, w[1:]), None, method)
        gap = abs(lhs[0].value - lhs[1].value - rhs.value)
        est = sum(r.abs_error_estimate for r in (*lhs, rhs))
        assert gap <= est + 8 * self.ULP * (1 + abs(rhs.value))

    @pytest.mark.parametrize("method", [*ROUTES["deriv0"], "best"])
    @pytest.mark.parametrize("a", [0.3, 1.0, 2.7, 0.5 + 0.4j])
    def test_unit_d2_derivative_is_hurwitz(self, a, method):
        # zeta_2(s, a|1, 1) = sum_m (m + 1)(a + m)^-s = zeta(s - 1, a) + (1 - a) zeta(s, a)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = complex(mpmath.zeta(-1, a, 1) + (1 - mpmath.mpmathify(a)) * mpmath.zeta(0, a, 1))
        res = evaluate("deriv0", BarnesParams(a, (1.0, 1.0)), None, method)
        assert abs(res.value - want) <= res.abs_error_estimate + 8 * self.ULP * (1 + abs(want))


class TestOrderGuard:
    """q outside the poles 1..d raises DomainError on every finite-part
    route, on the residues and on the Gamma family built on them; q = 0 in
    particular, which the shared route bodies read as the derivative at zero."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("offset", [0, -1, "d+1"])
    def test_raises(self, d, offset):
        q = d + 1 if offset == "d+1" else offset
        p = BarnesParams(0.7, (1.0, 2 ** 0.5, math.pi / 4)[:d])
        for params in (p, p.w):
            for route in ROUTES["fp"].values():
                with pytest.raises(DomainError):
                    route(q, params)
        for fn, params in ((residue, p), (residue, p.w), (psi_B, p), (gamma_dq, p.w)):
            with pytest.raises(DomainError):
                fn(q, params)


class TestEvaluate:
    def test_every_route_is_reachable(self, d2_params):
        for quantity, at in (("zeta", 0.5), ("fp", 1), ("deriv0", None)):
            for params in (d2_params, d2_params.w):
                for route in ROUTES[quantity]:
                    if route == "reduction":
                        continue      # needs equal weights or w = (1, n)
                    point = 5.0 if route == "direct" else at   # direct needs Re(alpha) > d
                    res = evaluate(quantity, params, point, route)
                    assert res.method.value == route

    # w = (1, 2) has a reduction in both forms, so every route reaches its
    # pole check.
    @pytest.mark.parametrize("homog", [False, True], ids=["inhomogeneous", "homogeneous"])
    @pytest.mark.parametrize("route", [*ROUTES["zeta"], "best"])
    def test_pole_message_names_the_form(self, route, homog):
        params = (1.0, 2.0) if homog else BarnesParams(0.7, (1.0, 2.0))
        with pytest.raises(PoleError) as exc:
            evaluate("zeta", params, 2, route)
        form = "homogeneous lattice zeta" if homog else "lattice zeta"
        assert str(exc.value) == f"{form} has a pole at alpha = 2" and exc.value.q == 2

    def test_matches_route_function(self, d2_params):
        got = evaluate("fp", d2_params, 2, "series").value
        assert got == fp_series(2, d2_params).value

    def test_method_member_or_name(self, d2_params):
        by_member = evaluate("zeta", d2_params, 0.5, Method.SERIES)
        by_name = evaluate("zeta", d2_params, 0.5, "series")
        assert by_member == by_name

    # Every route of the registry once per form; w = (1, 2) has a reduction
    # and alpha = 6.5 is inside the direct sum's region.
    @pytest.mark.parametrize("quantity, homog, route", [
        (q, h, r) for q in ROUTES for h in (False, True) for r in ROUTES[q]])
    def test_one_route_signature(self, quantity, homog, route):
        fn = ROUTES[quantity][route]
        params = inspect.signature(fn).parameters
        positional = [p for p in params.values() if p.kind is p.POSITIONAL_OR_KEYWORD]
        assert len(positional) == (1 if quantity == "deriv0" else 2)
        config = params["config"]
        assert config.kind is config.KEYWORD_ONLY and config.default is None
        rest = [p for p in params.values() if p not in positional]
        assert all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty for p in rest)
        p = BarnesParams(0.7, (1.0, 2.0))
        at = {"zeta": (6.5,), "fp": (1,), "deriv0": ()}[quantity]
        assert fn(*at, p.w if homog else p).method.value == route

    def test_reduction_route(self):
        for params in (BarnesParams(1.0, (1.0, 2.0)), (1.0, 2.0)):
            res = evaluate("zeta", params, 5.0, "reduction")
            assert res.method.value == "reduction"
        # the first homogeneous piece, zeta(alpha, 1 | 1, sqrt 2), has no reduction
        with pytest.raises(DomainError, match="needs equal weights"):
            ROUTES["zeta"]["reduction"](5.0, (1.0, 2 ** 0.5))

    @pytest.mark.parametrize("w", [(1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 3.0)])
    @pytest.mark.parametrize("alpha", [0.5, 2.5 + 1j, -1.5, 5.0])
    def test_homogeneous_reduction_matches_series(self, w, alpha):
        # the sum of the pieces zeta(alpha, w_i | w_i, ..., w_d) against the
        # homogeneous series, within the series' own estimate
        got = evaluate("zeta", w, alpha, "reduction").value
        want = zeta_series(alpha, w)
        assert abs(got - want.value) <= want.abs_error_estimate

    def test_weights_are_the_homogeneous_function(self):
        # Origin-excluded sum over n.w, w = (w1, w2): the terms with n1 >= 1
        # are the lattice at a = w1, those with n1 = 0 are w2^-alpha zeta(alpha).
        w = (1.0, 2 ** 0.5)
        for alpha in (0.5, 2.5 + 1j, -1.5):
            got = evaluate("zeta", w, alpha).value
            want = (evaluate("zeta", BarnesParams(w[0], w), alpha).value
                    + w[1] ** -alpha * hurwitz_zeta(alpha, 1.0))
            assert scaled_err(got, want) <= 1e-9
        got = evaluate("deriv0", w).value
        want = (evaluate("deriv0", BarnesParams(w[0], w)).value
                + 0.5 * math.log(w[1]) + hurwitz_zeta_ds(0.0, 1.0))
        assert scaled_err(got, want) <= 1e-9

    def test_no_homogeneous_flag(self):
        # the form is read from the params, so no flag can disagree with them
        for fn in (evaluate, log_rho, log_gamma_B, psi_B, gamma_dq, multiple_gamma):
            assert "homogeneous" not in inspect.signature(fn).parameters

    @pytest.mark.parametrize("quantity, params, at, method", [
        ("zeta", (1.0, 2 ** 0.5), 5.0, "reduction"),
        ("fp", BarnesParams(1.0, (1.0,)), 1, "direct"),
        ("deriv0", (1.0,), None, "bogus"),
        ("theta", (1.0,), None, "series"),
        ("fp", BarnesParams(1.0, (1.0,)), None, "series"),
        ("deriv0", BarnesParams(1.0, (1.0,)), 0.5, "series"),
    ])
    def test_unknown_combination_is_domain_error(self, quantity, params, at, method):
        with pytest.raises(DomainError):
            evaluate(quantity, params, at, method)

    @pytest.mark.parametrize("call", [
        lambda p: psi_B(1, p.w),
        lambda p: log_gamma_B(p.w),
        lambda p: gamma_dq(1, p),
        lambda p: log_rho(p),
    ], ids=["psi_B", "log_gamma_B", "gamma_dq", "log_rho"])
    def test_gamma_family_wrong_form_is_domain_error(self, call, d2_params):
        with pytest.raises(DomainError):
            call(d2_params)

    def test_best_raises_when_routes_disagree(self, d2_params, monkeypatch):
        honest = ROUTES["zeta"]["integral"]

        def wrong(alpha, p, config=None):
            res = honest(alpha, p, config=config)
            return EvalResult(res.value + 1e-6, 1e-15, Method.INTEGRAL, res.diagnostics)

        monkeypatch.setitem(ROUTES["zeta"], "integral", wrong)
        with pytest.raises(ConvergenceError) as exc:
            evaluate("zeta", d2_params, 0.5)
        diag = exc.value.diagnostics
        assert set(diag["series"]) == {"value", "abs_error_estimate"}
        want = complex(*diag["series"]["value"]) - complex(*diag["integral"]["value"])
        assert diag["cross_check_delta"] == pytest.approx(abs(want))

    @pytest.mark.parametrize("params", ["d2_params", "d3_params"])
    def test_best_returns_the_integral_value(self, params, request):
        p = request.getfixturevalue(params)
        calls = [("zeta", 0.5)] + [("fp", q) for q in range(1, p.d + 1)] + [("deriv0", None)]
        for arg in (p, p.w):
            for quantity, at in calls:
                best = evaluate(quantity, arg, at)
                integral = evaluate(quantity, arg, at, "integral")
                assert best.diagnostics["best_route"] == "integral"
                assert best.method is Method.INTEGRAL
                assert best.value == integral.value
                assert best.abs_error_estimate == integral.abs_error_estimate <= 1e-12
                assert "cross_check_delta" in best.diagnostics

    def test_gamma_family_rejects_unknown_route(self):
        with pytest.raises(DomainError):
            log_rho((1.0,), "direct")
