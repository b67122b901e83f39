import inspect
import math
from math import factorial

import pytest

from barneszeta import (
    BarnesParams,
    ConvergenceError,
    DomainError,
    EvalResult,
    PoleError,
    gamma_dq,
    log_gamma_B,
    log_rho,
    multiple_gamma,
    psi_B,
    residue,
)
from barneszeta.barnes_functions import _EST_CAP, _ULP8, DEFAULT_METHOD, ROUTES, evaluate
from barneszeta.foundations import REL_TOL, harmonic
from barneszeta.limit_rep import fp_limit
from barneszeta.oracles import direct_sum, hurwitz_zeta, hurwitz_zeta_ds, log_gamma_ref
from barneszeta.series_rep import fp_series, zeta_series

from conftest import scaled_err
from references import digamma_ref

EULER_GAMMA = 0.57721566490153286
LOG_2PI = math.log(2 * math.pi)


def _stub(name, error=None, est=1e-14):
    """A zeta route that raises error, or else returns 0.5 with estimate est."""
    def route(alpha, p, rel_tol=REL_TOL):
        if error is not None:
            raise error
        return EvalResult(0.5 + 0j, est, name, {})
    return route


class TestLogRho:
    def test_unit_weight(self):
        assert abs(log_rho((1.0,), "series").value - 0.5 * LOG_2PI) <= 1e-12

    def test_scaled_weight(self):
        assert abs(log_rho((2.0,), "series").value - 0.5 * math.log(math.pi)) <= 1e-12

    def test_routes_agree_d2(self):
        s = log_rho((1.0, 1.0), "series").value
        i = log_rho((1.0, 1.0), "integral").value
        assert scaled_err(s, i) <= 1e-6


class TestLogGammaB:
    def test_d1_at_one(self):
        assert abs(log_gamma_B(BarnesParams(1.0, (1.0,)), "series").value) <= 1e-12

    def test_d1_at_three(self):
        got = log_gamma_B(BarnesParams(3.0, (1.0,)), "series").value
        assert abs(got - math.log(2)) <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.7])
    def test_d1_collapse_to_reference(self, a):
        got = log_gamma_B(BarnesParams(a, (1.0,)), "series").value
        assert abs(got - log_gamma_ref(a)) <= 1e-9

    def test_best_route_carries_cross_check(self):
        res = log_gamma_B(BarnesParams(2.0, (1.0, 1.0)), "best")
        assert "cross_check_delta" in res.diagnostics["deriv0"]


class TestPsi:
    def test_digamma_at_one(self):
        got = psi_B(1, BarnesParams(1.0, (1.0,)), "series").value
        assert abs(got + EULER_GAMMA) <= 1e-12

    def test_digamma_at_half(self):
        got = psi_B(1, BarnesParams(0.5, (1.0,)), "series").value
        assert abs(got - (-EULER_GAMMA - 2 * math.log(2))) <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 1.3, 2.2])
    def test_d1_matches_termwise_digamma(self, a):
        got = psi_B(1, BarnesParams(a, (1.0,)), "series").value
        assert abs(got - digamma_ref(a)) <= 1e-9

    def test_routes_agree(self, d2_params):
        s = psi_B(2, d2_params, "series").value
        i = psi_B(2, d2_params, "integral").value
        l = psi_B(2, d2_params, "limit").value
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
        got = gamma_dq(1, (1.0,), "series").value
        assert abs(got - EULER_GAMMA) <= 1e-12

    def test_scaled_weight(self):
        got = gamma_dq(1, (2.0,), "series").value
        assert abs(got - (EULER_GAMMA - math.log(2)) / 2) <= 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_routes_agree_d2(self, q):
        s = gamma_dq(q, (1.0, 1.0), "series").value
        i = gamma_dq(q, (1.0, 1.0), "integral").value
        assert scaled_err(s, i) <= 1e-6


class TestMultipleGamma:
    def test_d1_is_ordinary_gamma(self):
        assert abs(multiple_gamma(3.0, 1, "series").value - math.log(2)) <= 1e-12
        got = multiple_gamma(0.5, 1, "series").value
        assert abs(got - 0.5 * math.log(math.pi)) <= 1e-12

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_d2_routes_agree(self, a):
        s = multiple_gamma(a, 2, "series").value
        i = multiple_gamma(a, 2, "integral").value
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
                    assert res.method == route

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

    # Every route of the registry once per form, with exactly the signature
    # (alpha | q, params, *, rel_tol=REL_TOL), or (params, *, rel_tol=REL_TOL) for
    # the derivative at zero: a route chooses its own representation
    # parameters, so no knob of its own is a keyword.  w = (1, 2) has a
    # reduction and alpha = 6.5 is inside the direct sum's region.
    @pytest.mark.parametrize("quantity, homog, route", [
        (q, h, r) for q in ROUTES for h in (False, True) for r in ROUTES[q]])
    def test_one_route_signature(self, quantity, homog, route):
        fn = ROUTES[quantity][route]
        params = inspect.signature(fn).parameters
        point = {"zeta": ["alpha"], "fp": ["q"], "deriv0": []}[quantity]
        assert list(params) == [*point, "params", "rel_tol"]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in list(params.values())[:-1])
        rel_tol = params["rel_tol"]
        assert rel_tol.kind is rel_tol.KEYWORD_ONLY and rel_tol.default == REL_TOL
        p = BarnesParams(0.7, (1.0, 2.0))
        at = {"zeta": (6.5,), "fp": (1,), "deriv0": ()}[quantity]
        assert fn(*at, p.w if homog else p).method == route

    # A route has one name, its registry key, which labels every result it
    # returns, called directly or through `evaluate`; "best" takes the label
    # of the route it returns.
    @pytest.mark.parametrize("homog", [False, True], ids=["inhomogeneous", "homogeneous"])
    @pytest.mark.parametrize("quantity", list(ROUTES))
    def test_route_labels_are_registry_keys(self, quantity, homog):
        p = BarnesParams(0.7, (1.0, 2.0))
        params = p.w if homog else p
        at = {"zeta": 6.5, "fp": 1, "deriv0": None}[quantity]
        args = (params,) if at is None else (at, params)
        for name, fn in ROUTES[quantity].items():
            assert fn(*args).method == name
            assert evaluate(quantity, params, at, name).method == name
        best = evaluate(quantity, params, at)
        assert best.method == best.diagnostics["best_route"] in ("series", "integral")

    def test_reduction_route(self):
        for params in (BarnesParams(1.0, (1.0, 2.0)), (1.0, 2.0)):
            res = evaluate("zeta", params, 5.0, "reduction")
            assert res.method == "reduction"
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

        def wrong(alpha, p, rel_tol=REL_TOL):
            res = honest(alpha, p, rel_tol=rel_tol)
            return EvalResult(res.value + 1e-6, 1e-15, "integral", res.diagnostics)

        monkeypatch.setitem(ROUTES["zeta"], "integral", wrong)
        with pytest.raises(ConvergenceError) as exc:
            evaluate("zeta", d2_params, 0.5)
        diag = exc.value.diagnostics
        assert set(diag["series"]) == {"value", "abs_error_estimate"}
        want = complex(*diag["series"]["value"]) - complex(*diag["integral"]["value"])
        assert diag["cross_check_delta"] == pytest.approx(abs(want))

    # Stub routes whose values differ by just more or just less than the
    # sum of their estimates plus 8 ulp of (1 + |value|); the series, with
    # the smaller estimate, is returned at value 0, so the slack is 8 ulp.
    @pytest.mark.parametrize("side", [1 + 1e-9, 1 - 1e-9], ids=["above", "below"])
    def test_best_agreement_slack(self, d2_params, monkeypatch, side):
        est_s, est_i = 1e-13, 2e-13
        delta = side * (est_s + est_i + 8 * 2.0 ** -52)

        def stub(value, est, name):
            return lambda alpha, p, rel_tol=REL_TOL: EvalResult(value, est, name, {})

        monkeypatch.setitem(ROUTES["zeta"], "series", stub(0j, est_s, "series"))
        monkeypatch.setitem(ROUTES["zeta"], "integral", stub(complex(delta), est_i, "integral"))
        if side > 1:
            with pytest.raises(ConvergenceError, match="routes differ"):
                evaluate("zeta", d2_params, 0.5)
        else:
            res = evaluate("zeta", d2_params, 0.5)
            assert res.value == 0 and res.diagnostics["cross_check_delta"] == delta

    # Stub routes: a partner that raises ConvergenceError is skipped as one
    # past the cap is, and the other route returns, not cross-checked, with
    # the skipped route and its message in the diagnostics.
    @pytest.mark.parametrize("failing, other", [("integral", "series"), ("series", "integral")])
    def test_best_skips_a_partner_that_raises(self, d2_params, monkeypatch, failing, other):
        monkeypatch.setitem(ROUTES["zeta"], failing, _stub(failing, ConvergenceError("no settle")))
        monkeypatch.setitem(ROUTES["zeta"], other, _stub(other))
        res = evaluate("zeta", d2_params, 0.5)
        assert (res.value, res.abs_error_estimate, res.method) == (0.5, 1e-14, other)
        diag = res.diagnostics
        assert (diag["best_route"], diag["skipped_route"]) == (other, failing)
        assert diag["skipped_reason"] == "raised: no settle"
        assert diag["cross_check_delta"] is None and diag["cross_check_level"] is None

    def test_best_raises_with_one_route_raising_and_one_past_the_cap(self, d2_params,
                                                                     monkeypatch):
        failing = _stub("series", ConvergenceError("no settle"))
        monkeypatch.setitem(ROUTES["zeta"], "series", failing)
        monkeypatch.setitem(ROUTES["zeta"], "integral", _stub("integral", est=1.0))
        with pytest.raises(ConvergenceError) as exc:
            evaluate("zeta", d2_params, 0.5)
        assert str(exc.value) == ("zeta: series and integral routes both fail: series raised: "
                                  "no settle; integral 0.5+0j with error estimate 1.000e+00, "
                                  "past the cap")
        want = {"integral": {"value": [0.5, 0.0], "abs_error_estimate": 1.0}}
        assert exc.value.diagnostics == want

    # A DomainError or a PoleError of either route is no skip: it propagates.
    @pytest.mark.parametrize("failing", ["series", "integral"])
    @pytest.mark.parametrize("error", [DomainError("out of domain"), PoleError("at a pole")],
                             ids=["domain", "pole"])
    def test_best_propagates_domain_and_pole_errors(self, d2_params, monkeypatch, failing, error):
        monkeypatch.setitem(ROUTES["zeta"], failing, _stub(failing, error))
        with pytest.raises(type(error), match=str(error)):
            evaluate("zeta", d2_params, 0.5)

    def test_best_skips_the_raising_integral(self):
        # At alpha = -12.5 on (0.3; 1, 1) the exp-sinh rule does not settle,
        # and the series holds the value within the cap: "best" returns the
        # series' bits.  At -15.5 the series is past the cap as well.
        p = BarnesParams(0.3, (1.0, 1.0))
        best, series = evaluate("zeta", p, -12.5), zeta_series(-12.5, p)
        assert (best.value, best.abs_error_estimate) == (series.value, series.abs_error_estimate)
        assert best.method == "series" and best.diagnostics["skipped_route"] == "integral"
        assert best.diagnostics["skipped_reason"].startswith("raised: exp-sinh rule")
        with pytest.raises(ConvergenceError, match="series and integral routes both fail") as exc:
            evaluate("zeta", p, -15.5)
        assert "series 1.86299+0j with error estimate" in str(exc.value)
        assert "integral raised: exp-sinh rule" in str(exc.value)

    def test_best_cross_check_level(self, d2_params):
        # The level an independent route confirms: the partner's estimate
        # plus 8 ulp of (1 + |value|), and none when the partner was skipped.
        best = evaluate("zeta", d2_params, 0.5)
        partner = "series" if best.method == "integral" else "integral"
        est = evaluate("zeta", d2_params, 0.5, partner).abs_error_estimate
        assert best.diagnostics["cross_check_level"] == est + _ULP8 * (1.0 + abs(best.value))
        skipped = evaluate("zeta", BarnesParams(0.3, (1.0, 1.0)), -12.5)
        assert skipped.diagnostics["cross_check_level"] is None

    def test_one_default_method(self):
        # the library and the CLI share one default route
        for fn in (evaluate, log_rho, log_gamma_B, psi_B, gamma_dq, multiple_gamma):
            assert inspect.signature(fn).parameters["method"].default is DEFAULT_METHOD == "best"

    def test_best_skips_a_partner_past_the_cap(self):
        # On w = s (1, 8) the series stops on its noise floor, with an
        # estimate past the cap: "best" returns the integral route and says
        # that it was not cross-checked, and the series alone raises.
        p = BarnesParams(0.591179185, (1.8203125, 8 * 1.8203125))
        series, integral = (ROUTES["fp"][r](1, p) for r in ("series", "integral"))
        assert series.abs_error_estimate > _EST_CAP * (1.0 + abs(series.value))
        best = evaluate("fp", p, 1)
        assert (best.value, best.abs_error_estimate) == (integral.value,
                                                         integral.abs_error_estimate)
        assert best.method == best.diagnostics["best_route"] == "integral"
        assert best.diagnostics["skipped_route"] == "series"
        assert best.diagnostics["cross_check_delta"] is None
        with pytest.raises(ConvergenceError, match="past the cap"):
            evaluate("fp", p, 1, "series")

    def test_best_raises_with_both_routes_past_the_cap(self):
        # At 0.5+40i on (1; 1, 1) both estimates are past the cap (the series
        # 8.2e-3, the integral 9.5e12): "best" names both routes, with their
        # values and estimates, in its message and its diagnostics.
        with pytest.raises(ConvergenceError, match="both past the cap") as exc:
            evaluate("zeta", BarnesParams(1.0, (1.0, 1.0)), 0.5 + 40j)
        diag = exc.value.diagnostics
        for route in ("series", "integral"):
            value, est = complex(*diag[route]["value"]), diag[route]["abs_error_estimate"]
            assert est > _EST_CAP * (1.0 + abs(value))
            assert f"{route} {value:.6g} with error estimate {est:.3e}" in str(exc.value)

    @pytest.mark.parametrize("params", ["d2_params", "d3_params"])
    def test_best_returns_the_integral_value(self, params, request):
        p = request.getfixturevalue(params)
        calls = [("zeta", 0.5)] + [("fp", q) for q in range(1, p.d + 1)] + [("deriv0", None)]
        for arg in (p, p.w):
            for quantity, at in calls:
                best = evaluate(quantity, arg, at)
                integral = evaluate(quantity, arg, at, "integral")
                assert best.diagnostics["best_route"] == "integral"
                assert best.method == "integral"
                assert best.value == integral.value
                assert best.abs_error_estimate == integral.abs_error_estimate <= 1e-12
                assert "cross_check_delta" in best.diagnostics

    def test_gamma_family_rejects_unknown_route(self):
        with pytest.raises(DomainError):
            log_rho((1.0,), "direct")


# A tolerance that is not finite and positive is a DomainError on every path:
# evaluate checks it before any dispatch, and the series, the limit route and
# the direct sum, which read it, check it when called directly.
_BAD_TOLS = [0.0, -1e-10, math.nan, math.inf]


class TestTolerance:
    @pytest.mark.parametrize("rel_tol", _BAD_TOLS)
    def test_evaluate_checks_every_route(self, d2_params, rel_tol):
        at = {"zeta": 6.5, "fp": 1, "deriv0": None}
        for quantity, routes in ROUTES.items():
            for method in [*routes, "best"]:
                with pytest.raises(DomainError, match="rel_tol = .* finite positive"):
                    evaluate(quantity, d2_params, at[quantity], method, rel_tol)

    @pytest.mark.parametrize("rel_tol", _BAD_TOLS)
    @pytest.mark.parametrize("route", [
        lambda p, tol: zeta_series(6.5, p, rel_tol=tol),
        lambda p, tol: fp_limit(1, p, rel_tol=tol),
        lambda p, tol: direct_sum(6.5, p, rel_tol=tol),
    ], ids=["zeta_series", "fp_limit", "direct_sum"])
    def test_routes_check_when_called_directly(self, d2_params, route, rel_tol):
        with pytest.raises(DomainError, match="rel_tol = .* finite positive"):
            route(d2_params, rel_tol)
