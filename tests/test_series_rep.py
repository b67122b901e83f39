import math

import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    ConvergenceError,
    DomainError,
    EvalConfig,
    PoleError,
    SeriesControls,
    barnes_zeta_series,
    deriv0_barnes_series,
    deriv0_bh_series,
    fp_barnes_series,
    fp_bh_series,
    hurwitz_zeta,
    residue,
    zeta_bh_series,
)
from barneszeta import series_rep as sr
from barneszeta.combinatorics import shell_values, subset_terms

from conftest import neville_to_zero, rel_err, scaled_err

EULER_GAMMA = 0.57721566490153286
LOG_2PI = math.log(2 * math.pi)
ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90
ZETA5 = 1.0369277551433699


class TestContinuation:
    def test_unit_d2_at_5(self):
        res = barnes_zeta_series(5.0, BarnesParams(1.0, (1.0, 1.0)))
        assert rel_err(res.value, ZETA4) <= 1e-11

    def test_unit_d2_below_abscissa(self):
        res = barnes_zeta_series(0.5, BarnesParams(1.0, (1.0, 1.0)))
        assert rel_err(res.value, hurwitz_zeta(-0.5, 1.0)) <= 1e-11

    def test_hurwitz_collapse_negative_alpha(self):
        res = barnes_zeta_series(-1.5, BarnesParams(0.3, (1.0,)))
        assert rel_err(res.value, hurwitz_zeta(-1.5, 0.3)) <= 1e-10

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            barnes_zeta_series(2.0, BarnesParams(1.0, (1.0, 1.0)))

    def test_region_guard(self):
        with pytest.raises(DomainError):
            barnes_zeta_series(-0.5, BarnesParams(1.0, (1.0,)), SeriesControls(k=0))

    @pytest.mark.parametrize("alpha", [0.5, -1.25, 2.5 + 1j])
    def test_k_independence(self, alpha):
        p = BarnesParams(0.7, (1.0, 2**0.5))
        base = max(1, math.ceil(-alpha.real if isinstance(alpha, complex) else -alpha) + 1) + 6
        v1 = barnes_zeta_series(alpha, p, SeriesControls(k=base)).value
        v2 = barnes_zeta_series(alpha, p, SeriesControls(k=base + 2)).value
        assert rel_err(v1, v2) <= 1e-9


class TestHomogeneous:
    def test_unit_d2_at_5(self):
        res = zeta_bh_series(5.0, (1.0, 1.0))
        assert rel_err(res.value, ZETA4 + ZETA5) <= 1e-11

    def test_d1_is_riemann(self):
        res = zeta_bh_series(2.0, (1.0,))
        assert rel_err(res.value, ZETA2) <= 1e-12

    def test_below_abscissa_reduction(self):
        # sum_{n>=1}(n+1)n^(-alpha) = zeta(alpha-1) + zeta(alpha)
        want = hurwitz_zeta(-0.5, 1.0) + hurwitz_zeta(0.5, 1.0)
        res = zeta_bh_series(0.5, (1.0, 1.0))
        assert rel_err(res.value, want) <= 1e-11


class TestFiniteParts:
    def test_d1_euler_constant(self):
        res = fp_barnes_series(1, BarnesParams(1.0, (1.0,)))
        assert abs(res.value - EULER_GAMMA) <= 1e-12

    def test_d2_reduction_to_euler(self):
        res = fp_barnes_series(2, BarnesParams(1.0, (1.0, 1.0)))
        assert abs(res.value - EULER_GAMMA) <= 1e-11

    def test_q_range(self):
        with pytest.raises(DomainError):
            fp_barnes_series(3, BarnesParams(1.0, (1.0, 1.0)))

    def test_homogeneous_d1(self):
        res = fp_bh_series(1, (1.0,))
        assert abs(res.value - EULER_GAMMA) <= 1e-12

    def test_homogeneous_d2(self):
        res = fp_bh_series(2, (1.0, 1.0))
        assert abs(res.value - (EULER_GAMMA + ZETA2)) <= 1e-11

    def test_k_independence(self):
        p = BarnesParams(0.7, (1.0, 2**0.5))
        v1 = fp_barnes_series(1, p, k=6).value
        v2 = fp_barnes_series(1, p, k=8).value
        assert scaled_err(v1, v2) <= 1e-9


class TestDerivativeAtZero:
    def test_d1_lerch(self):
        res = deriv0_barnes_series(BarnesParams(1.0, (1.0,)))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-12

    def test_d1_a3(self):
        res = deriv0_barnes_series(BarnesParams(3.0, (1.0,)))
        assert abs(res.value - (math.log(2) - 0.5 * LOG_2PI)) <= 1e-12

    def test_homogeneous_d1(self):
        res = deriv0_bh_series((1.0,))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-12

    def test_homogeneous_scaling(self):
        res = deriv0_bh_series((2.0,))
        want = 0.5 * math.log(2) - 0.5 * LOG_2PI
        assert abs(res.value - want) <= 1e-12


class TestPoleFactorCancellation:
    @pytest.mark.parametrize("q", [1, 2])
    def test_scaled_series_approaches_residue(self, q, d2_params):
        res = residue(q, d2_params)
        eps = (1e-2, 1e-3)
        vals = [barnes_zeta_series(q + e, d2_params).value * e for e in eps]
        ext = neville_to_zero(eps, vals)
        assert abs(ext - res) <= 1e-4 * (1 + abs(res))


class TestHomogeneousBridges:
    """fp/deriv0 of the homogeneous function as a -> 0 limits of the full one."""

    AVALS = (1e-2, 3e-3, 1e-3)
    CFG = EvalConfig(rel_tol=1e-13)

    @pytest.mark.parametrize("q", [1, 2])
    def test_fp_bridge(self, q, d2_params):
        w = d2_params.w
        vals = [
            fp_barnes_series(q, BarnesParams(a, w), self.CFG).value - a ** (-q)
            for a in self.AVALS
        ]
        ext = neville_to_zero(self.AVALS, vals)
        target = fp_bh_series(q, w).value
        assert abs(ext - target) <= 1e-5 * (1 + abs(target))

    def test_deriv_bridge(self, d2_params):
        w = d2_params.w
        vals = [
            deriv0_barnes_series(BarnesParams(a, w), self.CFG).value + math.log(a)
            for a in self.AVALS
        ]
        ext = neville_to_zero(self.AVALS, vals)
        target = deriv0_bh_series(w).value
        assert abs(ext - target) <= 1e-5 * (1 + abs(target))


def reference_shell(plan, subsets, y):
    """The per-subset, per-coefficient loop that the stacked kernel replaced.

    Returns the shell total, the noise estimate eps * sum |y^e0| and the sum
    of the absolute values of every term added, the scale of the rounding.
    """
    t = np.power(y, -plan.base_expo) if plan.base == "pow" else -np.log(y)
    t = t + plan.const
    size = np.abs(t)
    noise = None
    for _, sign, sigma in subsets:
        z = y + sigma
        logz = np.log(z)
        zp = np.power(z, plan.e_start)
        if noise is None:
            noise = np.finfo(np.float64).eps * float(np.sum(np.abs(zp)))
        for coeff, islog in zip(plan.coeffs, plan.logflags):
            term = (sign * coeff) * (zp * logz if islog else zp)
            t = t + term
            size = size + np.abs(term)
            zp = zp / z
    return complex(np.sum(t)), noise, float(np.sum(size))


D2W = (1.0, 2 ** 0.5)
D3W = (1.0, 2 ** 0.5, math.pi / 4)
D4W = (1.0, 1.3, 1.7, 2.1)
CPLXW = (1.0, 1.2 + 0.2j)
D4CW = (1.0, 1.3, 1.7, 2.1 + 0.4j)


class TestStackedKernel:
    """The stacked Horner kernel against the loop it replaced.

    Each case uses a small shift k and an inner shell, so the shell total is
    at least 100x the tolerance and a lost subset row or point block fails.
    """

    # (plan, a0, w, shell index, homogeneous, runs in float64)
    CASES = {
        "pow real": (lambda: sr._plan_generic(0.5, D2W, 2), 0.7, D2W, 2, False, True),
        "pow complex alpha": (lambda: sr._plan_generic(0.5 + 3j, D2W, 2), 0.7, D2W, 2, False, False),
        "pow negative alpha": (lambda: sr._plan_generic(-3.5, D3W, 5), 0.9, D3W, 2, False, True),
        "pow complex lattice": (lambda: sr._plan_generic(2.5, CPLXW, 1), 1 + 0.3j, CPLXW, 3, False, False),
        "pow homogeneous": (lambda: sr._plan_generic(-1.5, D3W, 3), 0.0, D3W, 2, True, True),
        "fp q=1 real": (lambda: sr._plan_fp(1, D3W, 1), 0.9, D3W, 2, False, True),
        "fp q=2 complex lattice": (lambda: sr._plan_fp(2, CPLXW, 1), 1 + 0.3j, CPLXW, 3, False, False),
        "fp homogeneous": (lambda: sr._plan_fp(2, D3W, 2), 0.0, D3W, 1, True, True),
        "neglog real": (lambda: sr._plan_deriv0(D2W, 2), 0.7, D2W, 2, False, True),
        "neglog complex lattice": (lambda: sr._plan_deriv0(CPLXW, 1), 1 + 0.3j, CPLXW, 2, False, False),
        "d4 pow, several blocks": (lambda: sr._plan_generic(0.5, D4W, 0), 0.3, D4W, 7, False, True),
        "d4 fp, several blocks": (lambda: sr._plan_fp(2, D4W, -1), 0.3, D4W, 7, False, True),
        "d4 fp complex, several blocks": (lambda: sr._plan_fp(2, D4CW, -1), 0.0, D4CW, 7, True, False),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_loop(self, name):
        make, a0, w, j, homog, _ = self.CASES[name]
        plan = make()
        y = shell_values(a0, w, j, skip_origin=homog)
        got, noise = sr._eval_shell(plan, sr._stack(plan, a0, w), y)
        want, want_noise, size = reference_shell(plan, subset_terms(w, include_empty=True), y)
        assert abs(want) >= 100 * 1e-13 * size
        assert abs(got - want) <= 1e-13 * size
        assert abs(noise - want_noise) <= 1e-13 * want_noise

    @pytest.mark.parametrize("name", CASES)
    def test_dtype_follows_data(self, name):
        make, a0, w, _, _, real = self.CASES[name]
        stack = sr._stack(make(), a0, w)
        want = np.float64 if real else np.complex128
        assert {v.dtype for v in stack} == {np.dtype(want)}

    def test_trailing_zeros_dropped(self):
        signs, sigmas, plain, logc, *_ = sr._stack(sr._plan_fp(2, D3W, 8), 0.9, D3W)
        assert len(logc) == 3 - 2 + 1
        assert len(plain) == 8 + 3 and plain[: len(logc)].tolist() == [0.0] * len(logc)
        assert signs.shape == (8,) and sigmas.shape == (8, 1)

    def test_multi_block_cases_span_blocks(self):
        for name in ("d4 pow, several blocks", "d4 fp, several blocks", "d4 fp complex, several blocks"):
            _, a0, w, j, homog, _ = self.CASES[name]
            assert shell_values(a0, w, j, skip_origin=homog).size > sr._BLOCK_ELEMS // 2 ** len(w)


class TestPointCounts:
    """The stopping rule, pinned through the lattice points each call sums."""

    D2 = BarnesParams(0.7, D2W)
    D3 = BarnesParams(0.9, D3W)
    D4 = BarnesParams(1.0, D4W)

    @pytest.mark.parametrize("call, shells, points", [
        (lambda c: barnes_zeta_series(0.5, c.D2), 9, 81),
        (lambda c: zeta_bh_series(0.5 + 3j, D2W), 11, 120),
        (lambda c: fp_barnes_series(1, c.D3), 11, 1331),
        (lambda c: fp_bh_series(2, D3W), 13, 2196),
        (lambda c: barnes_zeta_series(-1.5, c.D4), 5, 625),
        (lambda c: deriv0_barnes_series(c.D4), 7, 2401),
        (lambda c: deriv0_bh_series(D4W), 8, 4095),
    ])
    def test_points(self, call, shells, points):
        diag = call(self).diagnostics
        assert (diag["shells"], diag["points"]) == (shells, points)


class TestNonFiniteShell:
    """A shell that sums to NaN stops the route at once."""

    def test_inhomogeneous(self):
        with pytest.raises(ConvergenceError) as exc:
            barnes_zeta_series(0.5 + 1e300j, BarnesParams(1.0, (1.0, 1.0)))
        assert exc.value.diagnostics == {"shells": 1, "points": 1, "k": 11}

    def test_homogeneous(self):
        with pytest.raises(ConvergenceError) as exc:
            zeta_bh_series(0.5 + 1e300j, (1.0, 1.0))
        assert exc.value.diagnostics == {"shells": 2, "points": 3, "k": 11}
