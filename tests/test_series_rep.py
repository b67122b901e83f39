import math
import time
from itertools import combinations

import numpy as np
import pytest

from barneszeta import (
    BarnesParams,
    ConvergenceError,
    DomainError,
    PoleError,
    residue,
)
from barneszeta.oracles import hurwitz_zeta
from barneszeta.series_rep import deriv0_series, fp_series, zeta_series
from barneszeta import combinatorics, series_rep as sr
from barneszeta.combinatorics import CompensatedSum, shell_values
from barneszeta.foundations import EPS

from conftest import neville_to_zero, rel_err, scaled_err, series_at

EULER_GAMMA = 0.57721566490153286
LOG_2PI = math.log(2 * math.pi)
ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90
ZETA5 = 1.0369277551433699


class TestContinuation:
    def test_unit_d2_at_5(self):
        res = zeta_series(5.0, BarnesParams(1.0, (1.0, 1.0)))
        assert rel_err(res.value, ZETA4) <= 1e-11

    def test_unit_d2_below_abscissa(self):
        res = zeta_series(0.5, BarnesParams(1.0, (1.0, 1.0)))
        assert rel_err(res.value, hurwitz_zeta(-0.5, 1.0)) <= 1e-11

    def test_hurwitz_collapse_negative_alpha(self):
        res = zeta_series(-1.5, BarnesParams(0.3, (1.0,)))
        assert rel_err(res.value, hurwitz_zeta(-1.5, 0.3)) <= 1e-10

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            zeta_series(2.0, BarnesParams(1.0, (1.0, 1.0)))

    @pytest.mark.parametrize("a, alpha", [(2.5, -10.5), (0.7, -7.5)])
    def test_estimate_is_honest_at_negative_alpha(self, a, alpha):
        # Against the 40-digit closed form zeta_H(alpha - 1, a) + (1 - a)
        # zeta_H(alpha, a) on w = (1, 1): the errors are 0.086 and 0.056 of
        # the bound, and the estimate without its rounding term fails both.
        mpmath = pytest.importorskip("mpmath")
        res = zeta_series(alpha, BarnesParams(a, (1.0, 1.0)))
        with mpmath.workdps(40):
            want = complex(mpmath.zeta(alpha - 1, a) + (1 - a) * mpmath.zeta(alpha, a))
        slack = 8 * EPS * (1 + abs(want))
        assert abs(res.value - want) <= res.abs_error_estimate + slack

    @pytest.mark.parametrize("alpha", [0.5, -1.25, 2.5 + 1j])
    def test_k_independence(self, alpha, monkeypatch):
        p = BarnesParams(0.7, (1.0, 2**0.5))
        base = max(1, math.ceil(-alpha.real if isinstance(alpha, complex) else -alpha) + 1) + 6
        v1 = series_at(monkeypatch, base, zeta_series, alpha, p).value
        v2 = series_at(monkeypatch, base + 2, zeta_series, alpha, p).value
        assert rel_err(v1, v2) <= 1e-9


class TestHomogeneous:
    def test_unit_d2_at_5(self):
        res = zeta_series(5.0, (1.0, 1.0))
        assert rel_err(res.value, ZETA4 + ZETA5) <= 1e-11

    def test_d1_is_riemann(self):
        res = zeta_series(2.0, (1.0,))
        assert rel_err(res.value, ZETA2) <= 1e-12

    def test_below_abscissa_reduction(self):
        # sum_{n>=1}(n+1)n^(-alpha) = zeta(alpha-1) + zeta(alpha)
        want = hurwitz_zeta(-0.5, 1.0) + hurwitz_zeta(0.5, 1.0)
        res = zeta_series(0.5, (1.0, 1.0))
        assert rel_err(res.value, want) <= 1e-11


class TestFiniteParts:
    def test_d1_euler_constant(self):
        res = fp_series(1, BarnesParams(1.0, (1.0,)))
        assert abs(res.value - EULER_GAMMA) <= 1e-12

    def test_d2_reduction_to_euler(self):
        res = fp_series(2, BarnesParams(1.0, (1.0, 1.0)))
        assert abs(res.value - EULER_GAMMA) <= 1e-11

    def test_q_range(self):
        with pytest.raises(DomainError):
            fp_series(3, BarnesParams(1.0, (1.0, 1.0)))

    def test_homogeneous_d1(self):
        res = fp_series(1, (1.0,))
        assert abs(res.value - EULER_GAMMA) <= 1e-12

    def test_homogeneous_d2(self):
        res = fp_series(2, (1.0, 1.0))
        assert abs(res.value - (EULER_GAMMA + ZETA2)) <= 1e-11

    def test_k_independence(self, monkeypatch):
        p = BarnesParams(0.7, (1.0, 2**0.5))
        v1 = series_at(monkeypatch, 6, fp_series, 1, p).value
        v2 = series_at(monkeypatch, 8, fp_series, 1, p).value
        assert scaled_err(v1, v2) <= 1e-9


class TestDerivativeAtZero:
    def test_d1_lerch(self):
        res = deriv0_series(BarnesParams(1.0, (1.0,)))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-12

    def test_d1_a3(self):
        res = deriv0_series(BarnesParams(3.0, (1.0,)))
        assert abs(res.value - (math.log(2) - 0.5 * LOG_2PI)) <= 1e-12

    def test_homogeneous_d1(self):
        res = deriv0_series((1.0,))
        assert abs(res.value + 0.5 * LOG_2PI) <= 1e-12

    def test_homogeneous_scaling(self):
        res = deriv0_series((2.0,))
        want = 0.5 * math.log(2) - 0.5 * LOG_2PI
        assert abs(res.value - want) <= 1e-12


class TestPoleFactorCancellation:
    @pytest.mark.parametrize("q", [1, 2])
    def test_scaled_series_approaches_residue(self, q, d2_params):
        res = residue(q, d2_params)
        eps = (1e-2, 1e-3)
        vals = [zeta_series(q + e, d2_params).value * e for e in eps]
        ext = neville_to_zero(eps, vals)
        assert abs(ext - res) <= 1e-4 * (1 + abs(res))


class TestHomogeneousBridges:
    """fp/deriv0 of the homogeneous function as a -> 0 limits of the full one."""

    AVALS = (1e-2, 3e-3, 1e-3)
    TOL = 1e-13

    @pytest.mark.parametrize("q", [1, 2])
    def test_fp_bridge(self, q, d2_params):
        w = d2_params.w
        vals = [
            fp_series(q, BarnesParams(a, w), rel_tol=self.TOL).value - a ** (-q)
            for a in self.AVALS
        ]
        ext = neville_to_zero(self.AVALS, vals)
        target = fp_series(q, w).value
        assert abs(ext - target) <= 1e-5 * (1 + abs(target))

    def test_deriv_bridge(self, d2_params):
        w = d2_params.w
        vals = [
            deriv0_series(BarnesParams(a, w), rel_tol=self.TOL).value + math.log(a)
            for a in self.AVALS
        ]
        ext = neville_to_zero(self.AVALS, vals)
        target = deriv0_series(w).value
        assert abs(ext - target) <= 1e-5 * (1 + abs(target))


def reference_shell(plan, w, y, base=True):
    """The per-point loop over every subset of the weights w, the empty one
    first, and every ladder coefficient.

    Returns the shell total, the noise estimate eps * sum |y^e0| and the sum
    of the absolute values of every term added, the scale of the rounding.
    With base=False the total is the ladder part sum_y G[f](y) alone.
    """
    t = -np.log(y) if plan.neglog else np.power(y, -plan.base_expo)
    t = t + plan.const if base else np.zeros_like(t)
    size = np.abs(t)
    noise = None
    d = len(w)
    for S in (S for n in range(d + 1) for S in combinations(w, n)):
        sign, z = (-1.0) ** (d - len(S)), y + sum(S)
        logz = np.log(z)
        zp = np.power(z, plan.e0)
        if noise is None:
            noise = np.finfo(np.float64).eps * float(np.sum(np.abs(zp)))
        for m in range(max(plan.plain.size, plan.logc.size)):
            for row, factor in ((plan.plain, 1.0), (plan.logc, logz)):
                if m < row.size:
                    term = (sign * row[m]) * (zp * factor)
                    t = t + term
                    size = size + np.abs(term)
            zp = zp / z
    return complex(np.sum(t)), noise, float(np.sum(size))


D2W = (1.0, 2 ** 0.5)
D3W = (1.0, 2 ** 0.5, math.pi / 4)
D4W = (1.0, 1.3, 1.7, 2.1)
CPLXW = (1.0, 1.2 + 0.2j)
D4CW = (1.0, 1.3, 1.7, 2.1 + 0.4j)


def generic(alpha, k):
    """Plans of the zeta summand at alpha and shift k, by lattice: (a0, w, homog) -> plan."""
    return lambda a0, w, homog: sr._plan_generic(alpha, a0, w, k, homog)[0]


def pole(q, k):
    """Plans of the finite part at q (q = 0: the derivative at zero), by lattice."""
    return lambda a0, w, homog: sr._plan_pole(q, a0, w, k, homog)[0]


def kernel_shell(plan, a0, w, j, homog):
    """Shell total as the series sums it: the per-point part plus C(j) - C(j-1).

    A shell with no imaginary part goes through the float64 per-point path."""
    y = shell_values(a0, w, j, skip_origin=homog)
    part, noise = sr._eval_shell(plan, y if y.imag.any() else y.real)
    before, at = sr._corner_sums(plan, np.arange(j + 0.0, j + 2.0), homog)
    corners = at - before
    return part + corners, noise


class TestStackedKernel:
    """The shell kernel, per-point part plus far-corner difference, against
    the per-point loop over every subset.

    Each case uses a small shift k and an inner shell, so the shell total is
    at least 100x the tolerance and a lost subset, log factor or coefficient
    fails.  The d = 4 shells hold over a thousand points each.
    """

    # (plan builder, a0, w, shell index, homogeneous, kernel runs in float64)
    CASES = {
        "pow real": (generic(0.5, 2), 0.7, D2W, 2, False, True),
        "pow complex alpha": (generic(0.5 + 3j, 2), 0.7, D2W, 2, False, False),
        "pow negative alpha": (generic(-3.5, 5), 0.9, D3W, 2, False, True),
        "pow complex lattice": (generic(2.5, 1), 1 + 0.3j, CPLXW, 3, False, False),
        "pow homogeneous": (generic(-1.5, 3), 0.0, D3W, 2, True, True),
        "fp q=1 real": (pole(1, 1), 0.9, D3W, 2, False, True),
        "fp q=2 complex lattice": (pole(2, 1), 1 + 0.3j, CPLXW, 3, False, False),
        "fp homogeneous": (pole(2, 2), 0.0, D3W, 1, True, True),
        "neglog real": (pole(0, 2), 0.7, D2W, 2, False, True),
        "neglog complex lattice": (pole(0, 1), 1 + 0.3j, CPLXW, 2, False, False),
        "d4 pow, several blocks": (generic(0.5, 0), 0.3, D4W, 7, False, True),
        "d4 fp, several blocks": (pole(2, -1), 0.3, D4W, 7, False, True),
        "d4 fp complex, several blocks": (pole(2, -1), 0.0, D4CW, 7, True, False),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_loop(self, name):
        make, a0, w, j, homog, _ = self.CASES[name]
        plan = make(a0, w, homog)
        got, noise = kernel_shell(plan, a0, w, j, homog)
        y = shell_values(a0, w, j, skip_origin=homog)
        want, want_noise, size = reference_shell(plan, w, y)
        assert abs(want) >= 100 * 1e-13 * size
        assert abs(got - want) <= 1e-13 * size
        assert abs(noise - want_noise) <= 1e-13 * want_noise

    @pytest.mark.parametrize("name", CASES)
    def test_dtype_follows_data(self, name):
        make, a0, w, _, homog, real = self.CASES[name]
        arrays = make(a0, w, homog)[:8]
        want = np.float64 if real else np.complex128
        assert {v.dtype for v in arrays} == {np.dtype(want)}

    def test_trailing_zeros_dropped(self):
        signs, sigmas, plain, logc, *_ = pole(2, 8)(0.9, D3W, False)
        assert len(logc) == 3 - 2 + 1
        assert len(plain) == 8 + 3 and plain[: len(logc)].tolist() == [0.0] * len(logc)
        assert signs.shape == sigmas.shape == (8,)


class TestKernelBits:
    """The shell kernel, bit for bit against its reference expressions:
    complex(np.sum(t) + const * n) for the per-point part, with t the
    summand base(y), and eps * np.sum(np.abs(np.power(y, e0))) for the noise,
    whose exponent on a real lattice is Re(e0)."""

    PLANS = {
        "pow": generic(0.5, 2),
        "pow negative alpha": generic(-3.5, 5),
        "pow complex alpha": generic(0.5 + 3j, 2),
        "fp": pole(1, 2),
        "neglog": pole(0, 2),
    }

    @staticmethod
    def reference(plan, y):
        e0, base_expo, const = plan.e0, plan.base_expo, plan.const
        real = y.dtype == np.float64
        if plan.neglog:
            t = -np.log(y)
        elif real and base_expo.dtype == np.complex128:
            t = np.exp(-base_expo * np.log(y))
        else:
            t = np.power(y, -base_expo)
        noise = np.abs(np.power(y, e0.real if real else e0))
        return complex(np.sum(t) + const * y.size), EPS * float(np.sum(noise))

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("homog", [False, True], ids=["inhomogeneous", "homogeneous"])
    @pytest.mark.parametrize("w, a0", [(D3W, 0.9), (CPLXW, 1 + 0.3j)], ids=["real", "complex"])
    def test_matches_reference(self, w, a0, homog, plan):
        a0 = 0.0 if homog else a0
        made = self.PLANS[plan](a0, w, homog)
        for j in range(1, 9):
            y = shell_values(a0, w, j, skip_origin=homog)
            # repr tells every float apart, -0.0 from 0.0 included
            assert repr(sr._eval_shell(made, y)) == repr(self.reference(made, y))


class TestPointBudget:
    """The walk raises ConvergenceError before a shell that would take it past
    MAX_POINTS points without meeting the stopping rule: the budget bounds
    the points it ever holds, not only those it has summed."""

    @pytest.mark.parametrize("alpha", [0.5, -1.5])
    def test_tiny_weights_raise_in_time(self, alpha):
        # On these weights the stopping rule is out of reach; without the
        # budget the walk was still running after 20 s.
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError, match="budget") as exc:
            zeta_series(alpha, (1e-6, 1e-6, 3e-6))
        assert time.perf_counter() - t0 < 3.0
        diag = exc.value.diagnostics
        # The walk stops before the first shell that would take it past the
        # budget: shell j = diag["shells"] holds (j+1)^3 - j^3 points.
        j = diag["shells"]
        assert diag["points"] == j ** 3 - 1
        assert diag["points"] <= combinatorics.MAX_POINTS < diag["points"] + (j + 1) ** 3 - j ** 3

    def test_budget_counts_points(self, monkeypatch):
        # The homogeneous finite part at 2 on D3's weights needs 13 shells,
        # 2196 points; a budget of 1000 stops the walk before shell 10, the
        # first that would take the points past it: 10^3 - 1 = 999 summed,
        # 11^3 - 1 = 1330 with it.
        monkeypatch.setattr(combinatorics, "MAX_POINTS", 1000)
        with pytest.raises(ConvergenceError, match="shell 10 would .* budget") as exc:
            fp_series(2, D3W)
        assert exc.value.diagnostics == {"shells": 10, "points": 999, "k": 8}

    @pytest.mark.parametrize("homog", [False, True], ids=["inhomogeneous", "homogeneous"])
    def test_budget_exactly_met(self, homog, monkeypatch):
        # A walk may end its summing exactly at the budget: with a budget of
        # 10^3 (10^3 - 1 homogeneous) points, ten shells fit and the eleventh
        # does not.
        monkeypatch.setattr(combinatorics, "MAX_POINTS", 1000 - homog)
        params = D3W if homog else BarnesParams(0.9, D3W)
        with pytest.raises(ConvergenceError, match="shell 10 would") as exc:
            series_at(monkeypatch, 0, fp_series, 2, params)
        assert exc.value.diagnostics == {"shells": 10, "points": 1000 - homog, "k": 0}

    def test_shell_cap_raises(self, monkeypatch):
        # Past MAX_SHELLS the walk raises with the shells it summed, 0..2.
        monkeypatch.setattr(combinatorics, "MAX_SHELLS", 2)
        with pytest.raises(ConvergenceError, match="hit MAX_SHELLS") as exc:
            zeta_series(0.5, BarnesParams(0.7, (1.0, 2.0)))
        assert exc.value.diagnostics == {"shells": 3, "points": 9, "k": 11}


D1W = (1.3,)
D3CW = (1.0, 1.2 + 0.2j, 0.8)


class TestBoxIdentity:
    """The telescoping lemma for the series ladder: the ladder part of every
    shell up to J, summed point by point, is C(J) (less C(0) for the
    homogeneous forms, which skip the origin)."""

    # (plan builder, a0, w, J, homogeneous)
    CASES = {
        "d1 pow real": (generic(0.5, 2), 0.3, D1W, 9, False),
        "d1 neglog homogeneous": (pole(0, 2), 0.0, D1W, 9, True),
        "d1 fp complex lattice": (pole(1, 1), 0.6 + 0.2j, (1.1 + 0.4j,), 9, False),
        "d2 pow complex alpha homogeneous": (generic(0.5 + 3j, 2), 0.0, D2W, 6, True),
        "d2 fp complex lattice": (pole(1, 1), 1 + 0.3j, CPLXW, 6, False),
        "d2 neglog real": (pole(0, 2), 0.7, D2W, 6, False),
        "d3 pow complex lattice": (generic(-1.5, 3), 0.9 + 0.1j, D3CW, 5, False),
        "d3 fp homogeneous": (pole(2, 2), 0.0, D3W, 5, True),
        "d3 neglog complex homogeneous": (pole(0, 2), 0.0, D3CW, 5, True),
        "d4 pow real": (generic(0.5, 0), 0.3, D4W, 7, False),
        "d4 fp real": (pole(2, -1), 0.3, D4W, 7, False),
        "d4 fp complex homogeneous": (pole(2, -1), 0.0, D4CW, 7, True),
        "d4 neglog complex lattice": (pole(0, 1), 0.5 + 0.2j, D4CW, 5, False),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_box_sum_is_far_corner(self, name):
        make, a0, w, J, homog = self.CASES[name]
        plan = make(a0, w, homog)
        want = size = 0.0
        for j in range(J + 1):
            y = shell_values(a0, w, j, skip_origin=homog)
            if y.size:
                total, _, sz = reference_shell(plan, w, y, base=False)
                want, size = want + total, size + sz
        corners = sr._corner_sums(plan, np.arange(1.0, J + 2.0), homog)
        got = corners[J] - corners[0] if homog else corners[J]
        assert abs(want) >= 100 * 1e-13 * size
        assert abs(got - want) <= 1e-13 * size


def corner_sum(plan, j, homog):
    """C(j) on its own, one ladder call on the far corners of {0..j}^d, and
    the summed size of its terms c_m z^(e0-m) (log z)."""
    signs, sigmas, plain, logc, a0, e0 = plan[:6]
    lo = 1 if homog else 0
    z = a0 + (j + 1) * sigmas[lo:]
    zc = z.astype(np.complex128)
    m = np.arange(max(plain.size, logc.size))
    powers = np.abs(np.power(zc, e0)[:, None] * np.power(1.0 / zc[:, None], m))
    size = np.sum(powers[:, :plain.size] @ np.abs(plain))
    size += np.sum(np.abs(np.log(zc)) * (powers[:, :logc.size] @ np.abs(logc)))
    return complex(signs[lo:] @ sr._ladder(plan, z)), float(size)


W6 = (1.0, 1.3, 1.7, 2.1, 2.6, 3.1)
W6C = (1.0, 1.2 + 0.2j, 0.8, 1.5 - 0.1j, 2.0, 1.1 + 0.3j)


class TestBlockedCorners:
    """One ladder call gives the corner sums of a block of shells; each must
    match C(j) formed on its own, shell by shell."""

    PLANS = {
        "pow": generic(0.5 + 1j, 2),
        "fp": pole(1, 2),
        "neglog": pole(0, 2),
    }

    @pytest.mark.parametrize("homog", [False, True], ids=["inhomogeneous", "homogeneous"])
    @pytest.mark.parametrize("w, a0", [(W6, 0.8), (W6C, 0.6 + 0.1j)], ids=["real", "complex"])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_block_matches_each_shell(self, d, w, a0, homog):
        w, a0 = w[:d], 0.0 if homog else a0
        for make in self.PLANS.values():
            plan = make(a0, w, homog)
            for j0, count in ((0, 8), (8, 8), (16, 5)):
                got = sr._corner_sums(plan, np.arange(j0 + 1.0, j0 + count + 1.0), homog)
                assert got.shape == (count,)
                for i, j in enumerate(range(j0, j0 + count)):
                    want, size = corner_sum(plan, j, homog)
                    assert abs(got[i] - want) <= 1e-13 * size

    @pytest.mark.parametrize("w, k, shells", [(W6[:4], 1, 21), (W6[:5], 1, 10)], ids=["d4", "d5"])
    def test_walk_into_face_built_shells(self, w, k, shells, monkeypatch):
        """A walk past the shells of the cached grid, (k+1)^d > 2^16, whose
        last shells are built face by face, against the shell-by-shell sum
        of its per-point parts plus the last C(j) formed on its own."""
        monkeypatch.setattr(combinatorics, "MAX_SHELLS", 2 * shells)
        res = series_at(monkeypatch, k, zeta_series, 0.5, w)
        assert res.diagnostics["shells"] == shells and shells ** len(w) > 2 ** 16
        plan = generic(0.5, k)(0.0, w, True)
        parts = CompensatedSum()
        points = 0
        for j in range(shells):
            y = shell_values(0.0, w, j, skip_origin=True)
            if y.size:
                parts.add(sr._eval_shell(plan, y)[0])
                points += y.size
        corner, size = corner_sum(plan, shells - 1, True)
        assert res.diagnostics["points"] == points
        assert abs(res.value - (parts.value + corner)) <= 1e-13 * size


class TestLadderWork:
    """The ladder runs on the 2^d far corners of each shell, one call per
    block of shells, never per point, and the per-point part of a real
    lattice stays real at complex alpha."""

    def test_at_most_two_to_the_d_per_shell(self, monkeypatch):
        sizes = []
        ladder = sr._ladder

        def counted(plan, z):
            sizes.append(z.size)
            return ladder(plan, z)

        monkeypatch.setattr(sr, "_ladder", counted)
        monkeypatch.setattr(combinatorics, "MAX_SHELLS", 16)
        diag = deriv0_series(D4W).diagnostics
        assert diag["points"] == 4095
        block = sr._CORNER_BLOCK
        assert len(sizes) <= -(-diag["shells"] // block)
        assert max(sizes) <= 2 ** 4 * block
        assert sum(sizes) <= 2 ** 4 * (diag["shells"] + block)

    def test_real_lattice_points_stay_float64(self, monkeypatch):
        dtypes = set()
        eval_shell = sr._eval_shell

        def seen(plan, y):
            dtypes.add(y.dtype)
            return eval_shell(plan, y)

        monkeypatch.setattr(sr, "_eval_shell", seen)
        # They need 9 and 12 shells; the cap turns a broken stopping rule
        # into a ConvergenceError instead of a long walk.
        monkeypatch.setattr(combinatorics, "MAX_SHELLS", 16)
        zeta_series(0.5 + 3j, BarnesParams(0.7, D2W))
        zeta_series(0.5 + 3j, D3W)
        assert dtypes == {np.dtype(np.float64)}


class TestPointCounts:
    """The stopping rule, pinned through the lattice points each call sums."""

    D2 = BarnesParams(0.7, D2W)
    D3 = BarnesParams(0.9, D3W)
    D4 = BarnesParams(1.0, D4W)

    @pytest.mark.parametrize("call, shells, points", [
        (lambda c: zeta_series(0.5, c.D2), 9, 81),
        (lambda c: zeta_series(0.5 + 3j, D2W), 11, 120),
        (lambda c: fp_series(1, c.D3), 11, 1331),
        (lambda c: fp_series(2, D3W), 13, 2196),
        (lambda c: zeta_series(-1.5, c.D4), 5, 625),
        (lambda c: deriv0_series(c.D4), 7, 2401),
        (lambda c: deriv0_series(D4W), 8, 4095),
        (lambda c: fp_series(2, BarnesParams(1 + 0.3j, CPLXW)), 10, 100),
        (lambda c: deriv0_series(D2W), 10, 99),
    ])
    def test_points(self, call, shells, points, monkeypatch):
        # A few shells above the need: a broken stopping rule raises
        # ConvergenceError instead of walking on.
        monkeypatch.setattr(combinatorics, "MAX_SHELLS", shells + 4)
        diag = call(self).diagnostics
        assert (diag["shells"], diag["points"]) == (shells, points)


class TestNonFiniteShell:
    """A shell that sums to NaN stops the route at once."""

    def test_inhomogeneous(self):
        with pytest.raises(ConvergenceError) as exc:
            zeta_series(0.5 + 1e300j, BarnesParams(1.0, (1.0, 1.0)))
        assert exc.value.diagnostics == {"shells": 1, "points": 1, "k": 11}

    def test_homogeneous(self):
        with pytest.raises(ConvergenceError) as exc:
            zeta_series(0.5 + 1e300j, (1.0, 1.0))
        assert exc.value.diagnostics == {"shells": 2, "points": 3, "k": 11}
