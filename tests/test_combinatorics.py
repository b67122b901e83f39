import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barneszeta import BarnesParams, ConvergenceError, DomainError
from barneszeta import combinatorics
from barneszeta.combinatorics import (
    CompensatedSum,
    f_symbol_sum,
    neville_diagonal,
    shell_values,
)
from barneszeta.oracles import direct_sum

from references import (
    BudgetError,
    bracket_sum,
    cube_bracket_sum,
    cube_indices,
    f_symbol,
    g_symbol,
    neville_in_reciprocal,
    shell_indices,
)

complex_small = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)
weights = st.lists(
    st.floats(min_value=0.3, max_value=2.5).map(lambda x: complex(round(x, 3), 0.1)),
    min_size=1,
    max_size=4,
)


def prod(w):
    out = 1.0 + 0j
    for x in w:
        out *= x
    return out


class TestFSymbol:
    """combinatorics.f_symbol_sum, against the identities and the reference."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_constant_one(self, d):
        w = tuple(0.5 + 0.25 * i for i in range(d))
        assert f_symbol_sum(lambda x: 1.0, 0.3, w).value == pytest.approx((-1.0) ** (d - 1))

    @pytest.mark.parametrize("d,l", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
    def test_monomials_vanish(self, d, l):
        w = tuple(0.4 + 0.3 * i for i in range(d))
        scale = sum(abs(x) for x in w) ** l
        assert abs(f_symbol_sum(lambda x: x**l, 0.0, w).value) <= 1e-12 * scale

    def test_single_weight(self):
        assert f_symbol_sum(lambda x: x * x, 2.0, (3.0,)).value == 25.0

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_reference(self, d):
        w = tuple(0.4 + 0.3 * i + 0.1j * (i % 2) for i in range(d))
        f = lambda z: z ** 2.5 * cmath.log(z)
        acc = f_symbol_sum(f, 0.7, w)
        assert abs(acc.value - f_symbol(f, 0.7, w)) <= 1e-15 * acc.mass

    def test_failure_propagates_unchanged(self):
        class Boom(Exception):
            pass

        def bad(x):
            raise Boom(x)

        with pytest.raises(Boom) as err:
            f_symbol_sum(bad, 0.0, (1.0, 2.0))
        assert err.value.args == (1.0 + 0j,)


class TestGSymbol:
    @settings(max_examples=25, deadline=None)
    @given(complex_small, weights)
    def test_annihilates_constants(self, c, w):
        assert abs(g_symbol(lambda x: c, 0.7, tuple(w))) <= 1e-13 * (1 + abs(c))

    @settings(max_examples=25, deadline=None)
    @given(complex_small, weights)
    def test_annihilates_low_degree(self, c, w):
        d = len(w)
        scale = (abs(c) + sum(abs(x) for x in w)) ** d
        for n in range(d):
            val = g_symbol(lambda x, n=n: (c + x) ** n, c, tuple(w))
            assert abs(val) <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(complex_small, weights)
    def test_top_degree_value(self, c, w):
        d = len(w)
        want = math.factorial(d) * prod(w)
        got = g_symbol(lambda x: (c + x) ** d, c, tuple(w))
        scale = abs(want) + (abs(c) + sum(abs(x) for x in w)) ** d
        assert abs(got - want) <= 1e-12 * scale


class TestBracket:
    def test_one_dimensional(self):
        u = lambda n: (n[0] + 1.0) ** 2
        assert bracket_sum(u, (2,), (3,)) == u((5,)) - u((2,))

    def test_zero_step(self):
        u = lambda n: math.exp(0.1 * n[0] + 0.2 * n[1])
        assert bracket_sum(u, (1, 2), (0, 0)) == 0

    def test_two_dimensional_product(self):
        u = lambda n: n[0] * n[1]
        assert bracket_sum(u, (0, 0), (1, 1)) == 1.0

    def test_bridge_to_g_symbol(self):
        # G[u(a + n.w + x)]_{x=w} = [u~(n)]_1 with u~(n) = u(a + n.w)
        a, w = 0.4, (0.9, 1.7)
        f = lambda z: z**2 * cmath.log(z)
        n = (2, 1)
        y = a + n[0] * w[0] + n[1] * w[1]
        lhs = g_symbol(f, y, w)
        u = lambda m: f(a + m[0] * w[0] + m[1] * w[1])
        rhs = bracket_sum(u, n, (1, 1))
        assert lhs == pytest.approx(rhs, abs=1e-13)


class TestCubeBracket:
    def test_one_dimensional_telescope(self):
        u = lambda n: (n[0] + 0.5) ** 3
        res = cube_bracket_sum(u, 4, 1)
        assert res.lhs == pytest.approx(u((5,)) - u((0,)))
        assert res.value == pytest.approx(res.lhs)

    def test_two_dimensional_exponential(self):
        u = lambda n: math.exp(0.1 * n[0] + 0.2 * n[1])
        res = cube_bracket_sum(u, 3, 2)
        assert abs(res.lhs - res.rhs) <= 1e-12 * (1 + abs(res.rhs))

    def test_three_dimensional_polynomial(self):
        u = lambda n: (1 + n[0]) * (2 + n[1]) ** 2 + 0.3 * n[2] ** 3
        res = cube_bracket_sum(u, 2, 3)
        assert abs(res.lhs - res.rhs) <= 1e-12 * (1 + abs(res.rhs))

    def test_budget(self):
        with pytest.raises(BudgetError):
            cube_bracket_sum(lambda n: 1.0, 1000, 3, budget=100)

    def test_explicit_side_evaluates_each_point_once(self):
        seen = []

        def u(n):
            seen.append(n)
            return math.exp(0.1 * n[0] - 0.2 * n[1] + 0.05 * n[2])

        M, d = 3, 3
        cube_bracket_sum(u, M, d, explicit=False)
        corner_calls = len(seen)
        seen.clear()
        res = cube_bracket_sum(u, M, d)
        # (M+2)^d distinct points on the explicit side, plus the 2^d corners
        assert len(seen) == (M + 2) ** d + corner_calls
        assert abs(res.lhs - res.rhs) <= 1e-12 * (1 + abs(res.rhs))

    def test_shell_decomposition_identity(self):
        # sum over S_k of [u(n)]_1 = [u(0)]_{(k+1)1} - [u(0)]_{k1}
        u = lambda n: math.exp(0.15 * n[0] + 0.05 * n[1] + 0.1 * n[2])
        d = 3
        for k in range(4):
            acc = CompensatedSum()
            for pt in shell_indices(k, d):
                acc.add(bracket_sum(u, pt, (1,) * d))
            rhs = (bracket_sum(u, (0,) * d, ((k + 1),) * d)
                   - bracket_sum(u, (0,) * d, (k,) * d))
            assert abs(acc.value - rhs) <= 1e-12 * (1 + abs(rhs))


class TestIndices:
    def test_single_point(self):
        assert list(cube_indices(0, 3)) == [(0, 0, 0)]

    def test_exclude_origin(self):
        assert list(cube_indices(1, 2, exclude_origin=True)) == [(0, 1), (1, 0), (1, 1)]

    def test_shell_counts(self):
        for d in (1, 2, 3):
            for k in (1, 2, 3):
                n = sum(1 for _ in shell_indices(k, d))
                assert n == (k + 1) ** d - k**d

    def test_deterministic(self):
        assert list(cube_indices(3, 2)) == list(cube_indices(3, 2))

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            list(cube_indices(1, 17))


class TestShellValues:
    def test_matches_index_enumeration(self):
        a, w = 0.3 + 0.2j, (1.0, 0.5 + 0.1j)
        for k in range(4):
            got = shell_values(a, w, k)
            want = np.array([a + n[0] * w[0] + n[1] * w[1] for n in shell_indices(k, 2)])
            assert sorted(got, key=lambda z: (z.real, z.imag)) == pytest.approx(
                sorted(want, key=lambda z: (z.real, z.imag))
            )

    def test_skip_origin(self):
        assert shell_values(0.0, (1.0,), 0, skip_origin=True).size == 0

    # Dyadic a and w make every a + n.w exact, so the faces must reproduce
    # the brute-force multiset bit for bit; 3 * 1.0 = 4 * 0.75 adds repeats.
    DYADIC = {"real": (0.375, (1.0, 0.75, 2.5, 1.25, 0.5, 1.75)),
              "complex": (0.375 + 0.125j, (1.0 + 0.5j, 0.75, 2.5 - 0.25j, 1.25 + 1j,
                                           0.5 - 0.75j, 1.75))}

    def check_shell(self, kind, skip_origin, d, k):
        a, w = self.DYADIC[kind]
        w = w[:d]
        got = shell_values(a, w, k, skip_origin=skip_origin)
        want = [] if skip_origin and k == 0 else [
            a + sum(n_i * w_i for n_i, w_i in zip(n, w)) for n in shell_indices(k, d)]
        assert got.size == (k + 1) ** d - k**d - (skip_origin and k == 0)
        key = lambda z: (complex(z).real, complex(z).imag)
        assert sorted(map(complex, got), key=key) == sorted(map(complex, want), key=key)
        real = kind == "real"
        assert got.dtype == np.dtype(np.float64 if real else np.complex128)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("skip_origin", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_faces_are_the_shell(self, kind, skip_origin, d, k):
        self.check_shell(kind, skip_origin, d, k)

    @staticmethod
    def last_grid_shell(d):
        """The largest k whose shell still comes from the cached grid."""
        k = 0
        while (k + 2) ** d <= combinatorics._GRID_POINTS:
            k += 1
        return k

    # Both sides of the grid bound: the last cached shell and the first one
    # built face by face (at d = 2 the long direct-sum walk, at d = 4 the
    # limit route's cubes), and d = 5, 6 at small k.
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("d, past", [(2, 0), (2, 1), (4, 0), (4, 1)])
    def test_faces_are_the_shell_at_the_grid_bound(self, kind, d, past):
        k = self.last_grid_shell(d) + past
        assert ((k + 1) ** d > combinatorics._GRID_POINTS) == bool(past)
        self.check_shell(kind, False, d, k)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("skip_origin", [False, True])
    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_faces_are_the_shell_in_higher_dimensions(self, kind, skip_origin, d, k):
        self.check_shell(kind, skip_origin, d, k)

    @pytest.mark.parametrize("d, k", [(1, 3), (2, 1), (2, 5), (3, 4), (4, 3), (4, 22), (2, 512)])
    def test_face_order(self, d, k):
        # Weights 1000^i spell each point's coordinates out exactly, so the
        # output must list the faces in order, each in C order, whether it
        # comes from the grid or, past the bound (the last two), face by face.
        got = shell_values(0.0, tuple(1000.0 ** (d - 1 - i) for i in range(d)), k)
        face = lambda n: (n.index(k), n)
        want = [sum(n_i * 1000 ** (d - 1 - i) for i, n_i in enumerate(n))
                for n in sorted(shell_indices(k, d), key=face)]
        assert got.tolist() == want

    def test_grid_cache_stays_bounded(self):
        # A d = 2 direct sum near its abscissa walks thousands of shells, far
        # past the grid bound; a d = 4 walk fills its grid to the bound and
        # then goes on face by face.  No grid passes 2^16 points.
        combinatorics._GRIDS.clear()
        res = direct_sum(3.0, BarnesParams(1.0, (1.0, 1.5)))
        assert res.diagnostics["shells"] > 2 * self.last_grid_shell(2)
        for k in range(31):
            shell_values(0.5, (1.0, 1.5, 2.0, 2.5), k)
        for d in (2, 4):
            assert combinatorics._GRIDS[d][1] == self.last_grid_shell(d) + 1
        for d, (grid, written) in combinatorics._GRIDS.items():
            assert grid.shape == (d, combinatorics._GRID_POINTS) and written ** d <= grid.shape[1]
            assert grid.nbytes <= combinatorics._GRID_POINTS * d * (2 if d == 1 else 1)

    @pytest.mark.parametrize("w, a", [((1.0, 2 ** 0.5, 0.7, 1.3, 2.9, 0.45), 0.35),
                                      ((1.0 + 0.2j, 1.3, 0.8 - 0.1j, 2.0, 1.1 + 0.3j, 0.6), 0.5 + 0.1j)],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_written_shell_reads_back_bit_for_bit(self, d, w, a):
        # A shell already in the grid is read straight from it; the values
        # must be those of the call that wrote it.  The first 40 shells and
        # the last grid shell, except at d = 1, whose 65,535 grid shells
        # take a second to write.
        combinatorics._GRIDS.pop(d, None)
        w = w[:d]
        last = self.last_grid_shell(d) if d > 1 else 40
        first = {k: shell_values(a, w, k).tobytes() for k in sorted({*range(min(last, 40)), last})}
        for k, values in first.items():
            assert shell_values(a, w, k).tobytes() == values

    def test_complex_a_on_real_weights_is_complex(self):
        assert shell_values(0.5 + 0.1j, (1.0, 2.0), 2).dtype == np.complex128
        assert shell_values(0.5 + 0j, (1.0 + 0j, 2.0), 2).dtype == np.float64


class TestWalkShells:
    """`walk_shells`, the one walk of the series and the direct sum: the
    shells in order with running point counts, the quiet end at the point
    budget and the raise past the shell cap."""

    @staticmethod
    def diag(k, points):
        return {"shells": k + 1, "points": points}

    @pytest.mark.parametrize("skip_origin", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_yields_the_shells_in_order(self, d, skip_origin):
        a, w = (0.0 if skip_origin else 0.375 + 0.125j), (1.0 + 0.5j, 0.75, 2.5)[:d]
        walk = combinatorics.walk_shells(a, w, skip_origin, self.diag)
        points = 0
        for want_k, (k, y, count) in zip(range(7), walk):
            want = shell_values(a, w, want_k, skip_origin=skip_origin)
            points += want.size
            assert (k, count) == (want_k, points)
            assert y.dtype == want.dtype and y.tobytes() == want.tobytes()
        assert (k, points) == (6, 7 ** d - skip_origin)

    @pytest.mark.parametrize("skip_origin", [False, True])
    @pytest.mark.parametrize("over", [0, 1])
    def test_ends_before_the_shell_past_the_budget(self, over, skip_origin, monkeypatch):
        # Shells 0..9 of a d = 2 walk hold 10^2 points, 10^2 - 1 without
        # the origin; shell 10 would take them to 11^2 (- 1).  A budget met
        # exactly keeps shell 9, and one point less ends after shell 8.
        monkeypatch.setattr(combinatorics, "MAX_POINTS", 100 - skip_origin - over)
        walk = list(combinatorics.walk_shells(0.5, (1.0, 2.0), skip_origin, self.diag))
        last = 9 - over
        assert [k for k, _, _ in walk] == list(range(last + 1))
        assert walk[-1][2] == (last + 1) ** 2 - skip_origin

    def test_empty_origin_counts_nothing(self, monkeypatch):
        # With no points to spare, the homogeneous walk still yields its
        # empty S_0 and ends before S_1; the inhomogeneous one yields nothing.
        monkeypatch.setattr(combinatorics, "MAX_POINTS", 0)
        walk = list(combinatorics.walk_shells(0.0, (1.0, 2.0), True, self.diag))
        assert [(k, y.size, points) for k, y, points in walk] == [(0, 0, 0)]
        assert list(combinatorics.walk_shells(0.5, (1.0, 2.0), False, self.diag)) == []

    @pytest.mark.parametrize("skip_origin", [False, True])
    def test_raises_past_the_shell_cap(self, skip_origin, monkeypatch):
        monkeypatch.setattr(combinatorics, "MAX_SHELLS", 3)
        walk = combinatorics.walk_shells(0.5, (1.0, 2.0), skip_origin, self.diag)
        with pytest.raises(ConvergenceError, match="hit MAX_SHELLS = 3") as exc:
            for k, _, _ in walk:
                assert k <= 3
        assert exc.value.diagnostics == {"shells": 4, "points": 16 - skip_origin}


class TestNeville:
    def test_exact_on_polynomials_in_reciprocal(self):
        Ms = (10, 20, 40)
        vals = [2.5 - 3.0 / m + 7.0 / m**2 for m in Ms]
        value, est = neville_in_reciprocal(Ms, vals)
        assert abs(value - 2.5) <= 1e-12
        # the estimate is the gap to the linear extrapolant of the first two
        x0, x1 = 1 / Ms[0], 1 / Ms[1]
        linear = (x0 * vals[1] - x1 * vals[0]) / (x0 - x1)
        assert est == pytest.approx(abs(value - linear), rel=1e-12)

    def test_single_value_has_infinite_estimate(self):
        assert neville_in_reciprocal((10,), [1.5]) == (1.5, float("inf"))

    LADDER = (64, 96, 128, 192, 256)

    @pytest.mark.parametrize("degree", [0, 2, 4])
    def test_diagonal_exact_on_polynomials_in_reciprocal(self, degree):
        coeffs = [2.5, -3.0, 7.0, -11.0, 13.0][:degree + 1]
        vals = [sum(c / m**j for j, c in enumerate(coeffs)) for m in self.LADDER]
        diag, _ = neville_diagonal(self.LADDER, vals)
        assert len(diag) == len(self.LADDER)
        # every entry through at least degree + 1 nodes is the constant term
        for entry in diag[degree:]:
            assert abs(entry - 2.5) <= 1e-11

    def test_lebesgue_constant_of_the_nodes(self):
        # l_i(0) is row 0 of the inverse Vandermonde matrix in x = 1/M
        xs = 1.0 / np.array(self.LADDER, dtype=float)
        basis_at_0 = np.linalg.inv(np.vander(xs, increasing=True))[0]
        _, lebesgue = neville_diagonal(self.LADDER, [0.0] * len(xs))
        assert lebesgue == pytest.approx(np.sum(np.abs(basis_at_0)), rel=1e-9)
        assert lebesgue > 1.0


class TestCompensatedSum:
    def test_recovers_cancellation(self):
        acc = CompensatedSum()
        for x in (1e16, 1.0, -1e16):
            acc.add(x)
        assert acc.value == 1.0

    def test_complex_components(self):
        acc = CompensatedSum()
        acc.add(1e16 + 1e16j)
        acc.add(1.0 - 2.0j)
        acc.add(-1e16 - 1e16j)
        assert acc.value == 1.0 - 2.0j
