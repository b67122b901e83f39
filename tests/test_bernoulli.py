import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barneszeta import (
    BarnesParams,
    ConvergenceError,
    gamma_dq,
    log_gamma_B,
    log_rho,
    psi_B,
    residue,
)
from barneszeta import bernoulli
from barneszeta.bernoulli import (
    MAX_TABLE,
    bernoulli_taylor,
    bernoulli_taylor_over_prod,
    classical_bernoulli,
    pole_coeffs,
    pole_term,
)
from barneszeta.foundations import harmonic_float

from references import bernoulli_poly_exact, bernoullian_dS, bernoullian_dS_closed

weights = st.lists(
    st.floats(min_value=0.2, max_value=3.0).map(lambda x: complex(round(x, 3))),
    min_size=1,
    max_size=4,
)


def prod(w):
    out = 1.0 + 0j
    for x in w:
        out *= x
    return out


class TestClassical:
    def test_first_values(self):
        b = classical_bernoulli(12)
        assert b[0] == 1
        assert b[1] == Fraction(-1, 2)
        assert b[2] == Fraction(1, 6)
        assert b[3] == 0
        assert b[4] == Fraction(-1, 30)
        assert b[12] == Fraction(-691, 2730)


class TestClassicalTable:
    """One table grows in place: a shorter request is a prefix of a longer
    one, in either order, and shares its entries."""

    @pytest.mark.parametrize("n, m", [(0, 1), (7, 30), (64, 65), (40, 170), (100, 320)])
    def test_prefix_of_longer_table(self, n, m):
        short = classical_bernoulli(n)
        long = classical_bernoulli(m)
        assert len(short) == n + 1 and len(long) == m + 1
        assert short == long[: n + 1]
        assert all(x is y for x, y in zip(short, long))
        assert classical_bernoulli(n) == short

    def test_errors(self):
        with pytest.raises(ConvergenceError):
            classical_bernoulli(bernoulli._CLASSICAL_CAP + 1)
        with pytest.raises(bernoulli.DomainError):
            classical_bernoulli(-1)


class TestNumbers:
    """B_n(w)/n!, the a = 0 row of `bernoulli_taylor`."""

    def test_single_weight_matches_classical(self):
        t = bernoulli_taylor(0.0, (1.0,), 2)
        assert t.tolist() == [1, -0.5, pytest.approx(1 / 12)]

    def test_two_unit_weights(self):
        t = bernoulli_taylor(0.0, (1.0, 1.0), 1)
        assert t[0] == 1
        assert t[1] == pytest.approx(-1.0)

    def test_constant_term(self):
        assert bernoulli_taylor(0.0, (0.3, 2.7, 1.1), 0).tolist() == [1]

    def test_cap(self):
        with pytest.raises(ConvergenceError):
            bernoulli_taylor(0.0, (1.0,), 257)

    @pytest.mark.parametrize("N", [171, 256])
    def test_cap_below_old_limit(self, N):
        # 171! does not fit in a float; the cap must say so, not overflow,
        # at a = 0 and where the e^(az) row divides by l!
        for a in (0.0, 0.5):
            with pytest.raises(ConvergenceError):
                bernoulli_taylor(a, (1.0, 1.0), N)

    def test_largest_table(self):
        taylor = bernoulli_taylor(0.0, (1.0,), 170)
        want = float(classical_bernoulli(170)[170] / math.factorial(170))
        assert taylor[170] == pytest.approx(want, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(weights, st.complex_numbers(max_magnitude=3.0))
    def test_permutation_symmetry(self, w, a):
        for shift in (0.0, a):
            t1 = bernoulli_taylor(shift, tuple(w), 6)
            t2 = bernoulli_taylor(shift, tuple(reversed(w)), 6)
            for x, y in zip(t1, t2):
                assert abs(x - y) <= 1e-14 * (1 + abs(y))

    @settings(max_examples=30, deadline=None)
    @given(weights, st.floats(min_value=0.5, max_value=2.0))
    def test_scaling(self, w, lam):
        # B_n(lam a | lam w) = lam^n B_n(a|w); the bound is that on B_n, over n!
        a = 0.8 + 0.1j
        lhs = bernoulli_taylor(lam * a, tuple(lam * x for x in w), 4)
        rhs = bernoulli_taylor(a, tuple(w), 4)
        for n in range(5):
            want = lam**n * rhs[n]
            assert abs(lhs[n] - want) <= 1e-12 * (1 / math.factorial(n) + abs(want))


class TestPoly:
    """B_n(a|w)/n!, the Taylor coefficients at a nonzero a."""

    def test_degree_zero(self):
        assert bernoulli_taylor(3.7 + 2j, (0.4, 1.9), 0)[0] == 1

    def test_degree_one_closed_form(self):
        w = (0.7, 1.9)
        for a in (0.3, 1.0 + 0.5j, 2.4):
            expected = a - (w[0] + w[1]) / 2
            assert bernoulli_taylor(a, w, 1)[1] == pytest.approx(expected)

    def test_degree_one_vanishes(self):
        assert bernoulli_taylor(1.0, (1.0, 1.0), 1)[1] == 0

    def test_numbers_equal_poly_at_zero(self):
        # B_n(w) is B_n(0|w): the a = 0 row against the exact polynomial at 0
        w = (0.6, 1.3, 2.1)
        row = bernoulli_taylor(0.0, w, 6)
        for n in range(7):
            want = float(bernoulli_poly_exact(n, 0, w) / math.factorial(n))
            assert abs(row[n] - want) <= 1e-14 * (1 / math.factorial(n) + abs(want))


class TestBernoullianDerivatives:
    def test_m0_two_weights(self):
        assert bernoullian_dS(0, (2.0, 3.0)) == pytest.approx(1 / 6)

    def test_m0_one_weight(self):
        assert bernoullian_dS(0, (1.0,)) == pytest.approx(1.0)

    def test_m1_unit_weights(self):
        assert bernoullian_dS(1, (1.0, 1.0)) == pytest.approx(-1.0)

    @settings(max_examples=30, deadline=None)
    @given(weights)
    def test_m0_inverse_product(self, w):
        assert abs(bernoullian_dS(0, tuple(w)) * prod(w) - 1) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(weights, st.integers(min_value=0, max_value=6))
    def test_collapse_to_closed_form(self, w, m):
        # the exact derivation-path value must equal B_m(w)/(m! prod(w)) of
        # the engine; the bound is that on B_m(w)/prod(w), over m!
        got = bernoullian_dS(m, tuple(w))
        want = bernoullian_dS_closed(m, tuple(w))
        assert abs(got - want) <= 1e-13 * (1 / math.factorial(m) + abs(want))


def _table_misses(fn) -> int:
    bernoulli._table_cached.cache_clear()
    fn()
    return bernoulli._table_cached.cache_info().misses


class TestOneTable:
    @settings(max_examples=30, deadline=None)
    @given(weights, st.complex_numbers(max_magnitude=3.0))
    def test_taylor_matches_binomial_expansion(self, w, a):
        # B_n(a|w)/n! = sum_l a^l/l! B_(n-l)(w)/(n-l)!
        taylor = bernoulli_taylor(a, tuple(w), 8)
        numbers = bernoulli_taylor(0.0, tuple(w), 8)
        for n in range(9):
            terms = [a**l / math.factorial(l) * numbers[n - l] for l in range(n + 1)]
            # both sides cancel the same terms, so the error scales with their size
            scale = sum(abs(t) for t in terms)
            assert abs(taylor[n] - sum(terms)) <= 1e-13 * scale + 1e-300

    def test_ds_values_is_one_lookup(self):
        # The old name keeps its old values, B_m(w)/prod(w), from one table read.
        bernoulli._table_cached.cache_clear()
        w = (1.0, 2 ** 0.5, 0.3)
        got = bernoulli.ds_values(w, 12)
        info = bernoulli._table_cached.cache_info()
        assert info.hits + info.misses == 1
        for m in range(12):
            want = float(bernoulli_poly_exact(m, 0, w)) / prod(w)
            assert abs(got[m] - want) <= 1e-13 * (1 + abs(want))

    def test_over_prod_is_one_lookup(self):
        bernoulli._table_cached.cache_clear()
        bernoulli_taylor_over_prod((1.0, 2 ** 0.5, 0.3), 11)
        info = bernoulli._table_cached.cache_info()
        assert info.hits + info.misses == 1

    @pytest.mark.parametrize("params", [
        BarnesParams(0.7, (1.0, 2 ** 0.5)),
        BarnesParams(0.9, (1.0, 2 ** 0.5, math.pi / 4)),
    ])
    def test_cold_gamma_family_builds_few_tables(self, params):
        # The series plan, the closed terms, the integral brackets and the
        # residue of one call all read the lattice's one table.
        assert _table_misses(lambda: log_gamma_B(params, "best")) == 1
        assert _table_misses(lambda: psi_B(1, params, "best")) == 1
        assert _table_misses(lambda: gamma_dq(2, params.w, "best")) == 1
        assert _table_misses(lambda: log_rho(params.w, "best")) == 1

    W = {"real": (1.0, 2 ** 0.5, math.pi / 4, 2.7, 0.35, 1.9),
         "complex": (1.0 + 0.3j, 1.9 - 0.4j, 0.6, 2.2 + 1j, 0.8 + 0.05j, 1.4 - 0.7j)}

    @pytest.mark.parametrize("kind", W)
    @pytest.mark.parametrize("d", range(1, 7))
    def test_smaller_tables_are_prefixes(self, d, kind):
        # B_n(w)/n! must not depend on the table size: a table of any size N
        # is the first N + 1 entries of the largest one, bit for bit, so one
        # build can serve every size a lattice asks for.
        w = self.W[kind][:d]
        key = tuple(sorted(w, key=lambda z: (z.real, z.imag)))
        full = bernoulli._table_cached(key, MAX_TABLE)
        row = bernoulli_taylor(0.0, w, MAX_TABLE)
        assert not full.flags.writeable
        assert np.array_equal(row, full)      # at a = 0 the row is the table
        for N in range(MAX_TABLE + 1):
            assert bernoulli._table_cached(key, N).tobytes() == full[:N + 1].tobytes()
            assert bernoulli_taylor(0.0, w, N).tobytes() == row[:N + 1].tobytes()
        bernoulli._table_cached.cache_clear()

    @pytest.mark.parametrize("kind", W)
    @pytest.mark.parametrize("d", range(1, 7))
    def test_taylor_at_zero_is_the_table(self, d, kind):
        # At a = 0 the row comes back without the convolution with
        # e^(az) = 1, and must be what that convolution gives: a fixed point
        # of it, bit for bit, so no -0.0 the convolution would turn to 0.0.
        w = self.W[kind][:d]
        for N in (0, 1, 7, 66, 90):
            got = bernoulli_taylor(0.0, w, N)
            convolved = np.convolve(np.eye(1, N + 1)[0], got)[:N + 1]
            assert got.dtype == convolved.dtype and got.tobytes() == convolved.tobytes()


class TestTableAgainstMpmath:
    """Every entry of a 64-term table of B_n(w)/n! against the same Cauchy
    product at 50 digits, bounded by 1e-14 of the summed term sizes: the
    product of the d series of |B_n w_i^n/n!|."""

    W = {"real": (1.0, 2 ** 0.5, math.pi / 4, 2.7), "complex": (1.0 + 0.3j, 1.9 - 0.4j, 0.6, 2.2 + 1j)}

    @staticmethod
    def _cauchy(mpmath, series, N):
        out = series[0]
        for s in series[1:]:
            out = [mpmath.fsum(out[l] * s[n - l] for l in range(n + 1)) for n in range(N + 1)]
        return out

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_entries(self, kind, d):
        mpmath = pytest.importorskip("mpmath")
        N, w = 64, self.W[kind][:d]
        table = bernoulli_taylor(0.0, w, N)
        with mpmath.workdps(50):
            unit = [mpmath.bernoulli(n) / mpmath.factorial(n) for n in range(N + 1)]
            series = [[unit[n] * mpmath.mpc(wi) ** n for n in range(N + 1)] for wi in w]
            want = self._cauchy(mpmath, series, N)
            size = self._cauchy(mpmath, [[abs(c) for c in s] for s in series], N)
            for n in range(N + 1):
                assert abs(table[n] - want[n]) <= 1e-14 * size[n], n
        assert table.dtype == (np.float64 if kind == "real" else np.complex128)


class TestPoleTerm:
    """The closed term (-1)^(d+1) sum_m c_m a^e (log a - H_e + H_(q-1)),
    e = d - q - m, that every finite-part and derivative route shares."""

    CASES = {
        "D2": (0.7, (1.0, 2 ** 0.5)),
        "D3": (0.9, (1.0, 2 ** 0.5, math.pi / 4)),
        "d4": (0.6, (1.0, 1.3, 1.7, 2.1)),
        "complex": (1.0 + 0.3j, (1.0, 1.2 + 0.2j)),
    }

    @staticmethod
    def _mp_term(mpmath, q, a, w, log):
        """The same sum at 40 digits, from B_m(w) as a 40-digit Cauchy product."""
        d = len(w)
        with mpmath.workdps(40):
            mpc = lambda z: mpmath.mpc(complex(z).real, complex(z).imag)
            scaled = [mpmath.mpf(1)] + [mpmath.mpf(0)] * d
            for wi in w:
                row = [mpmath.bernoulli(n) / mpmath.factorial(n) * mpc(wi) ** n for n in range(d + 1)]
                scaled = [mpmath.fsum(scaled[l] * row[n - l] for l in range(n + 1)) for n in range(d + 1)]
            pw = mpmath.fprod(mpc(wi) for wi in w)
            s = mpmath.mpf(-1) ** q / mpmath.factorial(q - 1) if q else mpmath.mpf(1)
            hq = mpmath.harmonic(q - 1) if q else 0
            la = mpmath.log(mpc(a)) if log else 0
            total = 0
            for m in range(d - q + 1):
                e = d - q - m
                c = s * scaled[m] / (pw * mpmath.factorial(e))
                total += c * mpc(a) ** e * (la - mpmath.harmonic(e) + hq)
            return complex((-1) ** (d + 1) * total)

    @pytest.mark.parametrize("log", [True, False])
    @pytest.mark.parametrize("name", list(CASES))
    def test_against_mpmath(self, name, log):
        mpmath = pytest.importorskip("mpmath")
        a, w = self.CASES[name]
        d = len(w)
        bw = bernoulli_taylor_over_prod(w, d)
        for q in range(d + 1):
            got = pole_term(q, a, pole_coeffs(q, d, bw), log=log)
            want = self._mp_term(mpmath, q, a, w, log)
            assert abs(got.value - want) <= 1e-14 * got.mass, (q, got.value, want)
            assert got.mass * (1 + 1e-14) >= abs(want)

    @pytest.mark.parametrize("name", list(CASES))
    def test_homogeneous_constant(self, name):
        # At a = 0 only e = 0 is left: -H_(q-1) times the homogeneous residue,
        # and 0 for the derivative at zero.
        _, w = self.CASES[name]
        d = len(w)
        bw = bernoulli_taylor_over_prod(w, d)
        assert pole_term(0, 0.0, pole_coeffs(0, d, bw)).value == 0
        for q in range(1, d + 1):
            want = -harmonic_float(q - 1) * residue(q, w)
            got = pole_term(q, 0.0, pole_coeffs(q, d, bw)).value
            assert abs(got - want) <= 1e-15 * (1 + abs(want)), q
