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
    bernoulli_numbers,
    bernoulli_poly,
    bernoulli_taylor,
    classical_bernoulli,
    ds_values,
    pole_coeffs,
    pole_term,
)
from barneszeta.foundations import harmonic_float

from references import bernoullian_dS, bernoullian_dS_closed

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
    def test_single_weight_matches_classical(self):
        t = bernoulli_numbers((1.0,), 2)
        assert t.numbers == (1, -0.5, pytest.approx(1 / 6))

    def test_two_unit_weights(self):
        t = bernoulli_numbers((1.0, 1.0), 1)
        assert t.numbers[0] == 1
        assert t.numbers[1] == pytest.approx(-1.0)

    def test_constant_term(self):
        assert bernoulli_numbers((0.3, 2.7, 1.1), 0).numbers == (1,)

    def test_cap(self):
        with pytest.raises(ConvergenceError):
            bernoulli_numbers((1.0,), 257)

    @pytest.mark.parametrize("N", [171, 256])
    def test_cap_below_old_limit(self, N):
        # 171! does not fit in a float; the cap must say so, not overflow
        with pytest.raises(ConvergenceError):
            bernoulli_numbers((1.0, 1.0), N)

    def test_largest_table(self):
        numbers = bernoulli_numbers((1.0,), 170).numbers
        assert numbers[170] == pytest.approx(float(classical_bernoulli(170)[170]), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(weights)
    def test_permutation_symmetry(self, w):
        t1 = bernoulli_numbers(tuple(w), 6).numbers
        t2 = bernoulli_numbers(tuple(reversed(w)), 6).numbers
        for a, b in zip(t1, t2):
            assert abs(a - b) <= 1e-14 * (1 + abs(b))

    @settings(max_examples=30, deadline=None)
    @given(weights, st.floats(min_value=0.5, max_value=2.0))
    def test_scaling(self, w, lam):
        a = 0.8 + 0.1j
        for n in range(5):
            lhs = bernoulli_poly(n, lam * a, tuple(lam * x for x in w))
            rhs = lam**n * bernoulli_poly(n, a, tuple(w))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


class TestPoly:
    def test_degree_zero(self):
        assert bernoulli_poly(0, 3.7 + 2j, (0.4, 1.9)) == 1

    def test_degree_one_closed_form(self):
        w = (0.7, 1.9)
        for a in (0.3, 1.0 + 0.5j, 2.4):
            expected = a - (w[0] + w[1]) / 2
            assert bernoulli_poly(1, a, w) == pytest.approx(expected)

    def test_degree_one_vanishes(self):
        assert bernoulli_poly(1, 1.0, (1.0, 1.0)) == 0

    def test_numbers_equal_poly_at_zero(self):
        w = (0.6, 1.3, 2.1)
        nums = bernoulli_numbers(w, 6).numbers
        for n in range(7):
            assert bernoulli_poly(n, 0.0, w) == nums[n]


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
        # derivation-path value must equal B_m(w)/prod(w)
        got = bernoullian_dS(m, tuple(w))
        want = bernoullian_dS_closed(m, tuple(w))
        assert abs(got - want) <= 1e-13 * (1 + abs(want))


def _table_misses(fn) -> int:
    bernoulli._table_cached.cache_clear()
    fn()
    return bernoulli._table_cached.cache_info().misses


class TestOneTable:
    @settings(max_examples=30, deadline=None)
    @given(weights, st.complex_numbers(max_magnitude=3.0))
    def test_taylor_matches_binomial_expansion(self, w, a):
        taylor = bernoulli_taylor(a, tuple(w), 8)
        numbers = bernoulli_numbers(tuple(w), 8).numbers
        for n in range(9):
            terms = [math.comb(n, l) * a**l * numbers[n - l] for l in range(n + 1)]
            # both sides cancel the same terms, so the error scales with their size
            scale = sum(abs(t) for t in terms)
            assert abs(taylor[n] * math.factorial(n) - sum(terms)) <= 1e-13 * scale + 1e-300

    def test_ds_values_is_one_lookup(self):
        bernoulli._table_cached.cache_clear()
        ds_values((1.0, 2 ** 0.5, 0.3), 12)
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
        # B_n(w) must not depend on the table size: a table of any size N is
        # the first N + 1 entries of the largest one, bit for bit, so one
        # build can serve every size a lattice asks for.
        w = self.W[kind][:d]
        key = tuple(sorted(w, key=lambda z: (z.real, z.imag)))
        full = bernoulli_numbers(w, MAX_TABLE)
        bits = lambda xs: np.array(xs).tobytes()
        for N in range(MAX_TABLE + 1):
            for table in (bernoulli._table_cached(key, N), bernoulli_numbers(w, N)):
                assert bits(table.numbers) == bits(full.numbers[:N + 1])
                assert bits(table.scaled) == bits(full.scaled[:N + 1])
        bernoulli._table_cached.cache_clear()

    @pytest.mark.parametrize("kind", W)
    @pytest.mark.parametrize("d", range(1, 7))
    def test_taylor_at_zero_is_the_table(self, d, kind):
        # At a = 0 the row comes back without the convolution with
        # e^(az) = 1, and must equal what that convolution gives.
        w = self.W[kind][:d]
        for N in (0, 1, 7, 66, 90):
            scaled = bernoulli_numbers(w, N).scaled
            convolved = np.convolve(0.0 ** np.arange(N + 1) / bernoulli._unit_series(N)[1],
                                    scaled)[:N + 1]
            got = bernoulli_taylor(0.0, w, N)
            assert got.dtype == convolved.dtype and got.tobytes() == convolved.tobytes()


class TestTableAgainstMpmath:
    """Every entry of a 64-term table against the same Cauchy product at 50
    digits, bounded by 1e-14 of the summed term sizes: the product of the d
    series of |B_n w_i^n/n!|."""

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
        table = bernoulli_numbers(w, N)
        with mpmath.workdps(50):
            unit = [mpmath.bernoulli(n) / mpmath.factorial(n) for n in range(N + 1)]
            series = [[unit[n] * mpmath.mpc(wi) ** n for n in range(N + 1)] for wi in w]
            want = self._cauchy(mpmath, series, N)
            size = self._cauchy(mpmath, [[abs(c) for c in s] for s in series], N)
            for n in range(N + 1):
                bound = 1e-14 * size[n]
                assert abs(table.scaled[n] - want[n]) <= bound, n
                assert abs(table.numbers[n] - want[n] * mpmath.factorial(n)) <= bound * mpmath.factorial(n), n
        assert all(isinstance(x, float if kind == "real" else complex) for x in table.numbers)


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
        dS = ds_values(w, d + 1)
        for q in range(d + 1):
            got = pole_term(q, a, pole_coeffs(q, d, dS), log=log)
            want = self._mp_term(mpmath, q, a, w, log)
            assert abs(got.value - want) <= 1e-14 * got.mass, (q, got.value, want)
            assert got.mass * (1 + 1e-14) >= abs(want)

    @pytest.mark.parametrize("name", list(CASES))
    def test_homogeneous_constant(self, name):
        # At a = 0 only e = 0 is left: -H_(q-1) times the homogeneous residue,
        # and 0 for the derivative at zero.
        _, w = self.CASES[name]
        d = len(w)
        dS = ds_values(w, d + 1)
        assert pole_term(0, 0.0, pole_coeffs(0, d, dS)).value == 0
        for q in range(1, d + 1):
            want = -harmonic_float(q - 1) * residue(q, w)
            got = pole_term(q, 0.0, pole_coeffs(q, d, dS)).value
            assert abs(got - want) <= 1e-15 * (1 + abs(want)), q
