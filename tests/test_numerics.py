import math
import random
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammaln, ndtri
from scipy.stats import binom

from fblsec import numerics
from fblsec.fb_coding import SNR_BRACKET_DB, db_to_linear, error_probability
from fblsec.numerics import (
    RngSeed,
    _log_binomial_coef,
    _log_factorials,
    _mean,
    _ndtri,
    binomial_cdf,
    brent_root,
    q_func,
    q_func_inv,
)

from oracles import binomial_cdf_exact, binomial_cdf_patterns, q_oracle


class TestQFunc:
    def test_half_at_zero(self):
        assert q_func(0.0) == 0.5

    def test_deep_tail(self):
        assert q_func(10.0) < 1e-20

    def test_saturates_in_left_tail(self):
        assert q_func(-10.0) == 1.0

    def test_tail_anchor_from_integration_oracle(self):
        # Frozen from the quadrature oracle: Q(4.7534) = 1.00012029509e-6.
        assert q_func(4.7534) == pytest.approx(1.00012029509e-6, rel=1e-3)
        assert q_func(4.7534) == pytest.approx(q_oracle(4.7534), rel=1e-9)

    def test_matches_integration_oracle_on_grid(self):
        for x in np.arange(-8.0, 8.01, 0.5):
            assert abs(q_func(float(x)) - q_oracle(float(x))) < 1e-12

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry(self, x):
        assert q_func(x) + q_func(-x) == pytest.approx(1.0, abs=1e-15)

    @given(
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=1e-5, max_value=4.0),
    )
    def test_strictly_decreasing(self, x, step):
        # Strict only where doubles resolve the difference; the far tails
        # plateau at 0.0 / 1.0.
        assert q_func(x + step) < q_func(x)

    def test_weakly_decreasing_across_full_range(self):
        grid = np.arange(-12.0, 12.01, 0.125)
        values = [q_func(float(x)) for x in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            q_func(bad)

    def test_pure(self):
        assert q_func(1.2345) == q_func(1.2345)


class TestQFuncInv:
    def test_center(self):
        assert q_func_inv(0.5) == 0.0

    def test_center_is_positive_zero(self):
        assert math.copysign(1.0, q_func_inv(0.5)) == 1.0

    def test_tail_anchor(self):
        # Frozen from a bisection against the integration oracle.
        assert q_func_inv(1e-6) == pytest.approx(4.7534243088228989, abs=1e-3)
        assert q_func_inv(1e-6) == pytest.approx(4.7534243088228989, rel=1e-12)

    # 1 - p is exact for the powers of two, so the far tails are checked too.
    @pytest.mark.parametrize("p", [1e-4, 0.01, 0.2, 0.37, 2.0**-20, 2.0**-30, 2.0**-40])
    def test_antisymmetry(self, p):
        assert q_func_inv(p) == pytest.approx(-q_func_inv(1.0 - p), rel=1e-12)

    def test_matches_stdlib_normal_quantile(self):
        # statistics.NormalDist.inv_cdf is Wichura's AS 241, independent of scipy.
        # Each grid point p is checked at its complement 1 - p too.
        inv_cdf = NormalDist().inv_cdf
        for p in np.logspace(-300.0, math.log10(0.5), 1200).tolist() + [0.5]:
            for x in (p, 1.0 - p):
                if x < 1.0:
                    assert q_func_inv(x) == pytest.approx(-inv_cdf(x), rel=1e-13, abs=0.0)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    @settings(max_examples=200)
    def test_round_trip(self, p):
        assert q_func(q_func_inv(p)) == pytest.approx(p, rel=1e-9)

    def test_round_trip_extremes(self):
        for p in (1e-12, 1e-9, 1e-6, 0.1, 0.9, 1.0 - 1e-9, 1.0 - 1e-12):
            assert q_func(q_func_inv(p)) == pytest.approx(p, rel=1e-9)

    def test_strictly_decreasing(self):
        grid = [1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9]
        values = [q_func_inv(p) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_rejects_boundary(self, bad):
        with pytest.raises(ValueError):
            q_func_inv(bad)


def _ndtri_points() -> np.ndarray:
    """Probe points for _ndtri, fixed before its first run: 20000 each of
    uniform (0, 1), 10^-u with u uniform in [0, 323] (down to the
    subnormals) and 1 - 10^-u with u uniform in [0, 16], from
    default_rng(1906), plus the branch edges and the 64 floats on either
    side of exp(-32), where the two tail fits meet."""
    rng = np.random.default_rng(1906)
    drawn = [
        rng.uniform(0.0, 1.0, 20000),
        10.0 ** -rng.uniform(0.0, 323.0, 20000),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 20000),
    ]
    edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), 5e-324, 0.5, math.nextafter(1.0, 0.0)]
    edges += [math.nextafter(x, t) for x in edges[:2] for t in (0.0, 1.0)]
    split = math.exp(-32.0)
    for toward in (0.0, 1.0):
        x = split
        for _ in range(64):
            edges.append(x)
            x = math.nextafter(x, toward)
    points = np.concatenate(drawn + [np.array(edges)])
    return points[(points > 0.0) & (points < 1.0)]


class TestNdtri:
    def test_bit_identical_to_scipy(self):
        points = _ndtri_points()
        central = (points > math.exp(-2.0)) & (points <= 1.0 - math.exp(-2.0))
        tail = np.minimum(points, 1.0 - points)
        # Every branch is probed: central, sqrt(-2 log y) < 8, and beyond.
        assert central.sum() > 1000
        assert ((~central) & (tail > math.exp(-32.0))).sum() > 1000
        assert (tail < math.exp(-32.0)).sum() > 1000
        got = np.array([_ndtri(p) for p in points.tolist()])
        want = ndtri(points)
        mismatched = points[got.view(np.uint64) != want.view(np.uint64)]
        assert mismatched.tolist() == []

    def test_q_func_inv_is_negated_port(self):
        for p in (5e-324, 1e-300, 1e-20, 1e-6, 0.1, 0.5, 0.9, math.nextafter(1.0, 0.0)):
            assert q_func_inv(p) == 0.0 - float(ndtri(p))


def _same_bits(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return got.view(np.uint64) == want.view(np.uint64)


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v) for v in x.tolist()])


class TestLgam:
    """The log-factorial table and log binomial coefficients against math.lgamma,
    and math.lgamma on integers against scipy's gammaln."""

    def test_lgamma_within_4_ulp_of_gammaln_to_2_pow_18(self):
        x = np.arange(1, 2**18 + 1, dtype=float)
        np.testing.assert_array_max_ulp(_lgamma(x), gammaln(x), maxulp=4)

    def test_lgamma_within_4_ulp_of_gammaln_up_to_1e12(self):
        # 200000 integers log-uniform on [1, 1e12] from default_rng(1512),
        # fixed before the first run, plus the edges 12/13, 999/1000 and
        # 1e8/1e8 + 1 of the Cephes branches of gammaln and their neighbours.
        x = np.floor(10.0 ** np.random.default_rng(1512).uniform(0.0, 12.0, 200000))
        edges = [e + d for e in (13.0, 1000.0, 1e8 + 1.0) for d in (-2.0, -1.0, 0.0, 1.0)]
        x = np.concatenate([x, edges, [1e12]])
        assert (x < 13).sum() and ((x >= 13) & (x < 1000)).sum() > 1000
        assert ((x >= 1000) & (x <= 1e8)).sum() > 1000 and (x > 1e8).sum() > 1000
        np.testing.assert_array_max_ulp(_lgamma(x), gammaln(x), maxulp=4)

    def test_table_bit_identical_to_lgamma(self):
        # log k! = lgamma(k + 1) for k = 0 .. 2^18, however far the table
        # had grown before.
        table = _log_factorials(2**18)
        assert len(table) > 2**18
        k = np.arange(len(table), dtype=float)
        assert np.flatnonzero(~_same_bits(table, _lgamma(k + 1.0))).tolist() == []

    def test_log_binomial_coef_beyond_the_table(self):
        # An n past the table's cap takes math.lgamma directly, and the table
        # does not grow: binomial_cdf of a few terms of a huge block stays small.
        for n in (numerics._LOG_FACTORIALS_MAX, numerics._LOG_FACTORIALS_MAX + 5, 10**12):
            j = np.array([0, 1, 2, 3, 1000, n // 2, n - 1, n])
            want = math.lgamma(n + 1.0) - _lgamma(j + 1.0) - _lgamma(n - j + 1.0)
            assert _same_bits(_log_binomial_coef(j, n), want).all(), n
            assert len(numerics._LOG_FACTORIALS) <= numerics._LOG_FACTORIALS_MAX
        assert 0.0 < binomial_cdf(3, 10**12, 1e-12) < 1.0

    def test_log_binomial_coef_bit_identical_for_every_n_to_2048(self):
        for n in range(1, 2049):
            j = np.arange(n + 1)
            want = math.lgamma(n + 1.0) - _lgamma(j + 1.0) - _lgamma(n - j + 1.0)
            mismatched = np.flatnonzero(~_same_bits(_log_binomial_coef(j, n), want))
            assert mismatched.tolist() == [], n


def _binomial_cases() -> list[tuple[int, int, float]]:
    """(k, n, p) with 0 <= k < n <= 5000 and 0 < p < 1, which binomial_cdf sums in log space."""
    # 4000 triples from default_rng(1601), fixed before the first run: n
    # uniform on 1..5000, k uniform below n, p log-uniform on [1e-12, 1).
    rng = np.random.default_rng(1601)
    n = rng.integers(1, 5001, 4000)
    k = (rng.random(4000) * n).astype(int)
    p = 10.0 ** rng.uniform(-12.0, 0.0, 4000)
    cases = [(int(a), int(b), float(c)) for a, b, c in zip(k, n, p) if c < 1.0]
    # p = 1/2 and odd n: terms j and n - j are equal, so k >= (n + 1)/2 ties the maximum.
    cases += [(k, n, 0.5) for n in range(1, 200, 2) for k in range((n + 1) // 2, n, 3)]
    # One term (no sum left beside the maximum), and the largest p below 1.
    cases += [(0, 1, 0.5), (0, 5000, 1e-12), (0, 5000, 0.3), (4999, 5000, math.nextafter(1.0, 0.0))]
    return cases


class TestBinomialCdfMatchesScipy:
    """binomial_cdf, summed by numerics._binomial_sum, against scipy.stats.binom.cdf."""

    def test_within_2e_11_relative(self):
        cases = _binomial_cases()
        k, n, p = (np.array(c) for c in zip(*cases))
        got = np.array([binomial_cdf(*c) for c in cases])
        # The absolute slack covers one case, (24, 1333, 0.4487...), whose CDF
        # is 1.62e-296 (exact rational sum) and which scipy's incomplete beta
        # reads as 0.0.
        np.testing.assert_allclose(got, binom.cdf(k, n, p), rtol=2e-11, atol=1e-290)


class TestBinomialCdf:
    def test_full_support(self):
        for n, p in [(1, 0.3), (7, 0.5), (40, 0.01)]:
            assert binomial_cdf(n, n, p) == 1.0

    def test_no_errors_term(self):
        assert binomial_cdf(0, 7, 0.5) == pytest.approx(1 / 128, abs=1e-15)

    def test_single_error_anchor(self):
        # 8/128, from brute force over all 2^7 error patterns.
        assert binomial_cdf(1, 7, 0.5) == pytest.approx(0.0625, abs=1e-14)
        oracle = binomial_cdf_patterns(1, 7, Fraction(1, 2))
        assert binomial_cdf(1, 7, 0.5) == pytest.approx(float(oracle), abs=1e-14)

    @pytest.mark.parametrize("p_frac", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)])
    def test_enumeration_small_n(self, p_frac):
        p = float(p_frac)
        for n in range(1, 21):
            for k in range(n + 1):
                exact = float(binomial_cdf_exact(k, n, p_frac))
                assert abs(binomial_cdf(k, n, p) - exact) < 1e-12, (k, n, p)

    def test_pattern_enumeration_cross_check(self):
        p_frac = Fraction(3, 10)
        for n in (1, 4, 8):
            for k in range(n + 1):
                assert binomial_cdf(k, n, 0.3) == pytest.approx(
                    float(binomial_cdf_patterns(k, n, p_frac)), abs=1e-13
                )

    def test_large_n_stability(self):
        # Secondary cross-check through scipy's incomplete-beta route.
        from scipy.stats import binom

        for k, n, p in [(50_000, 100_000, 0.5), (900, 100_000, 0.01), (99_000, 100_000, 0.99)]:
            value = binomial_cdf(k, n, p)
            assert 0.0 <= value <= 1.0
            assert value == pytest.approx(float(binom.cdf(k, n, p)), rel=1e-9, abs=1e-12)

    def test_degenerate_p(self):
        assert binomial_cdf(0, 5, 0.0) == 1.0
        assert binomial_cdf(4, 5, 1.0) == 0.0
        assert binomial_cdf(5, 5, 1.0) == 1.0

    def test_monotone_in_k(self):
        values = [binomial_cdf(k, 30, 0.4) for k in range(31)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("k,n", [(-1, 5), (6, 5), (0, 0)])
    def test_domain_errors(self, k, n):
        with pytest.raises(ValueError):
            binomial_cdf(k, n, 0.5)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            binomial_cdf(1, 5, 1.5)
        with pytest.raises(ValueError):
            binomial_cdf(1, 5, math.nan)


def _monotone_function(rng: random.Random):
    """One seeded monotone function on SNR_BRACKET_DB, of a randomly drawn family.

    Roots fall inside the bracket, exactly on one of its ends, or (then
    both ends have one sign) outside it.
    """
    lo, hi = SNR_BRACKET_DB
    family = rng.choice(("linear", "flat", "steep", "saturating", "clipped", "exp", "step", "fb"))
    root = rng.choice((lo, hi)) if rng.random() < 0.1 else rng.uniform(1.2 * lo, 1.2 * hi)
    sign = rng.choice((-1.0, 1.0))
    if family == "linear":
        k = 10.0 ** rng.uniform(-6.0, 6.0)
        return lambda x: sign * k * (x - root)
    if family == "flat":
        k = 10.0 ** rng.uniform(-12.0, 0.0)
        return lambda x: sign * k * (x - root) ** 3
    if family == "steep":
        k = 10.0 ** rng.uniform(0.0, 3.0)
        return lambda x: sign * math.tanh(k * (x - root))
    if family == "saturating":
        # Shaped like an error-probability residual: flat at both ends.
        k, target = 10.0 ** rng.uniform(-2.0, 1.0), 10.0 ** rng.uniform(-12.0, -0.5)
        return lambda x: sign * (0.5 * math.erfc(k * (x - root)) - target)
    if family == "clipped":
        k = 10.0 ** rng.uniform(-2.0, 2.0)
        return lambda x: sign * min(max(k * (x - root), -1.0), 1.0)
    if family == "exp":
        k = rng.uniform(1e-3, 5.0)
        return lambda x: sign * math.expm1(k * (x - root))
    if family == "step":
        return lambda x: sign * math.copysign(1.0, x - root)
    n, rate, target = rng.randint(1, 10**5), rng.uniform(0.01, 5.0), 10.0 ** rng.uniform(-12.0, -0.1)
    return lambda x: error_probability(n, rate, db_to_linear(x)) - target


def _solve(solver, f, a, b):
    """The hex of the root, or the type of the exception raised."""
    try:
        return solver(f, a, b, xtol=1e-12).hex()
    except (ValueError, RuntimeError) as error:
        return type(error).__name__


class TestBrentRoot:
    def test_same_iterates_as_scipy(self):
        rng = random.Random(20190620)
        lo, hi = SNR_BRACKET_DB
        outcomes = []
        for _ in range(3000):
            f = _monotone_function(rng)
            calls = []

            def logged(x, f=f):
                calls.append(x)
                return f(x)

            # SciPy evaluates both ends first; brent_root takes them as arguments.
            ours = _solve(lambda f, a, b, xtol: brent_root(f, a, b, f(a), f(b), xtol), logged, lo, hi)
            ours_calls, calls[:] = list(calls), []
            theirs = _solve(brentq, logged, lo, hi)
            assert (ours, ours_calls) == (theirs, calls)
            outcomes.append(ours)
        roots = [o for o in outcomes if o != "ValueError"]
        # Enough roots, exact ends included, and enough refused brackets.
        assert len(roots) > 2000
        assert lo.hex() in roots and hi.hex() in roots
        assert len(outcomes) - len(roots) > 100

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            brent_root(lambda x: x + 100.0, -60.0, 60.0, 40.0, 160.0, xtol=1e-12)

    def test_iteration_cap_raises(self):
        # A sign step at 1e-300 with no absolute tolerance needs ~1000 halvings.
        step = lambda x: math.copysign(1.0, x - 1e-300)
        with pytest.raises(RuntimeError, match="100 iterations"):
            brent_root(step, -60.0, 60.0, -1.0, 1.0, xtol=5e-324)
        with pytest.raises(RuntimeError):
            brentq(step, -60.0, 60.0, xtol=5e-324)


class TestMean:
    """The summary rule of the simulators' columns."""

    def test_float_column_summed_exactly(self):
        # The uncompensated sum() of Python 3.11 loses the 1.0 (1e16 + 1 is a
        # tie that rounds to 1e16) and reads 2.0; the exact sum is 3.0.
        assert _mean(np.array([1e16, 1.0, -1e16, 2.0])) == 0.75

    def test_boolean_column_is_a_count(self):
        column = np.array([True, False, True, True, False, False, True])
        assert _mean(column) == 4 / 7
        assert math.isnan(_mean(column[:0]))

    def test_sum_beyond_the_largest_double(self):
        # The exact sum is 2^1025, past the largest double; the mean 2^1025/3
        # is not, and is rounded once.
        big = math.ldexp(1.5, 1023)
        assert _mean(np.array([big, big, math.ldexp(1.0, 1023)])) == float(Fraction(2**1025, 3))
        assert _mean(np.array([math.inf, big, big])) == math.inf


class TestRandomStreams:
    def test_same_seed_identical(self):
        seed = RngSeed(987654321, 7)
        a = seed.generator().standard_normal(64)
        b = seed.generator().standard_normal(64)
        assert np.array_equal(a, b)
        assert np.array_equal(seed.generator().random(64), seed.generator().random(64))

    def test_streams_separate(self):
        master = 11
        a = RngSeed(master, 0).generator().standard_normal(16)
        b = RngSeed(master, 1).generator().standard_normal(16)
        assert not np.any(a == b)

    def test_normal_moments(self):
        draws = RngSeed(2024, 0).generator().standard_normal(10**6)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(2**64)
        with pytest.raises(ValueError):
            RngSeed(1, -3)

    @pytest.mark.parametrize("flag", [True, False])
    def test_seed_rejects_bool(self, flag):
        # bool is an int subclass: RngSeed(True) would draw RngSeed(1)'s stream.
        with pytest.raises(ValueError, match="master_seed must be an unsigned 64-bit integer"):
            RngSeed(flag)
        with pytest.raises(ValueError, match="stream_id must be an unsigned 64-bit integer"):
            RngSeed(1, flag)

    def test_stream_helper(self):
        seed = RngSeed(5, 0)
        assert seed.stream(9) == RngSeed(5, 9)
