import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from fblsec.ber import (
    BerThresholds,
    CodeSpec,
    _ber_curve,
    _crossover_at_db,
    be_cdf,
    ber_security_gap,
    block_error_prob,
    bsc_crossover,
    post_decoding_ber,
)
from fblsec.fb_coding import SNR_BRACKET_DB, db_to_linear
from fblsec.numerics import (
    _EXP_ZERO_BELOW,
    UnsatisfiableError,
    _binomial_log_pmf,
    _log_binomial_coef,
    q_func,
)

from oracles import (
    ber_security_gap_search,
    binomial_cdf_exact,
    binomial_cdf_patterns,
    exact_outcome,
    post_decoding_ber_exact,
    post_decoding_ber_sum,
    q_oracle,
)

HAMMING = CodeSpec(n_bits=7, t=1)


class TestSpecs:
    def test_code_validation(self):
        CodeSpec(1, 0)
        CodeSpec(127, 127)
        with pytest.raises(ValueError):
            CodeSpec(0, 0)
        with pytest.raises(ValueError):
            CodeSpec(7, 8)
        with pytest.raises(ValueError):
            CodeSpec(7, -1)

    def test_threshold_validation(self):
        BerThresholds(1e-5, 0.45)
        with pytest.raises(ValueError):
            BerThresholds(0.0, 0.45)
        with pytest.raises(ValueError):
            BerThresholds(0.4, 0.3)
        with pytest.raises(ValueError):
            BerThresholds(1e-5, 0.6)


class TestBscCrossover:
    def test_limits(self):
        assert bsc_crossover(1e-12) == pytest.approx(0.5, abs=1e-5)
        assert bsc_crossover(1e6) < 1e-20

    def test_unit_snr_anchor(self):
        # Q(sqrt(2)) from the integration oracle: 0.0786496035251.
        assert bsc_crossover(1.0) == pytest.approx(0.0786496035251, rel=1e-9)
        assert bsc_crossover(1.0) == pytest.approx(q_oracle(math.sqrt(2.0)), rel=1e-9)

    def test_decreasing(self):
        grid = [0.01, 0.1, 1.0, 10.0, 100.0]
        values = [bsc_crossover(g) for g in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            bsc_crossover(0.0)

    @pytest.mark.parametrize("gamma", [
        math.nextafter(sys.float_info.max / 2.0, math.inf), 1e308, sys.float_info.max,
    ])
    def test_zero_where_twice_the_snr_overflows(self, gamma):
        assert math.isinf(2.0 * gamma)
        assert bsc_crossover(gamma) == 0.0

    def test_finite_range_is_q_of_sqrt_2_snr(self):
        # Below the overflow every value is q_func(sqrt(2 gamma)), bit for bit:
        # 20000 SNRs log-uniform on [1e-320, 8.9e307] from default_rng(1602),
        # fixed before the first run, plus the last SNR whose double is finite.
        gamma = 10.0 ** np.random.default_rng(1602).uniform(-320.0, 307.95, 20000)
        gamma = [*gamma.tolist(), 5e-324, 1.0, sys.float_info.max / 2.0]
        assert [bsc_crossover(g).hex() for g in gamma] == [
            q_func(math.sqrt(2.0 * g)).hex() for g in gamma
        ]


class TestBeCdf:
    def test_full_support(self):
        assert be_cdf(HAMMING, 0.37, 7) == 1.0

    def test_pattern_enumeration_anchor(self):
        assert be_cdf(HAMMING, 0.5, 1) == pytest.approx(0.0625, abs=1e-14)
        oracle = binomial_cdf_patterns(1, 7, Fraction(1, 2))
        assert be_cdf(HAMMING, 0.5, 1) == pytest.approx(float(oracle), abs=1e-14)

    def test_error_free_channel(self):
        for k in range(8):
            assert be_cdf(HAMMING, 0.0, k) == 1.0

    @pytest.mark.parametrize("p", [1.5, math.nan])
    def test_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="p must lie in"):
            be_cdf(HAMMING, p, 1)
        with pytest.raises(ValueError, match="p must lie in"):
            post_decoding_ber(HAMMING, p)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            be_cdf(HAMMING, 0.1, 8)
        with pytest.raises(ValueError):
            be_cdf(HAMMING, 0.1, -1)


class TestBlockErrorProb:
    def test_error_free(self):
        assert block_error_prob(HAMMING, 0.0) == 0.0

    def test_hamming_at_half(self):
        # 1 - 8/128 = 15/16, by enumeration over the 2^7 patterns.
        assert block_error_prob(HAMMING, 0.5) == pytest.approx(0.9375, abs=1e-14)

    def test_all_correctable(self):
        code = CodeSpec(5, 5)
        for p in (0.0, 0.2, 0.5, 0.99, 1.0):
            assert block_error_prob(code, p) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_in_p(self):
        probs = [block_error_prob(HAMMING, p) for p in (0.01, 0.05, 0.1, 0.3, 0.5, 0.9)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_upper_tail_matches_scipy_sf(self):
        # 1 - be_cdf keeps only about 1e-16 absolute accuracy; the tail sum
        # keeps its relative accuracy. binom.sf itself drifts by up to 1e-3
        # relative just above 1e-300 (see test_deep_tail_is_exact), so the
        # comparison stops at 1e-280.
        rng = np.random.default_rng(2103)
        n = np.floor(2.0 ** rng.uniform(0.0, 12.0, 500)).astype(int)
        t = np.floor(rng.uniform(0.0, 1.0, 500) * (np.minimum(n, 300) + 1)).astype(int)
        p = 10.0 ** rng.uniform(-12.0, 0.0, 500) * 0.999
        want = binom.sf(t, n, p)
        got = np.array([block_error_prob(CodeSpec(int(a), int(b)), float(c)) for a, b, c in zip(n, t, p)])
        keep = want >= 1e-280
        assert keep.sum() > 250
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "n_bits, t, p",
        [
            (2047, 100, 1e-3),  # 1 - be_cdf gives 9.8e-13 here
            (1023, 50, 1e-2),  # and 4.6e-13 here
            (73, 39, 1.1362817100730065e-08),  # binom.sf is 1.0e-6 off
            (76, 37, 5.933045689804811e-09),  # binom.sf is 3.5e-4 off
            (58, 38, 9.57158943319762e-09),  # binom.sf is 6.2e-4 off
        ],
    )
    def test_deep_tail_is_exact(self, n_bits, t, p):
        exact = float(1 - binomial_cdf_exact(t, n_bits, Fraction(p)))
        assert block_error_prob(CodeSpec(n_bits, t), p) == pytest.approx(exact, rel=1e-10, abs=0.0)


class TestPostDecodingBer:
    def test_error_free(self):
        assert post_decoding_ber(HAMMING, 0.0) == 0.0

    @pytest.mark.parametrize("p", [0.0, 1e-6, 0.1, 0.3, 0.5, 0.9, 1.0])
    def test_uncoded_identity(self, p):
        # t = 0 telescopes to E[X]/n = p, bit for bit.
        assert post_decoding_ber(CodeSpec(9, 0), p) == pytest.approx(p, abs=1e-15)

    def test_hamming_anchor(self):
        # Exact expectation over X = 0..7: 85301/1250000 = 0.0682408.
        assert post_decoding_ber(HAMMING, 0.1) == pytest.approx(0.0682408, abs=1e-12)
        oracle = post_decoding_ber_exact(7, 1, Fraction(1, 10))
        assert post_decoding_ber(HAMMING, 0.1) == pytest.approx(float(oracle), abs=1e-13)

    @pytest.mark.parametrize("n_bits,t", [(5, 0), (7, 1), (12, 3), (20, 7), (20, 20)])
    def test_exact_enumeration(self, n_bits, t):
        code = CodeSpec(n_bits, t)
        for p_frac in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
            expected = float(post_decoding_ber_exact(n_bits, t, p_frac))
            assert abs(post_decoding_ber(code, float(p_frac)) - expected) < 1e-12

    @given(st.integers(1, 30), st.integers(0, 30), st.floats(1e-6, 1.0 - 1e-6))
    def test_bounded_and_monotone(self, n_bits, t, p):
        t = min(t, n_bits)
        code = CodeSpec(n_bits, t)
        value = post_decoding_ber(code, p)
        assert 0.0 <= value <= 1.0
        assert post_decoding_ber(code, min(1.0, p * 1.5)) >= value - 1e-15

    def test_saturated_channel(self):
        assert post_decoding_ber(CodeSpec(6, 2), 1.0) == 1.0


class TestBerSecurityGap:
    @pytest.mark.parametrize("code", [CodeSpec(1, 0), CodeSpec(7, 1), CodeSpec(2047, 0),
                                      CodeSpec(2047, 100), CodeSpec(5, 5)])
    def test_ber_is_zero_at_the_high_bracket_end(self, code):
        # Every BER target exceeds 0, so the searches never meet the high end
        # as an edge; a wider bracket would have to handle it.
        assert _crossover_at_db(SNR_BRACKET_DB[1]) == 0.0
        assert _ber_curve(code)(0.0) == 0.0

    def test_uncoded_eve_threshold_at_bracket_edge(self):
        # Uncoded BER reaches 0.5 only at zero SNR, below the bracket.
        result = ber_security_gap(CodeSpec(31, 0), BerThresholds(1e-3, 0.5))
        assert result.eve_at_bracket_edge
        assert result.snr_e_max == pytest.approx(db_to_linear(-60.0), rel=1e-12)
        assert not result.bob_at_bracket_edge

    def test_coded_gap_finite_positive(self):
        result = ber_security_gap(CodeSpec(127, 10), BerThresholds(1e-5, 0.45))
        assert not result.bob_at_bracket_edge and not result.eve_at_bracket_edge
        assert result.snr_b_min > result.snr_e_max > 0.0
        assert result.gap_linear > 1.0
        assert result.gap_db == pytest.approx(
            10 * math.log10(result.gap_linear), rel=1e-12
        )

    def test_root_residuals(self):
        code = CodeSpec(63, 5)
        thresholds = BerThresholds(1e-4, 0.4)
        result = ber_security_gap(code, thresholds)

        def ber_at(snr):
            return post_decoding_ber(code, bsc_crossover(snr))

        assert ber_at(result.snr_b_min) == pytest.approx(thresholds.p_ber_max_b, rel=1e-6)
        assert ber_at(result.snr_e_max) == pytest.approx(thresholds.p_ber_min_e, rel=1e-6)

    def test_stronger_code_needs_no_more_snr(self):
        thresholds = BerThresholds(1e-5, 0.45)
        mins = [
            ber_security_gap(CodeSpec(127, t), thresholds).snr_b_min
            for t in (1, 2, 4, 8, 16)
        ]
        assert all(b <= a for a, b in zip(mins, mins[1:]))

    def test_unsatisfiable_security_side(self):
        # t = n - 1 leaves only the all-flips pattern uncorrected; the BER
        # ceiling at zero SNR is 2^-n of... far below the demanded floor.
        with pytest.raises(UnsatisfiableError, match="security"):
            ber_security_gap(CodeSpec(4, 3), BerThresholds(1e-3, 0.4))


@st.composite
def _codes(draw, n_max=600):
    """Codes with t = 0, t = n, t = n - 1 or any t."""
    n = draw(st.one_of(st.just(1), st.integers(1, n_max)))
    kind = draw(st.sampled_from(("uncoded", "all", "all_but_one", "any")))
    if kind == "any":
        return CodeSpec(n, draw(st.integers(0, n)))
    return CodeSpec(n, {"uncoded": 0, "all": n, "all_but_one": n - 1}[kind])


#: Codes and flip rates whose log pmf terms fall in the band where exp is
#: subnormal (-745 < x < -708). In the first two the answer is subnormal
#: too, from one term at -744.65 and one at -719.97, so that it changes if
#: such a term is dropped.
SUBNORMAL_TERMS = [
    (CodeSpec(2, 1), 2e-162),
    (CodeSpec(7, 1), 1e-157),
    (CodeSpec(127, 10), 1e-6),
    (CodeSpec(300, 2), 0.05),
    (CodeSpec(1023, 10), 0.2),
    (CodeSpec(4096, 100), 0.01),
    (CodeSpec(4096, 400), 0.3),
]


class TestPostDecodingBerMatchesPlainSum:
    """post_decoding_ber, which skips exp on underflowing terms, against the
    plain sum over every term."""

    @given(
        code=_codes(n_max=4096),
        p=st.one_of(
            st.sampled_from((0.0, 0.5, 1.0, 5e-324)),
            st.floats(0.0, 1.0),
            st.floats(-300.0, 0.0).map(lambda e: 10.0**e),
            st.floats(-60.0, 60.0).map(lambda db: bsc_crossover(db_to_linear(db))),
        ),
    )
    @example(code=SUBNORMAL_TERMS[0][0], p=SUBNORMAL_TERMS[0][1])
    @example(code=SUBNORMAL_TERMS[1][0], p=SUBNORMAL_TERMS[1][1])
    @example(code=SUBNORMAL_TERMS[2][0], p=SUBNORMAL_TERMS[2][1])
    @example(code=SUBNORMAL_TERMS[3][0], p=SUBNORMAL_TERMS[3][1])
    @example(code=SUBNORMAL_TERMS[4][0], p=SUBNORMAL_TERMS[4][1])
    @example(code=SUBNORMAL_TERMS[5][0], p=SUBNORMAL_TERMS[5][1])
    @example(code=SUBNORMAL_TERMS[6][0], p=SUBNORMAL_TERMS[6][1])
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, code, p):
        got = post_decoding_ber(code, p)
        assert got.hex() == post_decoding_ber_sum(code.n_bits, code.t, p).hex()

    @pytest.mark.parametrize("code,p", SUBNORMAL_TERMS)
    def test_examples_reach_the_subnormal_band(self, code, p):
        n, t = code.n_bits, code.t
        j = np.arange(t + 1, n + 1)
        log_pmf = _binomial_log_pmf(j, n - j, p, _log_binomial_coef(j, n))
        assert ((log_pmf > -745.0) & (log_pmf < -708.0)).any()

    def test_subnormal_answers(self):
        assert post_decoding_ber(*SUBNORMAL_TERMS[0]) == 5e-324
        assert 0.0 < post_decoding_ber(*SUBNORMAL_TERMS[1]) < sys.float_info.min

    def test_exp_is_zero_below_the_threshold(self):
        below = [math.nextafter(_EXP_ZERO_BELOW, -math.inf), -746.5, -800.0, -1e4, -1e300, -math.inf]
        # Lengths 1 .. 33, so numpy's vector loop and its scalar tail both run.
        for size in range(1, 34):
            for x in below:
                assert np.exp(np.full(size, x)).tolist() == [0.0] * size
        assert math.copysign(1.0, float(np.exp(np.float64(-746.5)))) == 1.0


class TestBerSecurityGapMatchesStepwiseOracle:
    """ber_security_gap, with the BER curve's constants computed once per
    search, against brentq over a BER sum recomputed at every step."""

    @given(
        code=_codes(),
        ber_b=st.one_of(st.floats(-9.0, -0.31).map(lambda e: 10.0**e), st.floats(0.499, 0.49999)),
        ber_e_share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    )
    # Eve alone and both sides at the bracket edge (uncoded, so the BER is
    # 0.49944 at -60 dB), and Bob at it with Eve unsatisfiable (t = n).
    @example(code=CodeSpec(31, 0), ber_b=1e-3, ber_e_share=1.0)
    @example(code=CodeSpec(10, 0), ber_b=0.49995, ber_e_share=1.0)
    @example(code=CodeSpec(20, 20), ber_b=1e-3, ber_e_share=0.5)
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, code, ber_b, ber_e_share):
        ber_e = min(0.5, ber_b + ber_e_share * (0.5 - ber_b))
        assume(ber_b < ber_e)
        thresholds = BerThresholds(ber_b, ber_e)
        assert exact_outcome(ber_security_gap, code, thresholds) == exact_outcome(
            ber_security_gap_search, code, thresholds
        )

    def test_both_sides_at_the_bracket_edge(self):
        # The second @example above: the uncoded BER at -60 dB is 0.49944.
        result = ber_security_gap(CodeSpec(10, 0), BerThresholds(0.49995, 0.5))
        assert result.bob_at_bracket_edge and result.eve_at_bracket_edge
