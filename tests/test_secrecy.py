import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblsec import fb_coding
from fblsec.fb_coding import (
    SNR_BRACKET_DB,
    capacity,
    db_to_linear,
    dispersion,
    error_probability,
    max_rate,
)
from fblsec.numerics import UnsatisfiableError, q_func_inv
from fblsec.secrecy import (
    ConstraintPair,
    RateIntervals,
    min_blocklength,
    r_inf,
    rate_interval,
    _simulated_intervals,
    rate_interval_batch,
    security_gap,
)

from oracles import assess_sinr_pair, exact_outcome, min_blocklength_search, security_gap_search

CP = ConstraintPair(beta_b=1e-6, beta_e=0.5)
GB = db_to_linear(10.0)
GE = db_to_linear(0.0)


class TestConstraintPair:
    def test_valid(self):
        cp = ConstraintPair(1e-6, 0.5)
        assert cp.beta_b == 1e-6 and cp.beta_e == 0.5

    def test_warns_when_inverted(self):
        with pytest.warns(RuntimeWarning):
            ConstraintPair(0.5, 0.5)
        with pytest.warns(RuntimeWarning):
            ConstraintPair(0.6, 0.2)

    @pytest.mark.parametrize("bb,be", [(0.0, 0.5), (1.0, 0.5), (1e-6, 0.0), (1e-6, 1.5)])
    def test_rejects_out_of_range(self, bb, be):
        with pytest.raises(ValueError):
            ConstraintPair(bb, be)


class TestRateBounds:
    def test_r_sup_reference_point(self):
        # C(10) - sqrt(V(10)/500) * Qinv(1e-6), 50-digit evaluation:
        # 3.1540140204938694.
        assert max_rate(500, 1e-6, GB) == pytest.approx(3.1540140204938694, rel=1e-12)

    def test_r_sup_asymptote(self):
        assert max_rate(10**9, 1e-6, GB) == pytest.approx(capacity(GB), abs=1e-3)

    def test_r_sup_equals_capacity_at_half(self):
        for n in (1, 10, 1000):
            assert max_rate(n, 0.5, GB) == capacity(GB)

    def test_r_inf_horizontal_at_half(self):
        for n in (10, 100, 1000, 10**4):
            assert r_inf(n, 0.5, GE) == capacity(GE)

    def test_r_inf_below_capacity_for_weak_security(self):
        # A milder floor on Eve's error admits lower rates.
        assert r_inf(500, 0.1, GE) < capacity(GE)

    def test_r_inf_above_capacity_for_strong_security(self):
        with pytest.warns(RuntimeWarning):
            value = r_inf(500, 0.7, GE)
        assert value > capacity(GE)

    @pytest.mark.parametrize("beta_e", [0.1, 0.5, 0.9])
    def test_r_inf_asymptote(self, beta_e):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert r_inf(10**9, beta_e, GE) == pytest.approx(capacity(GE), abs=1e-3)

    def test_r_inf_certain_error_unreachable(self):
        with pytest.warns(RuntimeWarning):
            assert r_inf(100, 1.0, GE) == math.inf

    def test_monotone_in_n(self):
        sups = [max_rate(n, 1e-6, GB) for n in (50, 200, 800, 3200)]
        assert all(b > a for a, b in zip(sups, sups[1:]))


class TestRateInterval:
    def test_equal_snrs_infeasible(self):
        a = rate_interval(400, GB, GB, CP)
        expected = -math.sqrt(dispersion(GB) / 400) * q_func_inv(1e-6)
        assert a.delta_r == pytest.approx(expected, rel=1e-12)
        assert a.delta_r < 0.0 and not a.feasible

    def test_large_n_asymptote(self):
        a = rate_interval(10**6, GB, GE, CP)
        assert a.delta_r == pytest.approx(capacity(GB) - capacity(GE), abs=0.01)

    def test_half_half_feasible_everywhere(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cp = ConstraintPair(0.5, 0.5)
        for n in (1, 5, 100):
            a = rate_interval(n, GB, GE, cp)
            assert a.delta_r == capacity(GB) - capacity(GE)
            assert a.feasible

    def test_invariant_delta(self):
        a = rate_interval(321, GB, GE, CP)
        assert a.delta_r == a.r_sup - a.r_inf
        assert a.feasible == (a.delta_r >= 0.0)

    def test_clamped_marker(self):
        a = rate_interval(5, db_to_linear(-25.0), GE, CP)
        assert a.r_sup == 0.0 and not a.feasible

    def test_convergence_rate(self):
        c_sec = capacity(GB) - capacity(GE)
        errors = [abs(rate_interval(n, GB, GE, CP).delta_r - c_sec) for n in (1000, 4000, 16000)]
        assert errors[0] / errors[1] >= 1.9
        assert errors[1] / errors[2] >= 1.9
        # The gap closes exactly like 1/sqrt(n): quadrupling n halves it.
        assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.01)


class TestSecurityGap:
    def test_eve_threshold_closed_form(self):
        # eps = 0.5 exactly at rate = capacity, so snr_e_max = 2^rate - 1.
        for rate in (0.5, 1.0, 2.5):
            gap = security_gap(500, rate, CP)
            assert gap.snr_e_max == pytest.approx(2.0**rate - 1.0, rel=1e-9)

    def test_reference_point(self):
        # snr_b_min from a 50-digit bisection of eps(gamma) = 1e-6 at
        # (n=500, rate=1): 1.4274734649033129.
        gap = security_gap(500, 1.0, CP)
        assert gap.snr_b_min == pytest.approx(1.4274734649033129, rel=1e-9)
        assert gap.gap_linear == pytest.approx(1.4274734649033129, rel=1e-9)
        assert gap.gap_db == pytest.approx(10 * math.log10(1.4274734649033129), rel=1e-9)

    def test_root_residuals(self):
        for n, rate in [(200, 0.8), (500, 1.0), (2000, 2.0)]:
            gap = security_gap(n, rate, CP)
            assert abs(error_probability(n, rate, gap.snr_b_min) - CP.beta_b) < 1e-9
            assert abs(error_probability(n, rate, gap.snr_e_max) - CP.beta_e) < 1e-9

    def test_target_met_exactly_at_bracket_end(self):
        # Bob's target is the error probability at the -60 dB end itself, so
        # that end is the root.
        lo = db_to_linear(SNR_BRACKET_DB[0])
        beta_b = error_probability(500, 1e-5, lo)
        with pytest.warns(RuntimeWarning, match="no stricter"):
            constraints = ConstraintPair(beta_b, beta_b / 2)
        assert security_gap(500, 1e-5, constraints).snr_b_min == lo

    def test_bracket_ends_evaluated_once(self, monkeypatch):
        # The bracket ends are evaluated once, shared by the two searches for
        # their bracket checks and handed to the solver: 2 + 22 + 1 calls.
        # Bob's Brent path follows the last bits of C and V. Eve's first step
        # lands on 0 dB, her exact root: eps = 1/2 where C(1) = 1 equals the
        # rate. No SNR is evaluated twice.
        calls = []
        inner = fb_coding._error_probability
        monkeypatch.setattr(fb_coding, "_error_probability", lambda *a: calls.append(a) or inner(*a))
        security_gap(500, 1.0, CP)
        assert len(calls) == 25
        assert len({gamma for _, _, gamma, _ in calls}) == len(calls)

    def test_bob_is_blamed_first_when_both_sides_fail(self):
        # At n = 1 and a vanishing rate, eps is 0.4997 at -60 dB, below
        # beta_b = 0.6, and 1.03e-43 at 60 dB, above beta_e = 1e-50, so each
        # side fails on its own; Bob's low end is checked first.
        lo, hi = (error_probability(1, 1e-9, db_to_linear(db)) for db in SNR_BRACKET_DB)
        assert lo < 0.6 and hi > 1e-50
        with pytest.warns(RuntimeWarning, match="no stricter"):
            both, eve_only = ConstraintPair(0.6, 1e-50), ConstraintPair(0.4, 1e-50)
        with pytest.raises(UnsatisfiableError) as error:
            security_gap(1, 1e-9, both)
        assert str(error.value) == (
            "reliability constraint (Bob): error probability is already below 0.6 "
            "at the -60.0 dB end of the search bracket"
        )
        with pytest.raises(UnsatisfiableError) as error:
            security_gap(1, 1e-9, eve_only)
        assert str(error.value) == (
            "security constraint (Eve): error probability stays above 1e-50 even "
            "at the 60.0 dB end of the search bracket"
        )

    def test_gap_shrinks_with_blocklength(self):
        gaps = [security_gap(n, 1.0, CP).gap_linear for n in (100, 200, 500, 1000, 2000, 10**6)]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] > 1.0
        assert gaps[-1] == pytest.approx(1.0, abs=0.02)

    def test_unsatisfiable_reliability_side(self):
        with pytest.raises(UnsatisfiableError, match="reliability"):
            security_gap(500, 99.0, CP)

    def test_unsatisfiable_security_side(self):
        # At a vanishing rate Eve's error sits below 0.5 across the whole
        # bracket: the root lies beyond the -60 dB end.
        with pytest.raises(UnsatisfiableError, match="security"):
            security_gap(500, 1e-9, CP)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            security_gap(500, 0.0, CP)


class TestMinBlocklength:
    def test_reference_scan(self):
        # Linear-scan oracle (50-digit arithmetic, run pre-build) gives 8
        # for (10 dB, 0 dB, 1e-6, 0.5).
        assert min_blocklength(GB, GE, CP) == 8
        assert not rate_interval(7, GB, GE, CP).feasible
        assert rate_interval(8, GB, GE, CP).feasible

    def test_matches_linear_scan(self):
        for gb_db, ge_db in [(10.0, 0.0), (8.0, 3.0), (15.0, 9.0)]:
            gb, ge = db_to_linear(gb_db), db_to_linear(ge_db)
            result = min_blocklength(gb, ge, CP, n_max=10**6)
            scan = next(
                (n for n in range(1, 20001) if rate_interval(n, gb, ge, CP).feasible),
                None,
            )
            assert result == scan

    def test_never_feasible(self):
        assert min_blocklength(GE, GB, CP, n_max=10**5) is None

    def test_degenerate_always_feasible(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cp = ConstraintPair(0.5, 0.5)
        assert min_blocklength(GB, GE, cp) == 1

    def test_n_max_respected(self):
        assert min_blocklength(GB, GE, CP, n_max=7) is None
        assert min_blocklength(GB, GE, CP, n_max=8) == 8
        assert min_blocklength(GE, GB, CP, n_max=1) is None

    def test_feasibility_monotone_above_crossover(self):
        n_star = min_blocklength(GB, GE, CP)
        for n in (n_star, n_star + 1, 2 * n_star, 10 * n_star, 1000 * n_star):
            assert rate_interval(n, GB, GE, CP).feasible

    def test_log_term_config_passed_through(self):
        # The correction enters ceiling and floor identically and cancels
        # in delta_r, so the crossover is unchanged.
        assert min_blocklength(GB, GE, CP, True) == 8

    def test_reverse_monotone_direction(self):
        # beta_e < beta_b = 0.5 flips the sign of the 1/sqrt(n) term:
        # delta_r decreases with n and only tiny blocklengths are feasible.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cp = ConstraintPair(0.5, 0.4)
        gb, ge = db_to_linear(2.0), db_to_linear(3.0)
        assert rate_interval(1, gb, ge, cp).feasible
        assert not rate_interval(10, gb, ge, cp).feasible
        assert min_blocklength(gb, ge, cp) == 1


class TestMinBlocklengthAgainstScan:
    """The bracketed bisection must find what a scan of every n finds."""

    @given(
        snr_b_db=st.floats(-10.0, 30.0),
        snr_e_db=st.floats(-10.0, 30.0),
        beta_b=st.floats(1e-9, 0.6),
        beta_e=st.floats(1e-3, 0.99),
        log_term=st.booleans(),
        n_max=st.integers(1, 2000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_scan(self, snr_b_db, snr_e_db, beta_b, beta_e, log_term, n_max):
        gb, ge = db_to_linear(snr_b_db), db_to_linear(snr_e_db)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cp = ConstraintPair(beta_b, beta_e)
            scan = next(
                (n for n in range(1, n_max + 1) if rate_interval(n, gb, ge, cp, log_term).feasible),
                None,
            )
            assert min_blocklength(gb, ge, cp, log_term, n_max=n_max) == scan


#: beta_e below, at and above 0.5, and 1 (a rate floor of +inf).
BETA_E = st.one_of(st.floats(1e-3, 0.4999), st.just(0.5), st.floats(0.5001, 0.999), st.just(1.0))
LOG_BETA_B = st.floats(-12.0, -0.01).map(lambda e: 10.0**e)


def _pair(beta_b, beta_e):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ConstraintPair(beta_b, beta_e)


class TestSearchesMatchStepwiseOracles:
    """security_gap and min_blocklength, with their constants computed once per
    search, against the searches that re-derive everything at every step."""

    @given(
        n=st.one_of(st.just(1), st.integers(1, 10**6)),
        rate=st.floats(1e-3, 8.0),
        beta_b=LOG_BETA_B,
        beta_e=BETA_E,
        log_term=st.booleans(),
    )
    @example(n=1, rate=0.5, beta_b=1e-6, beta_e=0.5, log_term=False)
    @example(n=500, rate=1.0, beta_b=1e-6, beta_e=0.5, log_term=True)
    @settings(max_examples=300, deadline=None)
    def test_security_gap(self, n, rate, beta_b, beta_e, log_term):
        args = (n, rate, _pair(beta_b, beta_e), log_term)
        assert exact_outcome(security_gap, *args) == exact_outcome(security_gap_search, *args)

    @given(
        snr_b_db=st.floats(-30.0, 40.0),
        snr_e_db=st.floats(-30.0, 40.0),
        beta_b=LOG_BETA_B,
        beta_e=BETA_E,
        log_term=st.booleans(),
        n_max=st.one_of(st.just(1), st.integers(1, 10**7)),
    )
    @settings(max_examples=300, deadline=None)
    def test_min_blocklength(self, snr_b_db, snr_e_db, beta_b, beta_e, log_term, n_max):
        args = (
            db_to_linear(snr_b_db),
            db_to_linear(snr_e_db),
            _pair(beta_b, beta_e),
            log_term,
            n_max,
        )
        assert exact_outcome(min_blocklength, *args) == exact_outcome(min_blocklength_search, *args)


class TestMinBlocklengthChecksOnce:
    def _warnings(self, gamma_b, constraints):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = min_blocklength(gamma_b, 1.0, constraints)
        return result, [str(w.message) for w in caught]

    def test_warns_once_per_call(self):
        # Feasible from n = 10 on, so the search probes several n.
        result, messages = self._warnings(10.0, _pair(1e-6, 0.7))
        assert result == 10
        assert len(messages) == 1 and messages[0].startswith("beta_e=0.7 > 0.5")

    def test_beta_e_one_is_never_feasible(self):
        result, messages = self._warnings(100.0, _pair(1e-3, 1.0))
        assert result is None
        assert len(messages) == 1 and messages[0].startswith("beta_e=1.0 > 0.5")

    @pytest.mark.parametrize(
        "gamma_b, gamma_e, constraints, n_max, message",
        [
            (0.0, GE, CP, 10, "SNR must be positive and finite, got 0.0"),
            (GB, math.nan, CP, 10, "SNR must be positive and finite, got nan"),
            (math.inf, GE, CP, 10, "SNR must be positive and finite, got inf"),
            (GB, GE, CP, 0, "blocklength must be >= 1, got 0"),
            # Pairs that skip ConstraintPair's own checks.
            (GB, GE, SimpleNamespace(beta_b=1.5, beta_e=0.5), 10,
             "target error probability must lie in (0, 1), got 1.5"),
            (GB, GE, SimpleNamespace(beta_b=1e-3, beta_e=0.0), 10, "beta_e must lie in (0, 1], got 0.0"),
            (GB, GE, SimpleNamespace(beta_b=1e-3, beta_e=1.5), 10, "beta_e must lie in (0, 1], got 1.5"),
        ],
    )
    def test_validation_messages_unchanged(self, gamma_b, gamma_e, constraints, n_max, message):
        args = (gamma_b, gamma_e, constraints, False, n_max)
        assert exact_outcome(min_blocklength, *args) == ("ValueError", message)
        assert exact_outcome(min_blocklength_search, *args) == ("ValueError", message)


class TestRateIntervalBatch:
    """The array kernel against the scalar rate_interval, entry by entry,
    and against the oracles' zero-SNR policy where an SNR is zero."""

    @given(
        n=st.one_of(st.just(1), st.integers(1, 10**6)),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 200),
        beta_b=st.floats(1e-12, 0.6),
        beta_e=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(1e-3, 1.0)),
        log_term=st.booleans(),
        zero_share=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
    )
    @example(n=1, seed=0, size=50, beta_b=1e-6, beta_e=1.0, log_term=True, zero_share=0.0)
    @example(n=3, seed=1, size=50, beta_b=1e-9, beta_e=0.7, log_term=False, zero_share=0.0)
    @example(n=100, seed=2, size=50, beta_b=1e-6, beta_e=0.2, log_term=True, zero_share=0.3)
    @example(n=100, seed=3, size=50, beta_b=1e-6, beta_e=0.5, log_term=False, zero_share=0.3)
    @example(n=100, seed=4, size=50, beta_b=1e-6, beta_e=0.7, log_term=True, zero_share=0.3)
    @example(n=100, seed=5, size=50, beta_b=1e-6, beta_e=1.0, log_term=False, zero_share=0.3)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rate_interval(self, n, seed, size, beta_b, beta_e, log_term, zero_share):
        # SNRs log-uniform over -60..60 dB: arbitrary doubles, many of them
        # low enough at small n for a clamped ceiling; each side's entries
        # are set to exactly zero with probability zero_share.
        rng = np.random.default_rng(seed)
        gb, ge = 10.0 ** rng.uniform(-6.0, 6.0, size=(2, size))
        gb[rng.random(size) < zero_share] = 0.0
        ge[rng.random(size) < zero_share] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cp = ConstraintPair(beta_b, beta_e)
            batch = rate_interval_batch(n, gb, ge, cp, log_term)
            # assess_sinr_pair is the scalar rate_interval when both SNRs are positive.
            scalar = [assess_sinr_pair(n, b, e, cp, log_term) for b, e in zip(gb.tolist(), ge.tolist())]
        for name in ("r_sup", "r_inf", "delta_r"):
            got = getattr(batch, name)
            want = np.array([getattr(a, name) for a in scalar])
            finite = np.isfinite(want)
            assert np.array_equal(got[~finite], want[~finite])
            np.testing.assert_array_max_ulp(got[finite], want[finite], maxulp=2)
        assert (batch.r_sup == 0.0).tolist() == [a.r_sup == 0.0 for a in scalar]
        decided = np.abs(batch.delta_r) > 1e-12
        assert batch.feasible[decided].tolist() == [
            a.feasible for a, d in zip(scalar, decided.tolist()) if d
        ]
        # The kernel takes the scalar path's float operations in the same
        # order, so it is in fact bit-identical; the CLI's CSVs rely on that.
        for name in RateIntervals._fields:
            assert getattr(batch, name).tolist() == [getattr(a, name) for a in scalar], name
        assert np.signbit(batch.delta_r).tolist() == [math.copysign(1.0, a.delta_r) < 0 for a in scalar]

    def test_clamped_ceiling_and_infinite_floor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cp = ConstraintPair(1e-6, 1.0)
            a = rate_interval_batch(5, [db_to_linear(-25.0), GB], [GE, GE], cp)
        assert (a.r_sup == 0.0).tolist() == [True, False]
        assert a.r_inf.tolist() == [math.inf, math.inf]
        assert a.delta_r.tolist() == [-math.inf, -math.inf] and not a.feasible.any()

    def test_warns_once_per_call(self):
        cp = ConstraintPair(1e-6, 0.7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rate_interval_batch(500, np.full(50, GB), np.full(50, GE), cp)
            rate_interval_batch(500, [], [], cp)
        assert [str(w.message).split(" ")[0] for w in caught] == ["beta_e=0.7"]
        assert caught[0].category is RuntimeWarning

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    @pytest.mark.parametrize("side", ["bob", "eve"])
    def test_rejects_snr_with_scalar_message(self, bad, side):
        gamma = [GB, GB, bad, -2.0]
        other = [GE] * 4
        args = (gamma, other) if side == "bob" else (other, gamma)
        with pytest.raises(ValueError) as batch_error:
            rate_interval_batch(500, *args, CP)
        with pytest.raises(ValueError) as scalar_error:
            rate_interval(500, *(x[2] for x in args), CP)
        assert str(batch_error.value) == str(scalar_error.value)

    def test_accepts_zeros_that_the_scalar_rejects(self):
        cp = ConstraintPair(1e-6, 0.7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            a = rate_interval_batch(500, [0.0, GB, 0.0], [0.0, 0.0, 0.0], cp)
        assert caught == []  # no Eve SNR is nonzero, so no beta_e warning
        assert a.r_sup.tolist() == [0.0, rate_interval(500, GB, GE, CP).r_sup, 0.0]
        assert a.r_inf.tolist() == [0.0] * 3 and (a.r_sup == 0.0).tolist() == [True, False, True]
        assert a.feasible.tolist() == [False, True, False]
        assert np.signbit(a.delta_r).tolist() == [True, False, True]
        for args in ((0.0, GE), (GB, 0.0)):
            with pytest.raises(ValueError, match="SNR must be positive and finite, got 0.0"):
                rate_interval(500, *args, CP)

    def test_rejects_bad_blocklength_and_shape_mismatch(self):
        with pytest.raises(ValueError, match="blocklength"):
            rate_interval_batch(0, [GB], [GE], CP)
        with pytest.raises(ValueError, match="shape"):
            rate_interval_batch(500, [GB, GB], [GE], CP)

    def test_any_equal_shape(self):
        gb = np.array([[GB, 2.0 * GB, 0.5], [3.0, GB, 7.0]])
        ge = np.array([[GE, 0.1, GE], [2.0, 0.3, GE]])
        a = rate_interval_batch(500, gb, ge, CP)
        assert a.delta_r.shape == (2, 3)
        flat = rate_interval_batch(500, gb.ravel(), ge.ravel(), CP)
        assert all(np.array_equal(x.ravel(), y) for x, y in zip(a, flat))
        single = rate_interval_batch(500, GB, GE, CP)
        assert single.delta_r.shape == () and single.delta_r == rate_interval(500, GB, GE, CP).delta_r

    def test_simulated_intervals_names_only_an_overflow(self):
        cfg = SimpleNamespace(blocklength=500, constraints=CP, log_term=False,
                              noise_power_bob=1e-320, noise_power_eve=0.5)
        with pytest.raises(ValueError, match="Bob's SNR overflows to inf: .* noise_power_bob=1e-320"):
            _simulated_intervals(cfg, np.array([GB, math.inf]), np.array([GE, GE]), {}, "")
        # Any other refusal keeps rate_interval_batch's own message.
        with pytest.raises(ValueError, match="SNR must be positive and finite, got nan"):
            _simulated_intervals(cfg, np.array([GB, GB]), np.array([GE, math.nan]), {}, "")
