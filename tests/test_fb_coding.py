import math

import numpy as np
import pytest

from fblsec import fb_coding
from fblsec.fb_coding import (
    DISPERSION_LIMIT,
    LOG2_E,
    capacity,
    db_to_linear,
    dispersion,
    error_probability,
    linear_to_db,
    max_rate,
)

from oracles import q_oracle

class TestDbConversion:
    @pytest.mark.parametrize("linear", [1e-6, 0.37, 1.0, 10.0, 12345.678])
    def test_round_trip(self, linear):
        assert db_to_linear(linear_to_db(linear)) == pytest.approx(linear, rel=1e-12)

    def test_anchors(self):
        assert linear_to_db(1.0) == 0.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-2.0)

    def test_overflow_names_the_db_value(self):
        assert db_to_linear(3000.0) == pytest.approx(1e300, rel=1e-12)
        with pytest.raises(ValueError, match=r"^3090\.0 dB overflows a linear power ratio$"):
            db_to_linear(3090.0)


class TestCapacity:
    def test_anchors(self):
        assert capacity(1.0) == 1.0
        assert capacity(3.0) == 2.0

    def test_vanishes_at_low_snr(self):
        assert 0.0 < capacity(1e-12) < 1e-11

    def test_increasing(self):
        grid = [0.01, 0.1, 1.0, 3.0, 10.0, 100.0]
        caps = [capacity(g) for g in grid]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_invalid_snr(self, bad):
        with pytest.raises(ValueError):
            capacity(bad)


class TestDispersion:
    def test_unit_snr_anchor(self):
        # 0.75 * (log2 e)^2, cross-checked with a 50-digit arbitrary
        # precision evaluation: 1.5610267357542058.
        assert dispersion(1.0) == pytest.approx(1.5610267357542058, rel=1e-15)
        assert dispersion(1.0) == pytest.approx(0.75 * DISPERSION_LIMIT, rel=1e-15)

    def test_limits(self):
        assert 0.0 < dispersion(1e-9) < 1e-8
        assert dispersion(1e7) < DISPERSION_LIMIT
        assert dispersion(1e7) == pytest.approx(DISPERSION_LIMIT, rel=1e-8)
        assert DISPERSION_LIMIT == pytest.approx(2.0813689810056078, rel=1e-15)

    def test_increasing_and_bounded(self):
        grid = np.geomspace(1e-3, 1e4, 40)
        values = [dispersion(float(g)) for g in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < DISPERSION_LIMIT for v in values)


class TestCapacityAndDispersionRange:
    """C and V where 1 + gamma rounds to 1, and across the whole double range."""

    def test_tiny_snr_limits(self):
        # C ~ gamma log2 e and V ~ 2 gamma (log2 e)^2 below 2^-60, where
        # log1p(gamma) and expm1(-2 log1p(gamma)) are exact to the last bit.
        gamma = np.geomspace(1e-300, 2.0**-60, 2000)
        cv = np.array([fb_coding._cv(g) for g in gamma.tolist()])
        np.testing.assert_allclose(cv[:, 0] / gamma, LOG2_E, rtol=4e-16, atol=0.0)
        np.testing.assert_allclose(cv[:, 1] / gamma, 2.0 * DISPERSION_LIMIT, rtol=4e-16, atol=0.0)

    def test_monotone_bounded_and_batch_equals_scalar(self):
        gamma = np.geomspace(1e-300, 1e300, 200001)
        cv = np.array([fb_coding._cv(g) for g in gamma.tolist()])
        cap, disp = cv[:, 0], cv[:, 1]
        assert (np.diff(cap) > 0.0).all()
        assert (np.diff(disp) >= 0.0).all()
        assert (disp > 0.0).all() and (disp <= DISPERSION_LIMIT).all()
        for n, eps, log_term in [(500, 1e-6, False), (7, 0.3, True)]:
            batch = fb_coding._rate_bound_batch(n, eps, gamma, log_term)
            scalar = np.array([fb_coding._rate_bound(n, eps, g, log_term) for g in gamma.tolist()])
            assert np.flatnonzero(batch.view(np.uint64) != scalar.view(np.uint64)).tolist() == []


class TestErrorProbability:
    @pytest.mark.parametrize("n", [10, 200, 5000])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 10.0])
    def test_half_at_capacity(self, n, gamma):
        assert error_probability(n, capacity(gamma), gamma) == 0.5

    def test_reference_point(self):
        # Q(sqrt(200 / 1.5610267) * 0.5): integration oracle gives
        # 7.58971396568e-9 (argument 5.65952303007).
        eps = error_probability(200, 0.5, 1.0)
        assert eps == pytest.approx(7.58971396568e-9, rel=1e-9)
        arg = math.sqrt(200 / dispersion(1.0)) * (capacity(1.0) - 0.5)
        assert eps == pytest.approx(q_oracle(arg), rel=1e-9)

    def test_vanishes_for_large_n_below_capacity(self):
        assert error_probability(10**6, 0.5, 1.0) < 1e-20

    def test_monotone_grid(self):
        # nondecreasing in rate; nonincreasing in n below capacity (log term
        # off); nonincreasing in SNR.
        n_grid = [50, 100, 200, 500, 1000, 2000]
        gamma_grid = [db_to_linear(0.0), db_to_linear(5.0), db_to_linear(10.0)]
        for gamma in gamma_grid:
            cap = capacity(gamma)
            rates = np.linspace(0.05 * cap, 1.5 * cap, 25)
            for n in n_grid:
                eps = [error_probability(n, float(r), gamma) for r in rates]
                assert all(b >= a for a, b in zip(eps, eps[1:]))
            for rate in rates[rates < cap]:
                eps = [error_probability(n, float(rate), gamma) for n in n_grid]
                assert all(b <= a for a, b in zip(eps, eps[1:]))
        for n in n_grid:
            eps = [error_probability(n, 0.9, g) for g in gamma_grid]
            assert all(b <= a for a, b in zip(eps, eps[1:]))

    def test_log_term_shifts_curve(self):
        base = error_probability(200, 1.0, 1.0)
        shifted = error_probability(200, 1.0, 1.0, True)
        # The correction adds (log2 n)/(2n) to the rate margin, lowering eps.
        assert shifted < base

    def test_validation(self):
        with pytest.raises(ValueError):
            error_probability(0, 0.5, 1.0)
        with pytest.raises(ValueError):
            error_probability(100, -0.1, 1.0)
        with pytest.raises(ValueError):
            error_probability(100, 0.5, 0.0)
        with pytest.raises(ValueError):
            error_probability(100.5, 0.5, 1.0)

    def test_rate_far_above_capacity_has_error_probability_one(self):
        # Q's argument overflows to -inf.
        assert error_probability(10, 1e307, 10.0) == 1.0
        # inf * 0, at the capacity of a subnormal SNR, is still refused.
        with pytest.raises(ValueError, match="finite argument, got nan"):
            error_probability(10, capacity(5e-324), 5e-324)

    def test_rate_below_capacity_of_subnormal_snr_has_error_probability_zero(self):
        # V underflows towards 0, so Q's argument overflows to +inf.
        assert error_probability(10, 0.0, 5e-324) == 0.0
        assert error_probability(10, capacity(5e-324) / 2, 5e-324, True) == 0.0


class TestMaxRate:
    @pytest.mark.parametrize("n", [1, 7, 100, 4096])
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 10.0])
    def test_capacity_at_half_target(self, n, gamma):
        assert max_rate(n, 0.5, gamma) == capacity(gamma)

    def test_reference_point(self):
        # C(10) - sqrt(V(10)/100) * Qinv(1e-6), evaluated independently at
        # 50 digits before the build: 2.7764971076638789.
        rate = max_rate(100, 1e-6, db_to_linear(10.0))
        assert rate == pytest.approx(2.7764971076638789, rel=1e-12)

    def test_approaches_capacity(self):
        assert max_rate(10**9, 1e-6, 2.0) == pytest.approx(capacity(2.0), abs=1e-3)

    @pytest.mark.parametrize("log_term", [False, True], ids=["cfg0", "cfg1"])
    @pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9])
    def test_round_trip(self, log_term, eps):
        for n, gamma in [(100, 1.0), (500, 10.0), (2000, 0.2)]:
            rate = max_rate(n, eps, gamma, log_term)
            if rate > 0.0:
                assert error_probability(n, rate, gamma, log_term) == pytest.approx(
                    eps, abs=1e-9
                )

    def test_increasing_in_n_below_half(self):
        rates = [max_rate(n, 1e-6, 5.0) for n in [50, 100, 400, 1600, 6400]]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_clamps_to_zero(self):
        rate = max_rate(10, 1e-9, 0.01)
        assert rate == 0.0 and type(rate) is float

    def test_validation(self):
        with pytest.raises(ValueError):
            max_rate(100, 0.0, 1.0)
        with pytest.raises(ValueError):
            max_rate(100, 1.0, 1.0)
