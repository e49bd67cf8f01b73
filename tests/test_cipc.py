import math

import numpy as np
import pytest

from fblsec.channels import ReciprocityError, apply_reciprocity_error, sample_rayleigh
from fblsec.cipc import (
    CipcConfig,
    cipc_beamformer,
    cipc_power,
    default_q_objective,
    optimize_q,
    run_cipc,
)
from fblsec.numerics import RngSeed
from fblsec.secrecy import ConstraintPair, rate_interval

CP = ConstraintPair(1e-6, 0.5)


def make_config(**overrides) -> CipcConfig:
    base = dict(
        q_target=1.0,
        p_max=10.0,
        n_antennas_tx=2,
        noise_power_bob=0.01,
        noise_power_eve=0.1,
        blocklength=500,
        constraints=CP,
        reciprocity=ReciprocityError(0.0),
        trials=400,
        seed=RngSeed(90210, 0),
    )
    base.update(overrides)
    return CipcConfig(**base)


class TestBeamformer:
    def test_basis_vector(self):
        h = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert np.array_equal(cipc_beamformer(h), h)

    def test_unit_norm(self):
        h = sample_rayleigh(6, RngSeed(3, 1))
        assert np.linalg.norm(cipc_beamformer(h)) == pytest.approx(1.0, abs=1e-12)

    def test_matched_channel_gain(self):
        h = sample_rayleigh(5, RngSeed(3, 2))
        received = np.dot(h, cipc_beamformer(h))
        assert received == pytest.approx(np.linalg.norm(h), abs=1e-12)

    def test_zero_channel(self):
        with pytest.raises(ValueError, match="degenerate"):
            cipc_beamformer(np.zeros(3, dtype=complex))


class TestPower:
    def test_unit_gain(self):
        cfg = make_config(q_target=1.0)
        h = np.array([1.0], dtype=complex)
        assert cipc_power(h, cfg) == 1.0

    def test_suspension(self):
        cfg = make_config(q_target=1.0, p_max=2.0)
        h = np.array([math.sqrt(1.0 / (2 * 2.0))], dtype=complex)
        assert cipc_power(h, cfg) is None

    def test_zero_channel(self):
        with pytest.raises(ValueError, match="degenerate"):
            cipc_power(np.zeros(2, dtype=complex), make_config())


class TestRunCipc:
    def test_constant_received_power(self):
        cfg = make_config(p_max=math.inf, trials=2000)
        result = run_cipc(cfg)
        assert len(result.records) == 2000
        for rec in result.records:
            assert not rec.suspended
            assert abs(rec.rx_power_bob - cfg.q_target) <= 1e-12 * cfg.q_target
        gammas = [rec.gamma_b for rec in result.records]
        spread = (max(gammas) - min(gammas)) / min(gammas)
        assert spread < 1e-12  # constant Bob SNR up to fp rounding

    def test_received_power_identity_algebra(self):
        # P_t * |h_u^T w|^2 == Q whenever h_u == h_d, for any realization.
        cfg = make_config(p_max=math.inf)
        h = sample_rayleigh(4, RngSeed(5, 9))
        p_t = cipc_power(h, cfg)
        rx = p_t * abs(np.dot(h, cipc_beamformer(h))) ** 2
        assert rx == pytest.approx(cfg.q_target, rel=1e-12)

    def test_suspension_probability_matches_exponential_cdf(self):
        # N=1 Rayleigh gain is Exp(1): P(suspend) = 1 - exp(-Q/p_max).
        cfg = make_config(n_antennas_tx=1, q_target=1.0, p_max=1.0, trials=20000)
        result = run_cipc(cfg)
        assert result.summary.suspension_prob == pytest.approx(
            1.0 - math.exp(-1.0), abs=0.02
        )
        suspended = [r for r in result.records if r.suspended]
        assert len(suspended) == round(result.summary.suspension_prob * cfg.trials)
        assert all(r.p_t is None and r.assessment is None for r in suspended)

    def test_deterministic(self):
        cfg = make_config(reciprocity=ReciprocityError(0.1), trials=50)
        a = run_cipc(cfg)
        b = run_cipc(cfg)
        assert a.records == b.records
        assert a.summary == b.summary

    def test_trial_records_stable_under_extension(self):
        short = run_cipc(make_config(trials=20)).records
        long = run_cipc(make_config(trials=60)).records
        assert long[:20] == short

    def test_single_trial_reproducible_from_raw_streams(self):
        # Rebuild trial 0 by hand from row 0 of each role's keyed stream.
        cfg = make_config(trials=1, reciprocity=ReciprocityError(0.2))
        rec = run_cipc(cfg).records[0]
        base = cfg.seed.stream_id
        h_d = sample_rayleigh(cfg.n_antennas_tx, RngSeed(cfg.seed.master_seed, base))
        h_u = apply_reciprocity_error(
            h_d, cfg.reciprocity, RngSeed(cfg.seed.master_seed, base + 1)
        )
        g = sample_rayleigh(cfg.n_antennas_tx, RngSeed(cfg.seed.master_seed, base + 2))
        w = cipc_beamformer(h_d)
        p_t = cipc_power(h_d, cfg)
        assert rec.p_t == p_t
        # The run takes |.| over a whole column, which may differ from the
        # scalar abs in the last bit.
        np.testing.assert_array_max_ulp(rec.rx_power_bob, p_t * abs(np.dot(h_u, w)) ** 2, 4)
        np.testing.assert_array_max_ulp(
            rec.gamma_e, p_t * abs(np.vdot(g, w)) ** 2 / cfg.noise_power_eve, 4
        )
        assert rec.assessment == rate_interval(
            cfg.blocklength, rec.gamma_b, rec.gamma_e, cfg.constraints
        )

    def test_rx_power_varies_with_reciprocity_error(self):
        quiet = run_cipc(make_config(p_max=math.inf, trials=500))
        noisy = run_cipc(
            make_config(p_max=math.inf, trials=500, reciprocity=ReciprocityError(0.2))
        )
        var_quiet = np.var([r.rx_power_bob for r in quiet.records])
        var_noisy = np.var([r.rx_power_bob for r in noisy.records])
        assert var_quiet <= 1e-24
        assert var_noisy > 1e-4

    def test_eve_snr_invariant_to_bob_noise(self):
        a = run_cipc(make_config(noise_power_bob=0.01, trials=100))
        b = run_cipc(make_config(noise_power_bob=5.0, trials=100))
        assert [r.gamma_e for r in a.records] == [r.gamma_e for r in b.records]

    def test_feasibility_conditional_on_transmission(self):
        cfg = make_config(n_antennas_tx=1, q_target=1.0, p_max=1.0, trials=3000)
        result = run_cipc(cfg)
        active = [r for r in result.records if not r.suspended]
        feasible = sum(r.assessment.feasible for r in active)
        assert result.summary.feasibility_prob == pytest.approx(feasible / len(active))

    def test_all_suspended_summary_is_nan_over_transmitted_trials(self):
        cfg = make_config(p_max=1e-9, trials=30)
        result = run_cipc(cfg)
        assert all(rec.suspended for rec in result.records)
        s = result.summary
        assert s.suspension_prob == 1.0
        assert math.isnan(s.feasibility_prob)
        assert math.isnan(s.mean_delta_r) and math.isnan(s.mean_gamma_e)
        assert default_q_objective(s) == 0.0
        assert optimize_q(cfg, [1.0, 1e-12]).objective_curve[0] == (1.0, 0.0)

    def test_suspended_trials_draw_nothing_beyond_the_channel(self):
        # The k-th transmitted trial takes row k of the reciprocity and Eve
        # streams, whatever the suspended trials around it.
        cfg = make_config(
            n_antennas_tx=1, p_max=1.0, trials=40, reciprocity=ReciprocityError(0.2)
        )
        records = run_cipc(cfg).records
        sent = [r for r in records if not r.suspended]
        assert 0 < len(sent) < len(records)
        h_d = sample_rayleigh(1, RngSeed(cfg.seed.master_seed, 0), size=cfg.trials)
        g = sample_rayleigh(1, RngSeed(cfg.seed.master_seed, 2), size=len(sent))
        for rec, g_k in zip(sent, g):
            w = cipc_beamformer(h_d[rec.trial_id])
            expected = rec.p_t * abs(np.vdot(g_k, w)) ** 2 / cfg.noise_power_eve
            np.testing.assert_array_max_ulp(rec.gamma_e, expected, 4)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            make_config(trials=0)

    @pytest.mark.parametrize("name", ["q_target", "noise_power_bob", "noise_power_eve"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_power_and_noise_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            make_config(**{name: value})


class TestOptimizeQ:
    def test_single_point_grid(self):
        cfg = make_config(trials=50)
        opt = optimize_q(cfg, [0.7])
        assert opt.q_star == 0.7
        assert len(opt.objective_curve) == 1

    def test_common_random_numbers(self):
        cfg = make_config(trials=200)
        grid = [0.5, 1.0, 2.0]
        assert optimize_q(cfg, grid).objective_curve == optimize_q(cfg, grid).objective_curve

    def test_interior_maximum(self):
        # Tiny Q collapses the rate margin (the sqrt(V/n) penalty dominates
        # both capacities), huge Q suspends almost every trial: the
        # objective vanishes at both grid ends.
        cfg = make_config(
            n_antennas_tx=1,
            noise_power_bob=1.0,
            noise_power_eve=1.0,
            p_max=4.0,
            trials=4000,
            seed=RngSeed(7, 0),
        )
        grid = [0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0]
        opt = optimize_q(cfg, grid)
        values = dict(opt.objective_curve)
        best = max(values.values())
        assert values[0.001] < best and values[60.0] < best
        assert values[0.001] < 0.01 and values[60.0] < 0.01
        assert 0.1 < opt.q_star < 15.0

    def test_ties_prefer_smaller_q(self):
        cfg = make_config(trials=20)
        # Degenerate objective makes every grid point tie.
        opt = optimize_q(cfg, [3.0, 1.0, 2.0], objective=lambda s: 1.0)
        assert opt.q_star == 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimize_q(make_config(trials=10), [])
