import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fblsec.channels import apply_reciprocity_error, sample_rayleigh
from fblsec.cipc import CipcConfig, _q_objective, optimize_q, run_cipc
from fblsec.numerics import RngSeed
from fblsec.secrecy import ConstraintPair, RateIntervals, rate_interval

from oracles import cipc_beamformer, cipc_closed_form, cipc_power

CP = ConstraintPair(1e-6, 0.5)
# Per-trial columns of a CipcResult besides its five assessment columns.
COLUMNS = ("sent", "p_t", "rx_power_bob", "gamma_b", "gamma_e")


def make_config(**overrides) -> CipcConfig:
    base = dict(
        q_target=1.0,
        p_max=10.0,
        n_antennas_tx=2,
        noise_power_bob=0.01,
        noise_power_eve=0.1,
        blocklength=500,
        constraints=CP,
        sigma_delta=0.0,
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
        assert math.isnan(cipc_power(h, cfg))

    def test_zero_channel(self):
        with pytest.raises(ValueError, match="degenerate"):
            cipc_power(np.zeros(2, dtype=complex), make_config())


class TestRunCipc:
    def test_constant_received_power(self):
        cfg = make_config(p_max=math.inf, trials=2000)
        result = run_cipc(cfg)
        assert len(result.sent) == 2000 and result.sent.all()
        assert len(result.rx_power_bob) == 2000
        assert np.all(np.abs(result.rx_power_bob - cfg.q_target) <= 1e-12 * cfg.q_target)
        gammas = result.gamma_b
        spread = (gammas.max() - gammas.min()) / gammas.min()
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
        suspended = ~result.sent
        assert suspended.sum() == round(result.summary.suspension_prob * cfg.trials)
        # Suspended trials have no entry in any other column.
        sent_count = cfg.trials - suspended.sum()
        for column in (*(getattr(result, name) for name in COLUMNS[1:]), *result.assessment):
            assert len(column) == sent_count

    def test_deterministic(self):
        cfg = make_config(sigma_delta=0.1, trials=50)
        a = run_cipc(cfg)
        b = run_cipc(cfg)
        for name in COLUMNS:
            assert getattr(a, name).tolist() == getattr(b, name).tolist(), name
        for name in RateIntervals._fields:
            assert getattr(a.assessment, name).tolist() == getattr(b.assessment, name).tolist(), name
        assert a.summary == b.summary

    def test_trial_records_stable_under_extension(self):
        # Eve and the reciprocity error draw only for transmitted trials, in
        # trial order, so the first k transmitted trials of both runs agree.
        short = run_cipc(make_config(trials=20))
        long = run_cipc(make_config(trials=60))
        assert long.sent[:20].tolist() == short.sent.tolist()
        k = int(short.sent.sum())
        for name in COLUMNS[1:]:
            assert getattr(long, name)[:k].tolist() == getattr(short, name).tolist(), name
        for name in RateIntervals._fields:
            got = getattr(long.assessment, name)[:k].tolist()
            assert got == getattr(short.assessment, name).tolist(), name

    def test_single_trial_reproducible_from_raw_streams(self):
        # Rebuild trial 0 by hand from row 0 of each role's keyed stream.
        cfg = make_config(trials=1, sigma_delta=0.2)
        result = run_cipc(cfg)
        assert result.sent.tolist() == [True]
        base = cfg.seed.stream_id
        h_d = sample_rayleigh(cfg.n_antennas_tx, RngSeed(cfg.seed.master_seed, base))
        h_u = apply_reciprocity_error(
            h_d, cfg.sigma_delta, RngSeed(cfg.seed.master_seed, base + 1)
        )
        g = sample_rayleigh(cfg.n_antennas_tx, RngSeed(cfg.seed.master_seed, base + 2))
        w = cipc_beamformer(h_d)
        p_t = cipc_power(h_d, cfg)
        assert result.p_t.tolist() == [p_t]
        # The run takes |.| over a whole column, which may differ from the
        # scalar abs in the last bit.
        np.testing.assert_array_max_ulp(result.rx_power_bob[0], p_t * abs(np.dot(h_u, w)) ** 2, 4)
        np.testing.assert_array_max_ulp(
            result.gamma_e[0], p_t * abs(np.vdot(g, w)) ** 2 / cfg.noise_power_eve, 4
        )
        want = rate_interval(
            cfg.blocklength, result.gamma_b.item(), result.gamma_e.item(), cfg.constraints
        )
        for name in RateIntervals._fields:
            assert getattr(result.assessment, name).tolist() == [getattr(want, name)], name

    def test_rx_power_varies_with_reciprocity_error(self):
        quiet = run_cipc(make_config(p_max=math.inf, trials=500))
        noisy = run_cipc(
            make_config(p_max=math.inf, trials=500, sigma_delta=0.2)
        )
        assert quiet.sent.all() and noisy.sent.all()
        var_quiet = np.var(quiet.rx_power_bob)
        var_noisy = np.var(noisy.rx_power_bob)
        assert var_quiet <= 1e-24
        assert var_noisy > 1e-4

    def test_eve_snr_invariant_to_bob_noise(self):
        a = run_cipc(make_config(noise_power_bob=0.01, trials=100))
        b = run_cipc(make_config(noise_power_bob=5.0, trials=100))
        assert a.sent.tolist() == b.sent.tolist()
        assert a.gamma_e.tolist() == b.gamma_e.tolist()

    def test_feasibility_conditional_on_transmission(self):
        cfg = make_config(n_antennas_tx=1, q_target=1.0, p_max=1.0, trials=3000)
        result = run_cipc(cfg)
        active = int(result.sent.sum())
        feasible = result.assessment.feasible
        assert len(feasible) == active
        assert result.summary.feasibility_prob == pytest.approx(feasible.sum() / active)

    def test_all_suspended_summary_is_nan_over_transmitted_trials(self):
        cfg = make_config(p_max=1e-9, trials=30)
        result = run_cipc(cfg)
        assert not result.sent.any() and len(result.p_t) == 0
        s = result.summary
        assert s.suspension_prob == 1.0
        assert math.isnan(s.feasibility_prob)
        assert math.isnan(s.mean_delta_r) and math.isnan(s.mean_gamma_e)
        assert _q_objective(s) == 0.0
        assert optimize_q(cfg, [1.0, 1e-12]).objective_curve[0] == (1.0, 0.0)

    def test_suspended_trials_draw_nothing_beyond_the_channel(self):
        # The k-th transmitted trial takes row k of the reciprocity and Eve
        # streams, whatever the suspended trials around it.
        cfg = make_config(
            n_antennas_tx=1, p_max=1.0, trials=40, sigma_delta=0.2
        )
        result = run_cipc(cfg)
        sent = np.flatnonzero(result.sent)
        assert 0 < len(sent) < cfg.trials
        h_d = sample_rayleigh(1, RngSeed(cfg.seed.master_seed, 0), size=cfg.trials)
        g = sample_rayleigh(1, RngSeed(cfg.seed.master_seed, 2), size=len(sent))
        for k, (t, g_k) in enumerate(zip(sent, g)):
            w = cipc_beamformer(h_d[t])
            expected = result.p_t[k] * abs(np.vdot(g_k, w)) ** 2 / cfg.noise_power_eve
            np.testing.assert_array_max_ulp(result.gamma_e[k], expected, 4)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            make_config(trials=0)

    @pytest.mark.parametrize("name", ["q_target", "noise_power_bob", "noise_power_eve"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_power_and_noise_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            make_config(**{name: value})


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["noise_power_bob", "noise_power_eve"])
    def test_snr_overflow_names_the_noise_power(self, name):
        # Both noise powers are valid; only the SNR over them passes the largest double.
        with pytest.raises(ValueError, match=f"{name}=5e-324 exceeds the largest double"):
            run_cipc(make_config(trials=50, **{name: 5e-324}))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # p_max = inf suspends nothing, so Q / ||h_d||^2 itself overflows.
            (dict(trials=200, q_target=1e308, p_max=math.inf),
             r"^the transmit power overflows to inf: at q_target=1e\+308 and p_max=inf "),
            # A finite p_t, but the reciprocity error lifts Bob's gain above ||h_d||^2.
            (dict(trials=20, n_antennas_tx=4, q_target=1e308, p_max=1e308,
                  sigma_delta=0.5, seed=RngSeed(0)),
             r"^Bob's received power overflows to inf: at q_target=1e\+308 it "),
            # Bob receives exactly Q; Eve's gain passes ||h_d||^2 on some trial.
            (dict(trials=200, q_target=1e308, p_max=1e308),
             r"^Eve's received power overflows to inf: at q_target=1e\+308 it "),
        ],
    )
    def test_power_overflow_names_q_target(self, overrides, message):
        # Only the noise division may be blamed on a noise power.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                run_cipc(make_config(**overrides))
            with pytest.raises(ValueError, match=message):
                optimize_q(make_config(**overrides), [1.0, overrides["q_target"]])

    def test_beta_e_warning_once_per_run(self):
        cfg = make_config(trials=2000, constraints=ConstraintPair(1e-6, 0.7))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_cipc(cfg)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "beta_e=0.7" in str(caught[0].message)

    def test_traced_peak_stays_below_five_channel_arrays(self):
        # The draw reduces each (trials, N) complex channel to real gains
        # as soon as it can, so they are never all alive at once.
        cfg = make_config(n_antennas_tx=4, sigma_delta=0.05, trials=200_000)
        run_cipc(make_config(trials=10))
        tracemalloc.start()
        try:
            run_cipc(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * cfg.trials * cfg.n_antennas_tx * 16


class TestClosedFormOracle:
    """Monte Carlo statistics against oracles.cipc_closed_form.

    4e5 trials at the fixed seed given with each case; every statistic
    must lie within 4 standard errors of its closed form.
    """

    @pytest.mark.parametrize(
        "overrides",
        [
            # N = 4, Q = 2.5, p_max = 1, sigma_b^2 = 2, sigma_e^2 = 1: about 24% suspended.
            dict(n_antennas_tx=4, q_target=2.5, p_max=1.0, noise_power_bob=2.0,
                 noise_power_eve=1.0, seed=RngSeed(11)),
            # N = 2, beta_e < 0.5 and the log term on.
            dict(n_antennas_tx=2, q_target=0.5, p_max=2.0, noise_power_bob=0.1,
                 noise_power_eve=0.5, constraints=ConstraintPair(1e-5, 0.1),
                 log_term=True, seed=RngSeed(12)),
        ],
    )
    def test_matches_closed_form(self, overrides):
        cfg = make_config(blocklength=500, trials=400_000, **overrides)
        result = run_cipc(cfg)
        p_suspend, p_feasible, mean_gamma_e = cipc_closed_form(cfg)
        sent = int(result.sent.sum())
        s = result.summary
        se_suspend = math.sqrt(p_suspend * (1.0 - p_suspend) / cfg.trials)
        se_feasible = math.sqrt(p_feasible * (1.0 - p_feasible) / sent)
        se_gamma_e = result.gamma_e.std() / math.sqrt(sent)
        assert abs(s.suspension_prob - p_suspend) <= 4.0 * se_suspend
        assert abs(s.feasibility_prob - p_feasible) <= 4.0 * se_feasible
        assert abs(s.mean_gamma_e - mean_gamma_e) <= 4.0 * se_gamma_e


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
        # Every trial is suspended at every grid point, so all objectives are 0.
        cfg = make_config(p_max=1e-9, trials=20)
        opt = optimize_q(cfg, [3.0, 1.0, 2.0])
        assert opt.objective_curve == [(3.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        assert opt.q_star == 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimize_q(make_config(trials=10), [])
