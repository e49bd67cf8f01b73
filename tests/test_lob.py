import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fblsec.channels import sample_rician, steering_vector, RicianSpec
from fblsec.lob import LobConfig, _gains, _sinr, optimize_an_fraction, run_lob
from fblsec.numerics import RngSeed
from fblsec.fb_coding import ApproximationConfig
from fblsec.secrecy import ConstraintPair, RateIntervals, rate_interval_batch

from oracles import an_basis, assess_sinr_pair, lob_beamformer

CP = ConstraintPair(1e-6, 0.5)
# Per-trial columns of a LobResult besides its five assessment columns.
COLUMNS = ("theta_hat", "sinr_bob", "sinr_eve")


def _sinr_pair(
    h_bob: np.ndarray,
    h_eve: np.ndarray,
    cfg: LobConfig,
    theta_hat: float | None = None,
) -> tuple[float, float]:
    """SINRs seen by Bob and Eve for given channel realizations.

    theta_hat defaults to Bob's true bearing (perfect location knowledge).
    """
    theta = cfg.theta_bob if theta_hat is None else float(theta_hat)
    w = lob_beamformer(theta, cfg.n_antennas)
    return (
        float(_sinr(*_gains(np.asarray(h_bob), w), cfg, cfg.noise_power_bob)[0]),
        float(_sinr(*_gains(np.asarray(h_eve), w), cfg, cfg.noise_power_eve)[0]),
    )


def make_config(**overrides) -> LobConfig:
    base = dict(
        n_antennas=4,
        theta_bob=0.0,
        theta_eve=math.radians(20.0),
        location_error_std=0.0,
        k_factor_bob=10.0,
        k_factor_eve=1.0,
        total_power=1.0,
        an_fraction=0.3,
        noise_power_bob=0.05,
        noise_power_eve=0.05,
        blocklength=500,
        constraints=CP,
        trials=400,
        seed=RngSeed(515, 0),
    )
    base.update(overrides)
    return LobConfig(**base)


class TestBeamformer:
    @pytest.mark.parametrize("theta", [-0.9, 0.0, 0.3, 1.1])
    def test_unit_norm(self, theta):
        assert np.linalg.norm(lob_beamformer(theta, 6)) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_full_gain_on_matched_los(self, n):
        theta = 0.37
        a = steering_vector(theta, n)
        w = lob_beamformer(theta, n)
        assert abs(np.vdot(a, w)) ** 2 == pytest.approx(n, rel=1e-12)

    def test_single_antenna(self):
        w = lob_beamformer(0.5, 1)
        assert np.array_equal(w, np.ones(1, dtype=complex))


class TestAnBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("theta", [-0.7, 0.0, 0.45])
    def test_orthonormal_null_space(self, n, theta):
        basis = an_basis(theta, n)
        assert basis.shape == (n, n - 1)
        a = steering_vector(theta, n)
        assert np.linalg.norm(a.conj() @ basis) < 1e-10
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(n - 1)) < 1e-10


class TestAnLeakage:
    def test_closed_form_matches_null_space_basis(self):
        rng = np.random.default_rng(20190620)
        for n in range(2, 17):
            for k in range(25):
                theta = rng.uniform(-1.5, 1.5)
                h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                if k % 5 == 0:  # nearly on the beam, where the difference cancels
                    h = steering_vector(theta, n) * (1.0 + 0.5j) + 1e-7 * h
                expected = np.linalg.norm(h.conj() @ an_basis(theta, n)) ** 2
                leakage = _gains(h, lob_beamformer(theta, n))[1]
                assert leakage >= 0.0
                assert abs(leakage - expected) <= 1e-12 * np.vdot(h, h).real


class TestSinrPair:
    def test_pure_los_bob_sees_no_artificial_noise(self):
        cfg = make_config(k_factor_bob=math.inf)
        h_bob = steering_vector(cfg.theta_bob, cfg.n_antennas)
        h_eve = sample_rician(
            RicianSpec(1.0, cfg.theta_eve, cfg.n_antennas), RngSeed(9, 0)
        )
        for phi in (0.0, 0.3, 0.7):
            sinr_bob, _ = _sinr_pair(h_bob, h_eve, replace(cfg, an_fraction=phi))
            expected = (1.0 - phi) * cfg.total_power * cfg.n_antennas / cfg.noise_power_bob
            assert sinr_bob == pytest.approx(expected, rel=1e-12)

    def test_no_an_reduces_to_plain_beamforming(self):
        cfg = make_config(an_fraction=0.0)
        h_bob = sample_rician(RicianSpec(2.0, 0.0, 4), RngSeed(9, 1))
        h_eve = sample_rician(RicianSpec(1.0, cfg.theta_eve, 4), RngSeed(9, 2))
        w = lob_beamformer(cfg.theta_bob, 4)
        sinr_bob, sinr_eve = _sinr_pair(h_bob, h_eve, cfg)
        assert sinr_bob == pytest.approx(
            cfg.total_power * abs(np.vdot(h_bob, w)) ** 2 / cfg.noise_power_bob, rel=1e-12
        )
        assert sinr_eve == pytest.approx(
            cfg.total_power * abs(np.vdot(h_eve, w)) ** 2 / cfg.noise_power_eve, rel=1e-12
        )

    def test_all_power_to_noise_silences_bob(self):
        cfg = make_config(an_fraction=1.0)
        h_bob = steering_vector(0.0, 4)
        h_eve = steering_vector(cfg.theta_eve, 4)
        sinr_bob, sinr_eve = _sinr_pair(h_bob, h_eve, cfg)
        assert sinr_bob == 0.0 and sinr_eve == 0.0

    def test_misaligned_beam_leaks_noise_onto_bob(self):
        cfg = make_config(k_factor_bob=math.inf, an_fraction=0.5)
        h_bob = steering_vector(0.0, 4)
        h_eve = steering_vector(cfg.theta_eve, 4)
        aligned, _ = _sinr_pair(h_bob, h_eve, cfg, theta_hat=0.0)
        skewed, _ = _sinr_pair(h_bob, h_eve, cfg, theta_hat=0.1)
        leakage = np.linalg.norm(h_bob.conj() @ an_basis(0.1, 4)) ** 2
        assert leakage > 1e-3
        assert skewed < aligned

    def test_scatter_leaks_noise_onto_bob(self):
        # A finite K channel has a component outside the LOS direction, so
        # some artificial noise reaches Bob in (almost) every realization.
        basis = an_basis(0.0, 4)
        batch = sample_rician(RicianSpec(10.0, 0.0, 4), RngSeed(11, 0), size=200)
        leakages = np.linalg.norm(batch.conj() @ basis, axis=1) ** 2
        assert np.min(leakages) > 1e-12


class TestRunLob:
    def test_pure_los_perfect_location_constant_gain(self):
        cfg = make_config(k_factor_bob=math.inf, an_fraction=0.0, trials=50)
        result = run_lob(cfg)
        expected = cfg.total_power * cfg.n_antennas / cfg.noise_power_bob
        assert len(result.sinr_bob) == cfg.trials
        assert result.sinr_bob == pytest.approx(np.full(cfg.trials, expected), rel=1e-12)

    def test_colocated_pure_los_eve_scales_by_noise(self):
        cfg = make_config(
            theta_eve=0.0,
            k_factor_bob=math.inf,
            k_factor_eve=math.inf,
            noise_power_bob=0.02,
            noise_power_eve=0.08,
            trials=20,
        )
        result = run_lob(cfg)
        assert len(result.sinr_eve) == cfg.trials
        assert result.sinr_eve == pytest.approx(result.sinr_bob * 0.02 / 0.08, rel=1e-12)

    def test_colocated_equal_noise_never_feasible(self):
        cfg = make_config(
            theta_eve=0.0,
            k_factor_bob=math.inf,
            k_factor_eve=math.inf,
            noise_power_eve=0.05,
            noise_power_bob=0.05,
            trials=20,
        )
        result = run_lob(cfg)
        assert result.summary.feasibility_prob == 0.0

    def test_full_an_infeasible_everywhere(self):
        cfg = make_config(an_fraction=1.0, trials=30)
        result = run_lob(cfg)
        assert result.summary.feasibility_prob == 0.0
        a = result.assessment
        assert len(result.sinr_bob) == len(a.r_sup) == cfg.trials
        assert (result.sinr_bob == 0.0).all()
        assert (a.r_sup == 0.0).all() and a.r_sup_clamped.all()
        assert not a.feasible.any()

    def test_mean_eve_sinr_strictly_decreasing_in_phi(self):
        cfg = make_config(trials=1500)
        means = [
            run_lob(replace(cfg, an_fraction=phi)).summary.mean_sinr_eve
            for phi in (0.0, 0.2, 0.4, 0.6, 0.8)
        ]
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_feasibility_nonincreasing_in_location_error(self):
        cfg = make_config(trials=1500)
        feas = [
            run_lob(replace(cfg, location_error_std=math.radians(s))).summary.feasibility_prob
            for s in (0.0, 2.0, 5.0, 12.0)
        ]
        assert all(b <= a for a, b in zip(feas, feas[1:]))
        assert feas[-1] < feas[0]

    def test_deterministic_and_stable_under_extension(self):
        cfg = make_config(trials=30, location_error_std=math.radians(3.0))
        a = run_lob(cfg)
        b = run_lob(cfg)
        longer = run_lob(replace(cfg, trials=60))
        for name in COLUMNS:
            assert getattr(a, name).tolist() == getattr(b, name).tolist(), name
            assert getattr(longer, name)[:30].tolist() == getattr(a, name).tolist(), name
        for name in RateIntervals._fields:
            want = getattr(a.assessment, name).tolist()
            assert getattr(b.assessment, name).tolist() == want, name
            assert getattr(longer.assessment, name)[:30].tolist() == want, name

    def test_power_accounting(self):
        # Info + AN shares sum to the total power exactly for any phi.
        for phi in (0.0, 0.25, 0.5, 1.0):
            cfg = make_config(an_fraction=phi)
            info = (1.0 - cfg.an_fraction) * cfg.total_power
            an = cfg.an_fraction * cfg.total_power
            assert info + an == cfg.total_power

    @pytest.mark.parametrize("t", [0, 3])
    def test_single_trial_reproducible_from_raw_streams(self, t):
        # Rebuild trial t by hand from row t of each role's keyed stream.
        cfg = make_config(trials=5, location_error_std=math.radians(4.0), seed=RngSeed(77, 9))
        result = run_lob(cfg)
        master, base = cfg.seed.master_seed, cfg.seed.stream_id
        err = RngSeed(master, base).generator().standard_normal(t + 1)[t]
        theta_hat = cfg.theta_bob + cfg.location_error_std * err
        spec_bob = RicianSpec(cfg.k_factor_bob, cfg.theta_bob, cfg.n_antennas)
        spec_eve = RicianSpec(cfg.k_factor_eve, cfg.theta_eve, cfg.n_antennas)
        h_bob = sample_rician(spec_bob, RngSeed(master, base + 1), size=t + 1)[t]
        h_eve = sample_rician(spec_eve, RngSeed(master, base + 2), size=t + 1)[t]
        assert result.theta_hat[t] == theta_hat
        sinr_bob, sinr_eve = _sinr_pair(h_bob, h_eve, cfg, theta_hat)
        np.testing.assert_array_max_ulp(result.sinr_bob[t], sinr_bob, 4)
        np.testing.assert_array_max_ulp(result.sinr_eve[t], sinr_eve, 4)

    def test_bearing_clamped_inside_steering_domain(self):
        cfg = make_config(
            theta_bob=1.4, location_error_std=5.0, trials=200, an_fraction=0.2
        )
        result = run_lob(cfg)  # extreme error draws must not blow up
        assert len(result.theta_hat) == cfg.trials
        assert (np.abs(result.theta_hat) < math.pi / 2).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(n_antennas=1)
        with pytest.raises(ValueError):
            make_config(an_fraction=1.5)
        with pytest.raises(ValueError):
            make_config(theta_bob=math.pi)
        with pytest.raises(ValueError):
            make_config(total_power=0.0)

    @pytest.mark.parametrize("name", ["total_power", "noise_power_bob", "noise_power_eve"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_power_and_noise_must_be_positive_and_finite(self, name, value):
        # An infinite total power made the AN power 0 * inf = nan and every
        # SINR nan, which _assess scored as zero SINR.
        with pytest.raises(ValueError, match=name):
            make_config(**{name: value})


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["noise_power_bob", "noise_power_eve"])
    def test_sinr_overflow_names_the_noise_power(self, name):
        cfg = make_config(trials=50, an_fraction=0.0, **{name: 1e-320})
        with pytest.raises(ValueError, match=f"{name}=1e-320 exceeds the largest double"):
            run_lob(cfg)
        with pytest.raises(ValueError, match=f"{name}=1e-320 exceeds the largest double"):
            optimize_an_fraction(cfg, [0.0, 0.5])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "overrides, message",
        [
            # (1 - phi) P |h^H w|^2 passes the largest double before the noise division.
            (dict(trials=50, total_power=1e308, an_fraction=0.5),
             r"^Bob's received power overflows to inf: at total_power=1e\+308 it "),
            # Bob's LOS gain is exactly N; Eve's Rayleigh gain passes it on some trial.
            # Bob's SINR overflows too, but a power is blamed before a noise power.
            (dict(total_power=1.7976931348623157e308, an_fraction=0.8, k_factor_bob=math.inf,
                  k_factor_eve=0.0, theta_eve=0.0),
             r"^Eve's received power overflows to inf: at total_power=1\.7976931348623157e\+308 "),
        ],
    )
    def test_power_overflow_names_total_power(self, overrides, message):
        # Only the noise division may be blamed on a noise power.
        cfg = make_config(**overrides)
        with pytest.raises(ValueError, match=message):
            run_lob(cfg)
        with pytest.raises(ValueError, match=message):
            optimize_an_fraction(cfg, [cfg.an_fraction, 0.9])

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_location_error_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="location_error_std must be finite and >= 0"):
            make_config(location_error_std=value)

    def test_traced_peak_stays_below_five_channel_arrays(self):
        # Bob's (trials, N) channel is reduced to its gains before Eve's is drawn.
        cfg = make_config(location_error_std=math.radians(3.0), trials=200_000)
        run_lob(make_config(trials=10))
        tracemalloc.start()
        try:
            run_lob(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.k_factor_bob < math.inf and cfg.k_factor_eve < math.inf
        assert peak < 5 * cfg.trials * cfg.n_antennas * 16


class TestZeroSinrMasks:
    """LOB's zero SINRs, as rate_interval_batch scores them, against the
    scalar policy in the oracles."""

    SINR_BOB = [0.0, 0.0, 0.0, 40.0, 3.0, 1e-3, 40.0]
    SINR_EVE = [0.0, 2.0, 1e-4, 0.0, 0.0, 5.0, 2.0]

    @pytest.mark.parametrize("beta_e", [0.5, 0.7, 1.0])
    @pytest.mark.parametrize("log_term", [False, True])
    def test_matches_scalar_policy(self, beta_e, log_term):
        approx = ApproximationConfig(include_log_term=log_term)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cp = ConstraintPair(1e-6, beta_e)
            got = rate_interval_batch(100, self.SINR_BOB, self.SINR_EVE, cp, approx)
            want = [
                assess_sinr_pair(100, b, e, cp, approx)
                for b, e in zip(self.SINR_BOB, self.SINR_EVE)
            ]
        for name in RateIntervals._fields:
            assert getattr(got, name).tolist() == [getattr(a, name) for a in want], name
        assert np.signbit(got.delta_r).tolist() == [
            math.copysign(1.0, a.delta_r) < 0.0 for a in want
        ]
        # Both receivers silent: delta_r is -0.0, as -floor makes it.
        assert got.delta_r[0] == 0.0 and np.signbit(got.delta_r[0])

    def test_all_zero_eve_gives_no_beta_e_warning(self):
        cfg = make_config(an_fraction=1.0, trials=30, constraints=ConstraintPair(1e-6, 0.7))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_lob(cfg)
        assert caught == []
        assert (result.sinr_eve == 0.0).all()

    def test_beta_e_warning_once_per_run(self):
        cfg = make_config(trials=500, constraints=ConstraintPair(1e-6, 0.7))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_lob(cfg)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "beta_e=0.7" in str(caught[0].message)


class TestOptimizeAnFraction:
    def test_single_point_grid(self):
        opt = optimize_an_fraction(make_config(trials=40), [0.25])
        assert opt.phi_star == 0.25

    def test_deterministic(self):
        cfg = make_config(trials=200)
        grid = [0.0, 0.3, 0.6]
        assert (
            optimize_an_fraction(cfg, grid).objective_curve
            == optimize_an_fraction(cfg, grid).objective_curve
        )

    def test_colocated_pure_los_prefers_no_an(self):
        # Eve in the beam with pure LOS: the null space misses both
        # receivers, so AN only burns power and the objective can only
        # step down; ties resolve to phi = 0.
        cfg = make_config(
            theta_eve=0.0,
            k_factor_bob=math.inf,
            k_factor_eve=math.inf,
            noise_power_bob=0.25,
            noise_power_eve=0.5,
            blocklength=100,
            trials=50,
        )
        opt = optimize_an_fraction(cfg, [0.0, 0.3, 0.6, 0.8, 0.9])
        values = [obj for _, obj in opt.objective_curve]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[0] == 1.0 and values[-1] == 0.0
        assert opt.phi_star == 0.0

    @pytest.mark.parametrize(
        "overrides, grid",
        [
            ({"noise_power_bob": 0.5}, [0.25]),
            ({"noise_power_bob": 0.5, "location_error_std": math.radians(3.0)}, [0.0, 0.3, 0.6]),
            (
                {"noise_power_bob": 0.5, "n_antennas": 6, "k_factor_bob": 5.0,
                 "location_error_std": math.radians(4.0)},
                [0.05, 0.15, 0.25, 0.35, 0.5, 0.65],
            ),
            # No random draw at all: pure LOS both ways and no bearing error.
            (
                {"k_factor_bob": math.inf, "k_factor_eve": math.inf, "theta_eve": 0.05},
                [0.0, 0.1, 0.2, 0.4, 0.8, 0.9, 0.95],
            ),
        ],
    )
    def test_each_point_equals_run_lob(self, overrides, grid):
        cfg = make_config(trials=300, **overrides)
        curve = optimize_an_fraction(cfg, grid).objective_curve
        assert [phi for phi, _ in curve] == grid
        for phi, objective in curve:
            assert objective == run_lob(replace(cfg, an_fraction=phi)).summary.feasibility_prob

    def test_draws_once_per_grid(self, monkeypatch):
        draws = []

        def counted(*args, **kwargs):
            draws.append(args[0])
            return sample_rician(*args, **kwargs)

        monkeypatch.setattr("fblsec.lob.sample_rician", counted)
        optimize_an_fraction(make_config(trials=20), [0.0, 0.3, 0.6])
        assert len(draws) == 2  # Bob's channel and Eve's, once each

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            optimize_an_fraction(make_config(trials=10), [])
        with pytest.raises(ValueError):
            optimize_an_fraction(make_config(trials=10), [0.5, 1.0])
