"""Acceptance suite: anchor values plus property checks, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line of every criterion as it completes.
"""

import math
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fblsec import (
    CipcConfig,
    CodeSpec,
    ConstraintPair,
    LobConfig,
    RngSeed,
    binomial_cdf,
    block_error_prob,
    capacity,
    db_to_linear,
    error_probability,
    post_decoding_ber,
    q_func,
    q_func_inv,
    rate_interval,
    run_cipc,
    run_lob,
)
from fblsec.channels import steering_vector
from fblsec.cli import main

from oracles import an_basis, binomial_cdf_exact, q_oracle

CP = ConstraintPair(beta_b=1e-6, beta_e=0.5)
GB = db_to_linear(10.0)
GE = db_to_linear(0.0)
SLACK = 1e-15


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def test_criterion_1_error_probability_vs_rate_suite():
    n_grid = [100, 200, 500, 1000, 2000]
    cap = capacity(GB)
    rates = np.linspace(0.1 * cap, 1.2 * cap, 200)
    table = {n: [error_probability(n, float(r), GB) for r in rates] for n in n_grid}

    with criterion("1a: error probability is exactly 0.5 at rate = capacity"):
        for n in n_grid:
            assert error_probability(n, cap, GB) == 0.5

    with criterion("1b: error probability strictly increasing in rate"):
        for n in n_grid:
            eps = table[n]
            assert all(b > a - SLACK for a, b in zip(eps, eps[1:]))

    with criterion("1c: below capacity, decreasing in n and steepest at small n"):
        gaps = np.diff(n_grid)
        for idx, rate in enumerate(rates):
            if rate >= cap:
                continue
            eps = np.array([table[n][idx] for n in n_grid])
            assert all(b < a + SLACK for a, b in zip(eps, eps[1:]))
            # Second-difference sign check on the non-uniform grid: the
            # per-channel-use drop (divided difference) never grows with n.
            slopes = -np.diff(eps) / gaps
            assert all(b <= a + SLACK for a, b in zip(slopes, slopes[1:]))


def test_criterion_2_rate_bound_vs_blocklength_suite():
    n_grid = np.unique(np.rint(np.geomspace(10, 10**4, 60)).astype(int))
    assessments = [rate_interval(int(n), GB, GE, CP) for n in n_grid]

    with criterion("2a: eavesdropper rate floor is flat at the capacity"):
        cap_e = capacity(GE)
        for a in assessments:
            assert abs(a.r_inf - cap_e) < 1e-12

    with criterion("2b: main-channel rate ceiling increasing and below capacity"):
        ceilings = [a.r_sup for a in assessments]
        assert all(b > a for a, b in zip(ceilings, ceilings[1:]))
        assert all(r < capacity(GB) for r in ceilings)

    with criterion("2c: finite feasibility crossover, monotone in n"):
        feasible = [rate_interval(n, GB, GE, CP).feasible for n in range(1, 200)]
        assert True in feasible
        n_star = feasible.index(True) + 1
        assert all(feasible[n_star - 1 :])
        for n in (500, 5000, 10**4):
            assert rate_interval(n, GB, GE, CP).feasible

    with criterion("2d: larger blocklength feasible at a smaller SNR ratio"):

        def min_feasible_gamma_b(n):
            lo, hi = GE, 1e6  # infeasible at gamma_e itself, feasible at 1e6
            assert not rate_interval(n, lo, GE, CP).feasible
            assert rate_interval(n, hi, GE, CP).feasible
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if rate_interval(n, mid, GE, CP).feasible:
                    hi = mid
                else:
                    lo = mid
            return hi

        ratio_200 = min_feasible_gamma_b(200) / GE
        ratio_2000 = min_feasible_gamma_b(2000) / GE
        assert ratio_2000 < ratio_200


def test_criterion_3_rate_interval_converges_to_capacity_difference():
    with criterion("3: rate-interval gap halves when n quadruples"):
        target = capacity(GB) - capacity(GE)
        errs = [
            abs(rate_interval(n, GB, GE, CP).delta_r - target)
            for n in (10**3, 4 * 10**3, 16 * 10**3)
        ]
        assert errs[0] / errs[1] >= 1.9
        assert errs[1] / errs[2] >= 1.9


def test_criterion_4_numerics_oracles():
    with criterion("4a: Gaussian tail matches the integration oracle to 1e-10"):
        for x in np.arange(-8.0, 8.001, 0.25):
            assert abs(q_func(float(x)) - q_oracle(float(x))) < 1e-10

    with criterion("4b: tail inverse round-trips to 1e-9 relative"):
        grid = list(np.geomspace(1e-12, 0.5, 40)) + [
            1 - p for p in np.geomspace(1e-12, 0.4, 30)
        ]
        for p in grid:
            assert q_func(q_func_inv(float(p))) == pytest.approx(float(p), rel=1e-9)

    with criterion("4c: binomial tail exact against enumeration for n <= 20"):
        for p_frac in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
            p = float(p_frac)
            for n in range(1, 21):
                for k in range(n + 1):
                    exact = float(binomial_cdf_exact(k, n, p_frac))
                    assert abs(binomial_cdf(k, n, p) - exact) < 1e-12


def test_criterion_5_ber_metrics():
    with criterion("5a: uncoded post-decoding BER is the raw flip rate"):
        for p in (0.0, 1e-9, 1e-4, 0.1, 0.25, 0.5, 0.75, 1.0):
            assert post_decoding_ber(CodeSpec(15, 0), p) == p

    with criterion("5b: single-error-correcting block at p = 0.5"):
        assert block_error_prob(CodeSpec(7, 1), 0.5) == pytest.approx(
            0.9375, abs=1e-12
        )
        enumerated = 1.0 - float(binomial_cdf_exact(1, 7, Fraction(1, 2)))
        assert block_error_prob(CodeSpec(7, 1), 0.5) == pytest.approx(
            enumerated, abs=1e-12
        )


def _cipc_config(**overrides) -> CipcConfig:
    base = dict(
        q_target=1.0,
        p_max=math.inf,
        n_antennas_tx=4,
        noise_power_bob=0.01,
        noise_power_eve=0.1,
        blocklength=500,
        constraints=CP,
        sigma_delta=0.0,
        trials=10**5,
        seed=RngSeed(60466176, 0),
    )
    base.update(overrides)
    return CipcConfig(**base)


def test_criterion_6_channel_inversion():
    with criterion("6a: received power constant at Q over 1e5 trials"):
        cfg = _cipc_config()
        result = run_cipc(cfg)
        assert len(result.sent) == 10**5 and result.sent.all()
        worst = np.max(np.abs(result.rx_power_bob - cfg.q_target) / cfg.q_target)
        assert worst < 1e-12

    with criterion("6b: suspension probability matches the exponential law"):
        cfg = _cipc_config(n_antennas_tx=1, q_target=1.0, p_max=1.0)
        result = run_cipc(cfg)
        assert abs(result.summary.suspension_prob - 0.6321205588) < 0.01

    with criterion("6c: received-power variance monotone in reciprocity error"):
        variances = []
        for sigma in (0.0, 0.05, 0.1, 0.2):
            cfg = _cipc_config(n_antennas_tx=2, sigma_delta=sigma)
            result = run_cipc(cfg)
            assert result.sent.all()
            variances.append(float(np.var(result.rx_power_bob)))
        assert all(b > a for a, b in zip(variances, variances[1:]))
        assert variances[0] < 1e-24


def test_criterion_7_location_based_beamforming():
    base = LobConfig(
        n_antennas=4,
        theta_bob=0.0,
        theta_eve=math.radians(20.0),
        location_error_std=0.0,
        k_factor_bob=math.inf,
        k_factor_eve=1.0,
        total_power=1.0,
        an_fraction=0.0,
        noise_power_bob=0.05,
        noise_power_eve=0.05,
        blocklength=500,
        constraints=CP,
        trials=2000,
        seed=RngSeed(129140163, 0),
    )

    with criterion("7a: pure-LOS perfect-location beamforming gain equals N"):
        for n in (2, 4, 8):
            cfg = replace(base, n_antennas=n, trials=20)
            gain = run_lob(cfg).sinr_bob * cfg.noise_power_bob / cfg.total_power
            assert len(gain) == cfg.trials
            assert gain == pytest.approx(np.full(cfg.trials, n), rel=1e-12)

    with criterion("7b: artificial noise leaks nothing onto a matched LOS receiver"):
        for n in (2, 4, 8):
            a = steering_vector(0.0, n)
            basis = an_basis(0.0, n)
            leakage_share = float(np.linalg.norm(a.conj() @ basis) ** 2) / (n - 1)
            assert leakage_share < 1e-10

    with criterion("7c: mean eavesdropper SINR strictly decreasing in the AN share"):
        means = [
            run_lob(replace(base, an_fraction=phi)).summary.mean_sinr_eve
            for phi in (0.0, 0.2, 0.4, 0.6, 0.8)
        ]
        assert all(b < a for a, b in zip(means, means[1:]))


def test_criterion_8_cli_reproducibility(tmp_path):
    commands = {
        "fig2": ["fig2", "--n-list", "100", "500", "--steps", "30"],
        "fig3": ["fig3", "--n-count", "20"],
        "gap": ["gap", "--n", "500", "--rate", "1.0"],
        "interval": ["interval", "--n", "500"],
        "minblock": ["minblock", "--snr-b-db", "10", "--snr-e-db", "0"],
        "cipc": ["cipc", "--trials", "40", "--seed", "99", "--sigma-delta", "0.05"],
        "lob": ["lob", "--trials", "30", "--seed", "99", "--loc-error-deg", "2"],
        "optimize-q": ["optimize-q", "--q-grid", "0.5", "1.0", "2.0", "--trials", "40", "--seed", "99"],
        "optimize-an": ["optimize-an", "--phi-grid", "0.0", "0.3", "0.6", "--trials", "30", "--seed", "99"],
    }
    with criterion("8: every command writes byte-identical CSV under a fixed seed"):
        for name, argv in commands.items():
            first = tmp_path / f"{name}-1.csv"
            second = tmp_path / f"{name}-2.csv"
            assert main(argv + ["--out", str(first)]) == 0
            assert main(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name
