"""Location-based beamforming with null-space artificial noise, Monte Carlo.

Instead of estimated channel state, the transmitter points a beam along
the steering vector of the receiver's (possibly misestimated) bearing and
spends a fraction phi of its power on artificial noise spread evenly over
the beam's null space. A receiver whose channel is pure LOS at exactly
the steered angle sees no artificial noise at all; scatter (finite Rician
K) or bearing error leaks some of it. Each random role (bearing error,
Bob's channel, Eve's channel) has its own keyed stream and draws all its
trials in one call; the beam is the steering vector of the estimated
bearing over sqrt(N), and the draw reduces each receiver's channel to its
beam gain and leakage before the next is drawn. The SINRs are scored through
secrecy.rate_interval_batch, which reads a zero SINR (no power on
information) as a receiver that decodes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import RicianSpec, sample_rician, steering_vector
from .fb_coding import ApproximationConfig, DEFAULT_APPROXIMATION, _check_blocklength
from .numerics import RngSeed, _as_count, _best, _mean
from .secrecy import ConstraintPair, RateIntervals, _simulated_intervals

# Keyed stream of each random role: stream id base + role.
_ROLE_BEARING = 0
_ROLE_BOB = 1
_ROLE_EVE = 2

# Steering angles live in the open interval (-pi/2, pi/2); bearing-error
# draws are clamped just inside it.
_ANGLE_LIMIT = math.pi / 2 * (1.0 - 1e-12)


@dataclass(frozen=True, slots=True)
class LobConfig:
    """Inputs of one location-based-beamforming Monte Carlo run.

    an_fraction is the share of total_power spent on artificial noise;
    the remainder carries information. Angles are radians.
    """

    n_antennas: int
    theta_bob: float
    theta_eve: float
    location_error_std: float
    k_factor_bob: float
    k_factor_eve: float
    total_power: float
    an_fraction: float
    noise_power_bob: float
    noise_power_eve: float
    blocklength: int
    constraints: ConstraintPair
    trials: int
    seed: RngSeed
    approx: ApproximationConfig = DEFAULT_APPROXIMATION

    def __post_init__(self):
        if _as_count(self.n_antennas, "n_antennas") < 2:
            raise ValueError(f"n_antennas must be >= 2, got {self.n_antennas}")
        for name in ("theta_bob", "theta_eve"):
            if not abs(float(getattr(self, name))) < math.pi / 2:
                raise ValueError(f"{name} must lie in (-pi/2, pi/2)")
        v = float(self.location_error_std)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"location_error_std must be finite and >= 0, got {v!r}")
        for name in ("total_power", "noise_power_bob", "noise_power_eve"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if not 0.0 <= self.an_fraction <= 1.0:
            raise ValueError(f"an_fraction must lie in [0, 1], got {self.an_fraction!r}")
        _check_blocklength(self.blocklength)
        if _as_count(self.trials, "trials") < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True, slots=True)
class LobSummary:
    trials: int
    mean_sinr_bob: float
    mean_sinr_eve: float
    feasibility_prob: float
    mean_delta_r: float


@dataclass(frozen=True, slots=True, eq=False)
class LobResult:
    """Per-trial columns of a run, in trial order."""

    theta_hat: np.ndarray
    sinr_bob: np.ndarray
    sinr_eve: np.ndarray
    assessment: RateIntervals
    summary: LobSummary


def _gains(h: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|h^H w|^2, ||h^H V||^2) of a receiver with channel h under the unit
    beam w, V an orthonormal basis of the null space of w, along the last
    axis. V V^H = I - w w^H, so the leakage is ||h||^2 - |h^H w|^2, clamped
    at 0 against rounding, and no basis is built."""
    gain = np.abs(np.vecdot(h, w)) ** 2
    return gain, np.maximum(0.0, np.vecdot(h, h).real - gain)


def _sinr(gain: np.ndarray, leakage: np.ndarray, cfg: LobConfig, noise_power: float) -> tuple:
    """(SINR, signal power) of a receiver from its beam gain and AN leakage.

    Signal power is (1-phi) P |h^H w|^2; artificial noise adds
    (phi P / (N-1)) ||h^H V||^2 on top of thermal noise.
    """
    an = cfg.an_fraction * cfg.total_power / (cfg.n_antennas - 1) * leakage
    signal = (1.0 - cfg.an_fraction) * cfg.total_power * gain
    return signal / (an + noise_power), signal


def _score(bob, eve, cfg: LobConfig) -> tuple[np.ndarray, np.ndarray, RateIntervals]:
    """Bob's and Eve's SINR columns from their (gain, leakage) pairs, and
    the rate intervals of those."""
    with np.errstate(over="ignore"):  # an SINR of inf is refused below, by the input at fault
        sinr_bob, rx_bob = _sinr(*bob, cfg, cfg.noise_power_bob)
        sinr_eve, rx_eve = _sinr(*eve, cfg, cfg.noise_power_eve)
    powers = {"Bob's received power": rx_bob, "Eve's received power": rx_eve}
    a = _simulated_intervals(cfg, sinr_bob, sinr_eve, powers, f"total_power={cfg.total_power!r}")
    return sinr_bob, sinr_eve, a


def _draw(cfg: LobConfig):
    """Per-trial real columns: theta_hat and the (gain, leakage) pair of
    Bob and of Eve. Bob's channel is dropped before Eve's is drawn."""
    base = cfg.seed.stream_id
    theta_hat = np.full(cfg.trials, cfg.theta_bob, dtype=float)
    if cfg.location_error_std > 0.0:
        err = cfg.seed.stream(base + _ROLE_BEARING).generator().standard_normal(cfg.trials)
        theta_hat = np.clip(theta_hat + cfg.location_error_std * err, -_ANGLE_LIMIT, _ANGLE_LIMIT)
    w = steering_vector(theta_hat, cfg.n_antennas) / math.sqrt(cfg.n_antennas)
    spec_bob = RicianSpec(cfg.k_factor_bob, cfg.theta_bob, cfg.n_antennas)
    spec_eve = RicianSpec(cfg.k_factor_eve, cfg.theta_eve, cfg.n_antennas)
    bob = _gains(sample_rician(spec_bob, cfg.seed.stream(base + _ROLE_BOB), size=cfg.trials), w)
    eve = _gains(sample_rician(spec_eve, cfg.seed.stream(base + _ROLE_EVE), size=cfg.trials), w)
    return theta_hat, bob, eve


def run_lob(cfg: LobConfig) -> LobResult:
    """Monte Carlo over fading and bearing error; per-trial columns plus a summary.

    Per trial: perturb Bob's bearing by a Gaussian error, steer the beam
    and null space there, draw both Rician channels at their true angles,
    and assess the realized SINR pair. Deterministic under cfg.seed; the
    bearing error is drawn only when location_error_std > 0.
    """
    theta_hat, bob, eve = _draw(cfg)
    sinr_bob, sinr_eve, a = _score(bob, eve, cfg)
    summary = LobSummary(
        trials=cfg.trials,
        mean_sinr_bob=_mean(sinr_bob),
        mean_sinr_eve=_mean(sinr_eve),
        feasibility_prob=_mean(a.feasible),
        mean_delta_r=_mean(a.delta_r),
    )
    return LobResult(theta_hat, sinr_bob, sinr_eve, a, summary)


@dataclass(frozen=True, slots=True)
class AnOptimum:
    phi_star: float
    #: (phi, feasibility probability) pairs in grid order.
    objective_curve: list[tuple[float, float]]


def optimize_an_fraction(cfg: LobConfig, phi_grid) -> AnOptimum:
    """Grid search of the artificial-noise share under common random numbers.

    Maximizes the feasibility probability. The draw does not depend on
    phi, so it is made once and every grid point scores the same columns;
    each point's probability equals that of run_lob at that phi. Ties go
    to the smaller phi.
    """
    phis = [float(phi) for phi in phi_grid]
    if not phis:
        raise ValueError("phi_grid must be nonempty")
    for phi in phis:
        if not 0.0 <= phi < 1.0:
            raise ValueError(f"phi grid values must lie in [0, 1), got {phi!r}")
    _, bob, eve = _draw(cfg)
    curve: list[tuple[float, float]] = []
    for phi in phis:
        a = _score(bob, eve, replace(cfg, an_fraction=phi))[2]
        curve.append((phi, _mean(a.feasible)))
    return AnOptimum(phi_star=_best(curve), objective_curve=curve)
