"""Location-based beamforming with null-space artificial noise, Monte Carlo.

Instead of estimated channel state, the transmitter points a beam along
the steering vector of the receiver's (possibly misestimated) bearing and
spends a fraction phi of its power on artificial noise spread evenly over
the beam's null space. A receiver whose channel is pure LOS at exactly
the steered angle sees no artificial noise at all; scatter (finite Rician
K) or bearing error leaks some of it. Per trial the realized Bob/Eve
SINRs are scored through the rate-interval assessment. Each random role
(bearing error, Bob's channel, Eve's channel) has its own keyed stream
and draws all its trials in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channels import RicianSpec, sample_rician, steering_vector
from .fb_coding import ApproximationConfig, DEFAULT_APPROXIMATION, _check_blocklength
from .numerics import RngSeed, _as_count, sample_standard_normal
from .secrecy import ConstraintPair, RateIntervals, SecrecyAssessment, _ceilings, _floors

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


class SinrPair(NamedTuple):
    sinr_bob: float
    sinr_eve: float


@dataclass(frozen=True, slots=True)
class LobRecord:
    trial_id: int
    theta_hat: float
    sinr_bob: float
    sinr_eve: float
    assessment: SecrecyAssessment


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

    @property
    def records(self) -> list[LobRecord]:
        """One LobRecord per trial, built from the columns on each access."""
        return list(
            map(
                LobRecord,
                range(len(self.theta_hat)),
                self.theta_hat.tolist(),
                self.sinr_bob.tolist(),
                self.sinr_eve.tolist(),
                self.assessment.assessments(),
            )
        )


def lob_beamformer(theta_hat, n_antennas: int) -> np.ndarray:
    """Unit-norm beam along the steering vector of the estimated bearing.

    An array of bearings gives one beam per bearing along a new last axis.
    """
    a = steering_vector(theta_hat, n_antennas)
    return a / math.sqrt(n_antennas)


def _an_leakage(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||h^H V||^2 for an orthonormal basis V of the null space of the unit beam w.

    V V^H = I - w w^H, so this is ||h||^2 - |w^H h|^2 and no basis is
    built; rounding can push the difference just below zero, hence the clamp.
    Works along the last axis.
    """
    return np.maximum(0.0, np.vecdot(h, h).real - np.abs(np.vecdot(w, h)) ** 2)


def _sinr(h: np.ndarray, w: np.ndarray, cfg: LobConfig, noise_power: float) -> np.ndarray:
    """SINR of a receiver with channel h under beam w, along the last axis."""
    info_power = (1.0 - cfg.an_fraction) * cfg.total_power
    an_power = cfg.an_fraction * cfg.total_power
    signal = info_power * np.abs(np.vecdot(h, w)) ** 2
    an = an_power / (cfg.n_antennas - 1) * _an_leakage(h, w)
    return signal / (an + noise_power)


def sinr_pair(
    h_bob: np.ndarray,
    h_eve: np.ndarray,
    cfg: LobConfig,
    theta_hat: float | None = None,
) -> SinrPair:
    """SINRs seen by Bob and Eve for given channel realizations.

    Signal power at receiver x is (1-phi) P |h_x^H w|^2; artificial noise
    adds (phi P / (N-1)) ||h_x^H V||^2 on top of thermal noise. theta_hat
    defaults to Bob's true bearing (perfect location knowledge).
    """
    theta = cfg.theta_bob if theta_hat is None else float(theta_hat)
    w = lob_beamformer(theta, cfg.n_antennas)
    return SinrPair(
        float(_sinr(np.asarray(h_bob), w, cfg, cfg.noise_power_bob)),
        float(_sinr(np.asarray(h_eve), w, cfg, cfg.noise_power_eve)),
    )


def _rate_intervals(
    n: int,
    sinr_bob: np.ndarray,
    sinr_eve: np.ndarray,
    constraints: ConstraintPair,
    approx: ApproximationConfig,
) -> RateIntervals:
    """Rate intervals of SINR pairs, zero SINRs included.

    Zero SINR falls outside the positive-SNR domain of the rate formulas
    and is handled as the physical limit: a receiver with no signal power
    decodes nothing. At Eve that makes every rate secure (floor zero); at
    Bob it makes the reliability target unreachable, reported as an
    infeasible trial with a zero, clamped rate ceiling. Ceilings and
    floors are computed only where the SINR is positive, so a run in which
    Eve never hears anything emits no beta_e warning.
    """
    bob_on, eve_on = sinr_bob > 0.0, sinr_eve > 0.0
    r_sup, clamped = np.zeros(len(sinr_bob)), np.ones(len(sinr_bob), dtype=bool)
    r_sup[bob_on], clamped[bob_on] = _ceilings(n, constraints.beta_b, sinr_bob[bob_on], approx)
    r_inf = np.zeros(len(sinr_eve))
    r_inf[eve_on] = _floors(n, constraints.beta_e, sinr_eve[eve_on], approx)
    delta_r = np.where(bob_on, r_sup - r_inf, -r_inf)
    return RateIntervals(r_sup, r_inf, delta_r, bob_on & (delta_r >= 0.0), clamped)


def run_lob(cfg: LobConfig) -> LobResult:
    """Monte Carlo over fading and bearing error; per-trial columns plus a summary.

    Per trial: perturb Bob's bearing by a Gaussian error, steer the beam
    and null space there, draw both Rician channels at their true angles,
    and assess the realized SINR pair. Deterministic under cfg.seed; the
    bearing error is drawn only when location_error_std > 0.
    """
    base = cfg.seed.stream_id
    theta_hat = np.full(cfg.trials, cfg.theta_bob, dtype=float)
    if cfg.location_error_std > 0.0:
        err = sample_standard_normal(cfg.seed.stream(base + _ROLE_BEARING), cfg.trials)
        theta_hat = np.clip(
            theta_hat + cfg.location_error_std * err, -_ANGLE_LIMIT, _ANGLE_LIMIT
        )
    w = lob_beamformer(theta_hat, cfg.n_antennas)
    spec_bob = RicianSpec(cfg.k_factor_bob, cfg.theta_bob, cfg.n_antennas)
    spec_eve = RicianSpec(cfg.k_factor_eve, cfg.theta_eve, cfg.n_antennas)
    h_bob = sample_rician(spec_bob, cfg.seed.stream(base + _ROLE_BOB), size=cfg.trials)
    h_eve = sample_rician(spec_eve, cfg.seed.stream(base + _ROLE_EVE), size=cfg.trials)
    sinr_bob = _sinr(h_bob, w, cfg, cfg.noise_power_bob)
    sinr_eve = _sinr(h_eve, w, cfg, cfg.noise_power_eve)
    a = _rate_intervals(cfg.blocklength, sinr_bob, sinr_eve, cfg.constraints, cfg.approx)

    # Means summed left to right as Python floats.
    n = cfg.trials
    mean_sinr_bob, mean_sinr_eve, feasibility, mean_delta_r = (
        sum(column.tolist()) / n for column in (sinr_bob, sinr_eve, a.feasible, a.delta_r)
    )
    summary = LobSummary(
        trials=n,
        mean_sinr_bob=mean_sinr_bob,
        mean_sinr_eve=mean_sinr_eve,
        feasibility_prob=feasibility,
        mean_delta_r=mean_delta_r,
    )
    return LobResult(theta_hat, sinr_bob, sinr_eve, a, summary)


@dataclass(frozen=True, slots=True)
class AnOptimum:
    phi_star: float
    #: (phi, feasibility probability) pairs in grid order.
    objective_curve: list[tuple[float, float]]


def optimize_an_fraction(cfg: LobConfig, phi_grid) -> AnOptimum:
    """Grid search of the artificial-noise share under common random numbers.

    Maximizes the feasibility probability; every grid point reruns the
    simulation from the same seed. Ties go to the smaller phi.
    """
    phis = [float(phi) for phi in phi_grid]
    if not phis:
        raise ValueError("phi_grid must be nonempty")
    for phi in phis:
        if not 0.0 <= phi < 1.0:
            raise ValueError(f"phi grid values must lie in [0, 1), got {phi!r}")
    curve: list[tuple[float, float]] = []
    for phi in phis:
        result = run_lob(replace(cfg, an_fraction=phi))
        curve.append((phi, result.summary.feasibility_prob))
    phi_star = max(curve, key=lambda pair: (pair[1], -pair[0]))[0]
    return AnOptimum(phi_star=phi_star, objective_curve=curve)
