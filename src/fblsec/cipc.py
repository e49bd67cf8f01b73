"""Channel-inversion power control over a reciprocal uplink, Monte Carlo.

The transmitter learns the downlink channel h_d from pilots and relies on
reciprocity for the uplink: it beamforms along conj(h_d)/||h_d|| and
inverts its transmit power, P_t = Q / ||h_d||^2, so the power arriving at
the receiver is the constant Q. Inversion is truncated: a trial whose
required power exceeds p_max is suspended rather than clamped, which
keeps the constant-received-power property exact on every transmitted
trial. The eavesdropper observes through an independent Rayleigh channel
and sees a randomly varying transmit power.

Each random role (downlink channel, reciprocity error, Eve's channel)
has its own keyed stream and draws all its trials in one call, so the
first k trials do not depend on how many trials follow. The draw takes
||h_d||^2 once, for both the power and the beam, and reduces each
(trials, N) complex channel to a real gain column as soon as it can; each
trial is then scored by the rate interval of its (SNR_bob, SNR_eve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import ReciprocityError, _check_antennas, apply_reciprocity_error, sample_rayleigh
from .fb_coding import ApproximationConfig, DEFAULT_APPROXIMATION, _check_blocklength
from .numerics import RngSeed, _as_count, _best, _mean
from .secrecy import ConstraintPair, RateIntervals, _simulated_intervals

# Keyed stream of each random role: stream id base + role.
_ROLE_CHANNEL = 0
_ROLE_RECIPROCITY = 1
_ROLE_EVE = 2


@dataclass(frozen=True, slots=True)
class CipcConfig:
    """Inputs of one channel-inversion Monte Carlo run."""

    q_target: float
    p_max: float
    n_antennas_tx: int
    noise_power_bob: float
    noise_power_eve: float
    blocklength: int
    constraints: ConstraintPair
    reciprocity: ReciprocityError
    trials: int
    seed: RngSeed
    approx: ApproximationConfig = DEFAULT_APPROXIMATION

    def __post_init__(self):
        for name in ("q_target", "noise_power_bob", "noise_power_eve"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if math.isnan(self.p_max) or self.p_max <= 0.0:
            raise ValueError(f"p_max must be positive, got {self.p_max!r}")
        _check_antennas(self.n_antennas_tx)
        _check_blocklength(self.blocklength)
        if _as_count(self.trials, "trials") < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True, slots=True)
class CipcSummary:
    """Run statistics; the last three are over transmitted trials (nan if none)."""

    trials: int
    suspension_prob: float
    #: Fraction of transmitted (non-suspended) trials that were feasible.
    feasibility_prob: float
    mean_delta_r: float
    mean_gamma_e: float


@dataclass(frozen=True, slots=True, eq=False)
class CipcResult:
    """Per-trial columns of a run: the sent mask covers every trial, the
    other columns only the transmitted ones, in trial order."""

    sent: np.ndarray
    p_t: np.ndarray
    rx_power_bob: np.ndarray
    gamma_b: np.ndarray
    gamma_e: np.ndarray
    assessment: RateIntervals
    summary: CipcSummary


def _draw(cfg: CipcConfig):
    """The sent mask, then p_t, |h_u^T w|^2 and |g^H w|^2 of the transmitted
    trials under the beam w = conj(h_d)/||h_d||; each complex channel is
    dropped as soon as its gain is taken."""
    base = cfg.seed.stream_id
    h_d = sample_rayleigh(cfg.n_antennas_tx, cfg.seed.stream(base + _ROLE_CHANNEL), size=cfg.trials)
    gain = np.vecdot(h_d, h_d).real
    if np.any(gain == 0.0):
        raise ValueError("degenerate channel: zero gain cannot be inverted")
    with np.errstate(over="ignore"):  # an infinite p_t is refused in run_cipc, by q_target
        p_t = cfg.q_target / gain
    sent = ~(p_t > cfg.p_max)  # truncated inversion suspends the rest
    h_d, gain = h_d[sent], gain[sent]
    w = h_d.conj() / np.sqrt(gain)[:, np.newaxis]
    h_u = apply_reciprocity_error(h_d, cfg.reciprocity, cfg.seed.stream(base + _ROLE_RECIPROCITY))
    del h_d
    bob_gain = np.abs(np.vecdot(h_u.conj(), w)) ** 2
    del h_u
    g = sample_rayleigh(cfg.n_antennas_tx, cfg.seed.stream(base + _ROLE_EVE), size=len(w))
    return sent, p_t[sent], bob_gain, np.abs(np.vecdot(g, w)) ** 2


def run_cipc(cfg: CipcConfig) -> CipcResult:
    """Monte Carlo over fading: returns per-trial columns plus a summary.

    Per trial: draw the downlink channel h_d (Rayleigh) and invert power
    on it; a transmitted trial then perturbs h_d into the true uplink h_u
    per the reciprocity error, draws Eve's channel and scores the realized
    Bob/Eve SNR pair through the rate interval. Suspended trials draw
    nothing beyond h_d. With zero reciprocity error every transmitted
    trial delivers exactly q_target to Bob.
    """
    sent, p_t, bob_gain, eve_gain = _draw(cfg)
    with np.errstate(over="ignore"):  # an SNR of inf is refused below, by the input at fault
        rx_bob = p_t * bob_gain
        rx_eve = p_t * eve_gain
        gamma_b = rx_bob / cfg.noise_power_bob
        gamma_e = rx_eve / cfg.noise_power_eve
    source = f"q_target={cfg.q_target!r}" + (" and p_max=inf" if math.isinf(cfg.p_max) else "")
    powers = {"the transmit power": p_t, "Bob's received power": rx_bob, "Eve's received power": rx_eve}
    a = _simulated_intervals(cfg, gamma_b, gamma_e, powers, source)
    summary = CipcSummary(
        trials=cfg.trials,
        suspension_prob=(cfg.trials - len(p_t)) / cfg.trials,
        feasibility_prob=_mean(a.feasible),
        mean_delta_r=_mean(a.delta_r),
        mean_gamma_e=_mean(gamma_e),
    )
    return CipcResult(sent, p_t, rx_bob, gamma_b, gamma_e, a, summary)


def _q_objective(summary: CipcSummary) -> float:
    """Probability of a transmitted and feasible trial."""
    if summary.suspension_prob == 1.0:
        return 0.0  # nothing transmitted, so feasibility_prob is nan
    return summary.feasibility_prob * (1.0 - summary.suspension_prob)


@dataclass(frozen=True, slots=True)
class QOptimum:
    q_star: float
    #: (q, objective) pairs in the order the grid was given.
    objective_curve: list[tuple[float, float]]


def optimize_q(cfg: CipcConfig, q_grid) -> QOptimum:
    """Grid search of the received-power constant under common random numbers.

    Maximizes the probability of a transmitted and feasible trial. Every
    grid point reruns the simulation from the same seed, so the channel
    realizations are shared and the objective differences come from Q
    alone. Ties go to the smaller Q.
    """
    q_values = [float(q) for q in q_grid]
    if not q_values:
        raise ValueError("q_grid must be nonempty")
    curve: list[tuple[float, float]] = []
    for q in q_values:
        result = run_cipc(replace(cfg, q_target=q))
        curve.append((q, _q_objective(result.summary)))
    return QOptimum(q_star=_best(curve), objective_curve=curve)
