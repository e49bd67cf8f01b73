"""Finite-blocklength coding quantities for the AWGN channel.

Normal-approximation family: capacity C(g) = log2(1 + g), dispersion
V(g) = (1 - (1+g)^-2) * (log2 e)^2, block error probability

    eps(n, R, g) = Q( sqrt(n / V) * (C - R + delta) ),

and its inverse in R. ``delta`` is the optional (log2 n) / (2n) rate
correction, off by default so that the rate bound at target error 0.5 is
exactly the capacity for every blocklength.

All functions are pure and thread-safe. SNRs are linear power ratios;
dB conversion happens at the boundary via db_to_linear / linear_to_db.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .numerics import _as_count, q_func, q_func_inv

LOG2_E = math.log2(math.e)
#: V(g) upper limit as g -> inf, (log2 e)^2.
DISPERSION_LIMIT = LOG2_E**2
#: Search bracket of every SNR root-find (security gaps, BER thresholds),
#: in dB (1e-6 .. 1e6 linear).
SNR_BRACKET_DB = (-60.0, 60.0)


@dataclass(frozen=True, slots=True)
class ApproximationConfig:
    """Switches of the rate/error approximation, fixed for a whole run."""

    include_log_term: bool = False


DEFAULT_APPROXIMATION = ApproximationConfig()


@dataclass(frozen=True, slots=True)
class FbPoint:
    """One (blocklength, rate, error probability) sample of a sweep."""

    n: int
    rate: float
    epsilon: float


@dataclass(frozen=True, slots=True)
class RateBound:
    """A rate solved from an error-probability target.

    ``clamped`` marks results whose raw formula value was negative and was
    clamped to zero; such operating points admit no usable positive rate.
    """

    rate: float
    clamped: bool


def db_to_linear(db: float) -> float:
    """Convert a dB power ratio to linear scale."""
    return 10.0 ** (float(db) / 10.0)


def linear_to_db(linear: float) -> float:
    """Convert a positive linear power ratio to dB."""
    linear = float(linear)
    if not linear > 0.0:
        raise ValueError(f"dB conversion requires a positive ratio, got {linear!r}")
    return 10.0 * math.log10(linear)


def _check_snr(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise ValueError(f"SNR must be positive and finite, got {gamma!r}")
    return gamma


def _check_snrs(gamma) -> np.ndarray:
    """_check_snr over an array: the first bad value raises the scalar message."""
    gamma = np.asarray(gamma, dtype=float)
    bad = ~(np.isfinite(gamma) & (gamma > 0.0))
    if bad.any():
        _check_snr(gamma[bad][0])
    return gamma


def _check_blocklength(n) -> int:
    n = _as_count(n, "blocklength")
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    return n


def _check_rate(rate: float) -> float:
    rate = float(rate)
    if not math.isfinite(rate) or rate < 0.0:
        raise ValueError(f"coding rate must be finite and >= 0, got {rate!r}")
    return rate


def _log_term(n: int, cfg: ApproximationConfig) -> float:
    return math.log2(n) / (2.0 * n) if cfg.include_log_term else 0.0


def _rate_bound(n: int, eps: float, gamma: float, cfg: ApproximationConfig) -> float:
    """Unclamped rate bound C - sqrt(V/n) * Qinv(eps) + delta; callers validate."""
    return capacity(gamma) - math.sqrt(dispersion(gamma) / n) * q_func_inv(eps) + _log_term(n, cfg)


def _rate_bound_batch(n: int, eps: float, gamma: np.ndarray, cfg: ApproximationConfig) -> np.ndarray:
    """_rate_bound over an SNR array, bit-identical to it value by value.

    C and V take the scalar functions' libm calls one value at a time
    (numpy's vectorized log2 and pow round differently in the last bit);
    the rest is the same correctly rounded arithmetic in the same order.
    """
    one_plus = (1.0 + gamma).ravel().tolist()
    cap = np.fromiter(map(math.log2, one_plus), float, len(one_plus)).reshape(gamma.shape)
    inv_sq = np.fromiter(map(pow, one_plus, repeat(-2.0)), float, len(one_plus))
    disp = (1.0 - inv_sq.reshape(gamma.shape)) * DISPERSION_LIMIT
    return cap - np.sqrt(disp / n) * q_func_inv(eps) + _log_term(n, cfg)


def capacity(gamma: float) -> float:
    """AWGN capacity log2(1 + gamma) in bits per channel use."""
    return math.log2(1.0 + _check_snr(gamma))


def dispersion(gamma: float) -> float:
    """Channel dispersion V(gamma) = (1 - (1+gamma)^-2) * (log2 e)^2.

    Strictly increasing in gamma, with range (0, (log2 e)^2).
    """
    gamma = _check_snr(gamma)
    return (1.0 - (1.0 + gamma) ** -2) * DISPERSION_LIMIT


def error_probability(
    n: int,
    rate: float,
    gamma: float,
    cfg: ApproximationConfig = DEFAULT_APPROXIMATION,
) -> float:
    """Block error probability of the best (n, rate) code at SNR gamma.

    Strictly increasing in rate and strictly decreasing in gamma; equals
    0.5 at rate = capacity when the log-term correction is off.
    """
    n = _check_blocklength(n)
    rate = _check_rate(rate)
    gamma = _check_snr(gamma)
    v = dispersion(gamma)
    arg = math.sqrt(n / v) * (capacity(gamma) - rate + _log_term(n, cfg))
    return q_func(arg)


def max_rate(
    n: int,
    epsilon_target: float,
    gamma: float,
    cfg: ApproximationConfig = DEFAULT_APPROXIMATION,
) -> RateBound:
    """Largest rate whose error probability does not exceed the target.

    R* = C - sqrt(V/n) * Qinv(eps) + delta, clamped below at zero. For
    unclamped results error_probability(n, R*, gamma) round-trips to the
    target within 1e-9.
    """
    n = _check_blocklength(n)
    epsilon_target = float(epsilon_target)
    if not 0.0 < epsilon_target < 1.0:
        raise ValueError(
            f"target error probability must lie in (0, 1), got {epsilon_target!r}"
        )
    gamma = _check_snr(gamma)
    rate = _rate_bound(n, epsilon_target, gamma, cfg)
    if rate < 0.0:
        return RateBound(0.0, True)
    return RateBound(rate, False)
