"""Finite-blocklength coding quantities for the AWGN channel.

Normal-approximation family: capacity C(g) = log2(1 + g) = log1p(g) log2 e,
dispersion V(g) = (1 - (1+g)^-2) (log2 e)^2 = -expm1(-2 log1p(g)) (log2 e)^2
(the forms evaluated, which stay positive where 1 + g rounds to 1), block
error probability

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
from typing import Callable

import numpy as np

from .numerics import _as_count, brent_root, q_func, q_func_inv

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


def db_to_linear(db: float) -> float:
    """Convert a dB power ratio to linear scale; past the largest double, raise ValueError."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise ValueError(f"{float(db)!r} dB overflows a linear power ratio") from None


def linear_to_db(linear: float) -> float:
    """Convert a positive linear power ratio to dB, by numpy's log10 as _rows._db_cells."""
    linear = float(linear)
    if not linear > 0.0:
        raise ValueError(f"dB conversion requires a positive ratio, got {linear!r}")
    return float(10.0 * np.log10(linear))


def _check_snr(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise ValueError(f"SNR must be positive and finite, got {gamma!r}")
    return gamma


def _check_snrs(gamma) -> np.ndarray:
    """_check_snr over an array that may hold exact zeros: the first bad value raises its message."""
    gamma = np.asarray(gamma, dtype=float)
    bad = ~(np.isfinite(gamma) & (gamma >= 0.0))
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


def _cv(gamma: float) -> tuple[float, float]:
    """Capacity and dispersion (C, V) of an SNR the caller has checked.

    The one scalar copy of both formulas; _rate_bound_batch repeats them
    over arrays with the same libm calls.
    """
    log_one_plus = math.log1p(gamma)
    return log_one_plus * LOG2_E, -math.expm1(-2.0 * log_one_plus) * DISPERSION_LIMIT


def _rate_bound(n: int, eps: float, gamma: float, cfg: ApproximationConfig) -> float:
    """Unclamped rate bound C - sqrt(V/n) * Qinv(eps) + delta; callers validate."""
    return _rate_from(n, *_cv(gamma), q_func_inv(eps), _log_term(n, cfg))


def _rate_from(n: int, cap: float, disp: float, q_inv: float, log_term: float) -> float:
    """_rate_bound from its parts C, V, Qinv(eps) and delta, computed beforehand."""
    return cap - math.sqrt(disp / n) * q_inv + log_term


def _rate_bound_batch(n: int, eps: float, gamma: np.ndarray, cfg: ApproximationConfig) -> np.ndarray:
    """_rate_bound over an SNR array, bit-identical to it value by value.

    C and V take _cv's libm calls one value at a time (numpy's vectorized
    log1p and expm1 can round differently in the last bit); the rest is the
    same correctly rounded arithmetic in the same order.
    """
    log_one_plus = np.fromiter(map(math.log1p, gamma.ravel().tolist()), float, gamma.size)
    disp = -np.fromiter(map(math.expm1, (-2.0 * log_one_plus).tolist()), float, gamma.size) * DISPERSION_LIMIT
    rate = log_one_plus * LOG2_E - np.sqrt(disp / n) * q_func_inv(eps) + _log_term(n, cfg)
    return rate.reshape(gamma.shape)


def capacity(gamma: float) -> float:
    """AWGN capacity log2(1 + gamma) in bits per channel use."""
    return _cv(_check_snr(gamma))[0]


def dispersion(gamma: float) -> float:
    """Channel dispersion V(gamma) = (1 - (1+gamma)^-2) * (log2 e)^2.

    Nondecreasing in gamma, with range (0, (log2 e)^2].
    """
    return _cv(_check_snr(gamma))[1]


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
    return _error_probability(n, rate, _check_snr(gamma), _log_term(n, cfg))


def _error_probability(n: int, rate: float, gamma: float, log_term: float) -> float:
    """error_probability of checked n, rate and gamma, given delta.

    C and V come from the unchecked _cv, so a root-find over gamma checks
    nothing per step. A rate so far above capacity that Q's argument
    overflows to -inf has error probability 1.
    """
    cap, disp = _cv(gamma)
    x = math.sqrt(n / disp) * (cap - rate + log_term)
    return 1.0 if x == -math.inf else q_func(x)


def max_rate(
    n: int,
    epsilon_target: float,
    gamma: float,
    cfg: ApproximationConfig = DEFAULT_APPROXIMATION,
) -> float:
    """Largest rate whose error probability does not exceed the target.

    R* = C - sqrt(V/n) * Qinv(eps) + delta, clamped below at zero: a
    ceiling of exactly 0.0 admits no usable positive rate. For a positive
    R*, error_probability(n, R*, gamma) round-trips to the target within
    1e-9.
    """
    n = _check_blocklength(n)
    epsilon_target = float(epsilon_target)
    if not 0.0 < epsilon_target < 1.0:
        raise ValueError(
            f"target error probability must lie in (0, 1), got {epsilon_target!r}"
        )
    gamma = _check_snr(gamma)
    rate = _rate_bound(n, epsilon_target, gamma, cfg)
    return 0.0 if rate < 0.0 else rate


def _snr_root(curve_db: Callable[[float], float], ends: tuple[float, float], target: float) -> float:
    """The linear SNR at which curve_db, a monotone function of the SNR in
    dB, meets target, by a Brent step over SNR_BRACKET_DB in dB.

    ends holds curve_db's values at the two bracket ends, which the caller
    has checked lie on either side of target (or on it).
    """
    lo_db, hi_db = SNR_BRACKET_DB
    root_db = brent_root(lambda snr_db: curve_db(snr_db) - target, lo_db, hi_db,
                         ends[0] - target, ends[1] - target, xtol=1e-12)
    return db_to_linear(root_db)
