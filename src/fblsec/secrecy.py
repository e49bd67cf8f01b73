"""Short-packet secrecy metrics built on decoding-error probabilities.

A transmission over a wiretap link is judged by two error-probability
constraints: the legitimate receiver's decoding error must stay at or
below beta_b (reliability) while the eavesdropper's must stay at or above
beta_e (security). At blocklength n these induce a rate ceiling r_sup on
the main channel and a rate floor r_inf on the eavesdropper channel;
their difference delta_r = r_sup - r_inf is the usable rate interval, and
the scenario is feasible iff delta_r >= 0. The companion metric is the
security gap: the ratio of the smallest main-channel SNR meeting
reliability to the largest eavesdropper SNR preserving security, at a
fixed rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fb_coding
from .fb_coding import (
    ApproximationConfig,
    DEFAULT_APPROXIMATION,
    SNR_BRACKET_DB,
    db_to_linear,
    linear_to_db,
)
from .numerics import UnsatisfiableError


@dataclass(frozen=True, slots=True)
class ConstraintPair:
    """Decoding-error constraints: ceiling at Bob, floor at Eve.

    beta_b is the largest tolerable error probability on the main channel;
    beta_e is the smallest required error probability at the eavesdropper.
    The usual regime is 0 < beta_b < beta_e <= 1; anything else is
    accepted with a warning rather than rejected.
    """

    beta_b: float
    beta_e: float

    def __post_init__(self):
        if not 0.0 < self.beta_b < 1.0:
            raise ValueError(f"beta_b must lie in (0, 1), got {self.beta_b!r}")
        if not 0.0 < self.beta_e <= 1.0:
            raise ValueError(f"beta_e must lie in (0, 1], got {self.beta_e!r}")
        if not self.beta_b < self.beta_e:
            warnings.warn(
                f"beta_b={self.beta_b} >= beta_e={self.beta_e}: the reliability "
                "target is no stricter than the security target",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True, slots=True)
class SecrecyAssessment:
    """Rate interval of one (n, gamma_b, gamma_e, constraints) scenario.

    delta_r = r_sup - r_inf; the scenario is feasible iff delta_r >= 0.
    ``r_sup_clamped`` marks scenarios whose raw rate ceiling was negative
    (no usable rate at all); these are reported with r_sup = 0.
    """

    r_sup: float
    r_inf: float
    delta_r: float
    feasible: bool
    r_sup_clamped: bool = False


class RateIntervals(NamedTuple):
    """SecrecyAssessment fields as columns, one entry per scenario."""

    r_sup: np.ndarray
    r_inf: np.ndarray
    delta_r: np.ndarray
    feasible: np.ndarray
    r_sup_clamped: np.ndarray

    def assessments(self) -> list[SecrecyAssessment]:
        """One SecrecyAssessment per entry of 1-D columns, in order."""
        return list(map(SecrecyAssessment, *(column.tolist() for column in self)))


@dataclass(frozen=True, slots=True)
class SecurityGap:
    """SNR thresholds at a fixed rate and their ratio (the security gap)."""

    snr_b_min: float
    snr_e_max: float
    gap_linear: float
    gap_db: float


def r_sup(
    n: int,
    beta_b: float,
    gamma_b: float,
    cfg: ApproximationConfig = DEFAULT_APPROXIMATION,
) -> float:
    """Rate ceiling from the reliability constraint; increasing in n and gamma_b."""
    return fb_coding.max_rate(n, beta_b, gamma_b, cfg).rate


def r_inf(
    n: int,
    beta_e: float,
    gamma_e: float,
    cfg: ApproximationConfig = DEFAULT_APPROXIMATION,
) -> float:
    """Rate floor from the security constraint.

    C_e - sqrt(V_e/n) * Qinv(beta_e) + delta. At beta_e = 0.5 with the log
    term off this is exactly the eavesdropper capacity, independent of n;
    beta_e > 0.5 pushes the floor above that capacity (the eavesdropper is
    required to do worse than guessing) and is flagged with a warning.
    """
    n = fb_coding._check_blocklength(n)
    beta_e = float(beta_e)
    if not 0.0 < beta_e <= 1.0:
        raise ValueError(f"beta_e must lie in (0, 1], got {beta_e!r}")
    gamma_e = fb_coding._check_snr(gamma_e)
    _warn_if_beyond_guessing(beta_e, stacklevel=3)
    if beta_e == 1.0:
        return math.inf
    return fb_coding._rate_bound(n, beta_e, gamma_e, cfg)


def _warn_if_beyond_guessing(beta_e: float, stacklevel: int) -> None:
    if beta_e > 0.5:
        warnings.warn(
            f"beta_e={beta_e} > 0.5 requires the eavesdropper to decode worse "
            "than a blind guess; the resulting rate floor exceeds the "
            "eavesdropper capacity",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def rate_interval(
    n: int,
    gamma_b: float,
    gamma_e: float,
    constraints: ConstraintPair,
    cfg: ApproximationConfig = DEFAULT_APPROXIMATION,
) -> SecrecyAssessment:
    """Assemble the rate interval and its feasibility for one scenario.

    As n grows the interval converges to the capacity difference
    C_b - C_e at rate O(1/sqrt(n)).
    """
    ceiling = fb_coding.max_rate(n, constraints.beta_b, gamma_b, cfg)
    floor = r_inf(n, constraints.beta_e, gamma_e, cfg)
    delta = ceiling.rate - floor
    return SecrecyAssessment(
        r_sup=ceiling.rate,
        r_inf=floor,
        delta_r=delta,
        feasible=delta >= 0.0,
        r_sup_clamped=ceiling.clamped,
    )


def _ceilings(
    n: int, beta_b: float, gamma_b, cfg: ApproximationConfig
) -> tuple[np.ndarray, np.ndarray]:
    """max_rate over an SNR array, as (rates, clamped); the caller checks n and beta_b."""
    raw = fb_coding._rate_bound_batch(n, beta_b, fb_coding._check_snrs(gamma_b), cfg)
    clamped = raw < 0.0
    return np.where(clamped, 0.0, raw), clamped


def _floors(n: int, beta_e: float, gamma_e, cfg: ApproximationConfig) -> np.ndarray:
    """r_inf over an SNR array; the caller checks n and beta_e.

    Warns once, as r_inf does per call, when beta_e > 0.5 and there is at
    least one floor to compute.
    """
    gamma_e = fb_coding._check_snrs(gamma_e)
    if gamma_e.size:
        _warn_if_beyond_guessing(beta_e, stacklevel=4)
    if beta_e == 1.0:
        return np.full(gamma_e.shape, math.inf)
    return fb_coding._rate_bound_batch(n, beta_e, gamma_e, cfg)


def rate_interval_batch(
    n: int,
    gamma_b,
    gamma_e,
    constraints: ConstraintPair,
    cfg: ApproximationConfig = DEFAULT_APPROXIMATION,
) -> RateIntervals:
    """rate_interval over equal-shape arrays of Bob and Eve SNRs, as arrays
    of that shape (columns, for 1-D input).

    Every entry is bit-identical to the scalar rate_interval of its SNR
    pair: the same checks and messages, the same float operations in the
    same order, Qinv evaluated once per constraint. The beta_e > 0.5
    warning is emitted once per call, not once per scenario.
    """
    n = fb_coding._check_blocklength(n)
    gamma_b, gamma_e = np.asarray(gamma_b, dtype=float), np.asarray(gamma_e, dtype=float)
    if gamma_b.shape != gamma_e.shape:
        raise ValueError(f"SNR arrays differ in shape: {gamma_b.shape} vs {gamma_e.shape}")
    r_sup, clamped = _ceilings(n, constraints.beta_b, gamma_b, cfg)
    floor = _floors(n, constraints.beta_e, gamma_e, cfg)
    delta = r_sup - floor
    return RateIntervals(r_sup, floor, delta, delta >= 0.0, clamped)


def asymptotic_secrecy_capacity(gamma_b: float, gamma_e: float) -> float:
    """Large-n reference value max(0, C_b - C_e); not a short-packet metric."""
    return max(0.0, fb_coding.capacity(gamma_b) - fb_coding.capacity(gamma_e))


def _solve_snr_for_error_prob(
    n: int,
    rate: float,
    target: float,
    cfg: ApproximationConfig,
    side: str,
) -> float:
    # error_probability is strictly decreasing in SNR, so the root in the
    # bracket is unique when it exists. Solved in dB (log-SNR) space.
    lo_db, hi_db = SNR_BRACKET_DB

    def residual(snr_db: float) -> float:
        return fb_coding.error_probability(n, rate, db_to_linear(snr_db), cfg) - target

    res_lo = residual(lo_db)
    res_hi = residual(hi_db)
    if res_lo < 0.0:
        raise UnsatisfiableError(
            f"{side}: error probability is already below {target} at the "
            f"{lo_db} dB end of the search bracket"
        )
    if res_hi > 0.0:
        raise UnsatisfiableError(
            f"{side}: error probability stays above {target} even at the "
            f"{hi_db} dB end of the search bracket"
        )
    if res_lo == 0.0:
        return db_to_linear(lo_db)
    if res_hi == 0.0:
        return db_to_linear(hi_db)
    # Imported on first use: scipy.optimize pulls in scipy.linalg, sparse and
    # more, which the simulators and the rate metrics never need.
    from scipy.optimize import brentq

    root_db = brentq(residual, lo_db, hi_db, xtol=1e-12)
    return db_to_linear(root_db)


def security_gap(
    n: int,
    rate: float,
    constraints: ConstraintPair,
    cfg: ApproximationConfig = DEFAULT_APPROXIMATION,
) -> SecurityGap:
    """SNR_b,min / SNR_e,max at a fixed rate and blocklength.

    snr_b_min is the smallest SNR meeting the reliability constraint
    (error probability <= beta_b); snr_e_max is the largest SNR preserving
    the security constraint (error probability >= beta_e). Both come from
    root-finds of error_probability over SNR_BRACKET_DB; a missing root
    raises UnsatisfiableError naming the violated side.
    """
    rate = float(rate)
    if not rate > 0.0:
        raise ValueError(f"security_gap requires rate > 0, got {rate!r}")
    snr_b_min = _solve_snr_for_error_prob(
        n, rate, constraints.beta_b, cfg, "reliability constraint (Bob)"
    )
    snr_e_max = _solve_snr_for_error_prob(
        n, rate, constraints.beta_e, cfg, "security constraint (Eve)"
    )
    gap = snr_b_min / snr_e_max
    return SecurityGap(
        snr_b_min=snr_b_min,
        snr_e_max=snr_e_max,
        gap_linear=gap,
        gap_db=linear_to_db(gap),
    )


def min_blocklength(
    gamma_b: float,
    gamma_e: float,
    constraints: ConstraintPair,
    cfg: ApproximationConfig = DEFAULT_APPROXIMATION,
    n_max: int = 10**7,
) -> int | None:
    """Smallest blocklength n <= n_max whose rate interval is feasible.

    Returns None when no such n exists. delta_r(n) is monotone in n (it
    has the form constant + kappa / sqrt(n)), so an exponential bracket
    followed by a binary search finds the crossover exactly.
    """
    n_max = fb_coding._check_blocklength(n_max)

    def feasible(n: int) -> bool:
        return rate_interval(n, gamma_b, gamma_e, constraints, cfg).feasible

    if feasible(1):
        return 1
    if n_max == 1:
        return None
    lo = 1  # known infeasible
    hi = 2
    while hi < n_max and not feasible(hi):
        lo = hi
        hi = min(hi * 2, n_max)
    if not feasible(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
