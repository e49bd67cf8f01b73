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
from .fb_coding import SNR_BRACKET_DB, db_to_linear, linear_to_db
from .numerics import UnsatisfiableError, q_func_inv


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


class RateIntervals(NamedTuple):
    """Rate interval of (n, gamma_b, gamma_e, constraints) scenarios: floats
    for one scenario, columns for many.

    delta_r = r_sup - r_inf; a scenario is feasible iff delta_r >= 0. A
    scenario whose raw rate ceiling was negative (no usable rate at all)
    is reported with r_sup = 0.0, as max_rate clamps it.
    """

    r_sup: float | np.ndarray
    r_inf: float | np.ndarray
    delta_r: float | np.ndarray
    feasible: bool | np.ndarray


@dataclass(frozen=True, slots=True)
class SecurityGap:
    """SNR thresholds at a fixed rate and their ratio (the security gap)."""

    snr_b_min: float
    snr_e_max: float
    gap_linear: float
    gap_db: float


def r_inf(n: int, beta_e: float, gamma_e: float, log_term: bool = False) -> float:
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
    return fb_coding._rate_bound(n, beta_e, gamma_e, log_term)


def _warn_if_beyond_guessing(beta_e: float, stacklevel: int) -> None:
    if beta_e > 0.5:
        warnings.warn(
            f"beta_e={beta_e} > 0.5 requires the eavesdropper to decode worse "
            "than a blind guess; the resulting rate floor exceeds the "
            "eavesdropper capacity",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def rate_interval(n: int, gamma_b: float, gamma_e: float, constraints: ConstraintPair,
                  log_term: bool = False) -> RateIntervals:
    """Assemble the rate interval and its feasibility for one scenario.

    As n grows the interval converges to the capacity difference
    C_b - C_e at rate O(1/sqrt(n)).
    """
    ceiling = fb_coding.max_rate(n, constraints.beta_b, gamma_b, log_term)
    floor = r_inf(n, constraints.beta_e, gamma_e, log_term)
    delta_r = ceiling - floor
    return RateIntervals(ceiling, floor, delta_r, delta_r >= 0.0)


def rate_interval_batch(n: int, gamma_b, gamma_e, constraints: ConstraintPair,
                        log_term: bool = False) -> RateIntervals:
    """rate_interval over equal-shape arrays of Bob and Eve SNRs, as arrays
    of that shape (columns, for 1-D input).

    Unlike the scalar call it accepts SNRs of exactly zero, as the physical
    limit: a receiver with no signal power decodes nothing. At Eve every
    rate is then secure (floor zero); at Bob the reliability target is
    unreachable, so the entry is infeasible with a zero ceiling and
    delta_r = -r_inf. Every other entry is bit-identical to the scalar
    rate_interval of its SNR pair: the same checks and messages, the same
    float operations in the same order, Qinv evaluated once per constraint.
    The beta_e > 0.5 warning is emitted once per call, and only when some
    Eve SNR is nonzero.
    """
    n = fb_coding._check_blocklength(n)
    gamma_b, gamma_e = np.asarray(gamma_b, dtype=float), np.asarray(gamma_e, dtype=float)
    if gamma_b.shape != gamma_e.shape:
        raise ValueError(f"SNR arrays differ in shape: {gamma_b.shape} vs {gamma_e.shape}")
    bob_on = fb_coding._check_snrs(gamma_b) > 0.0
    raw = fb_coding._rate_bound_batch(n, constraints.beta_b, gamma_b, log_term)
    r_sup = np.where(~bob_on | (raw < 0.0), 0.0, raw)
    eve_on = fb_coding._check_snrs(gamma_e) > 0.0
    if eve_on.any():
        _warn_if_beyond_guessing(constraints.beta_e, stacklevel=3)
    if constraints.beta_e == 1.0:
        floor = np.full(gamma_e.shape, math.inf)
    else:
        floor = fb_coding._rate_bound_batch(n, constraints.beta_e, gamma_e, log_term)
    floor = np.where(eve_on, floor, 0.0)
    delta = np.where(bob_on, r_sup - floor, -floor)
    return RateIntervals(r_sup, floor, delta, bob_on & (delta >= 0.0))


def _simulated_intervals(cfg, gamma_b, gamma_e, powers: dict, source: str,
                         overflowed: bool = False) -> RateIntervals:
    """rate_interval_batch of a simulator's SNR columns under its config. A
    refused run names the input at fault: an inf in a named power column
    blames the inputs in source, an inf SNR its noise power. overflowed
    says that computing the columns overflowed somewhere; the power columns
    of such a run are scanned even when every SNR is accepted, since an
    interference power of inf reads as an SNR of 0."""
    try:
        intervals = rate_interval_batch(cfg.blocklength, gamma_b, gamma_e, cfg.constraints, cfg.log_term)
        if not overflowed:
            return intervals
        refused = None
    except ValueError as error:
        refused = error
    for what, power in powers.items():
        if np.isinf(power).any():
            raise ValueError(f"{what} overflows to inf: at {source} it exceeds the largest double")
    if refused is None:
        return intervals
    for who, gamma in (("Bob", gamma_b), ("Eve", gamma_e)):
        name = f"noise_power_{who.lower()}"
        if np.isinf(gamma).any():
            raise ValueError(f"{who}'s SNR overflows to inf: the received power over "
                             f"{name}={getattr(cfg, name)!r} exceeds the largest double")
    raise refused


def security_gap(n: int, rate: float, constraints: ConstraintPair,
                 log_term: bool = False) -> SecurityGap:
    """SNR_b,min / SNR_e,max at a fixed rate and blocklength.

    snr_b_min is the smallest SNR meeting the reliability constraint
    (error probability <= beta_b); snr_e_max is the largest SNR preserving
    the security constraint (error probability >= beta_e). Both come from
    root-finds of error_probability over SNR_BRACKET_DB, which share its
    values at the bracket ends; a missing root raises UnsatisfiableError
    naming the violated side.
    """
    rate = float(rate)
    if not rate > 0.0:
        raise ValueError(f"security_gap requires rate > 0, got {rate!r}")
    n = fb_coding._check_blocklength(n)
    rate = fb_coding._check_rate(rate)
    delta = fb_coding._delta(n, log_term)

    def curve(snr_db: float) -> float:
        # Strictly decreasing in SNR, so a root in the bracket is unique.
        return fb_coding._error_probability(n, rate, db_to_linear(snr_db), delta)

    lo_db, hi_db = SNR_BRACKET_DB
    ends = (curve(lo_db), curve(hi_db))
    snrs = []
    for target, side in ((constraints.beta_b, "reliability constraint (Bob)"),
                         (constraints.beta_e, "security constraint (Eve)")):
        if ends[0] < target:
            raise UnsatisfiableError(
                f"{side}: error probability is already below {target} at the "
                f"{lo_db} dB end of the search bracket"
            )
        if ends[1] > target:
            raise UnsatisfiableError(
                f"{side}: error probability stays above {target} even at the "
                f"{hi_db} dB end of the search bracket"
            )
        snrs.append(fb_coding._snr_root(curve, ends, target))
    snr_b_min, snr_e_max = snrs
    gap = snr_b_min / snr_e_max
    return SecurityGap(
        snr_b_min=snr_b_min,
        snr_e_max=snr_e_max,
        gap_linear=gap,
        gap_db=linear_to_db(gap),
    )


def min_blocklength(gamma_b: float, gamma_e: float, constraints: ConstraintPair,
                    log_term: bool = False, n_max: int = 10**7) -> int | None:
    """Smallest blocklength n <= n_max whose rate interval is feasible.

    Returns None when no such n exists. delta_r(n) is monotone in n (it
    has the form constant + kappa / sqrt(n)), so an exponential bracket
    followed by a binary search finds the crossover exactly. Warns once
    per call, as rate_interval does, when beta_e > 0.5.
    """
    n_max = fb_coding._check_blocklength(n_max)
    # The n = 1 probe is rate_interval itself: it checks the SNRs and the
    # constraints with their usual messages, and warns once for beta_e > 0.5.
    if rate_interval(1, gamma_b, gamma_e, constraints, log_term).feasible:
        return 1
    if n_max == 1 or constraints.beta_e == 1.0:
        return None  # at beta_e = 1 the rate floor is +inf for every n
    cap_b, disp_b = fb_coding._cv(float(gamma_b))
    cap_e, disp_e = fb_coding._cv(float(gamma_e))
    q_b, q_e = q_func_inv(constraints.beta_b), q_func_inv(constraints.beta_e)

    def feasible(n: int) -> bool:
        # rate_interval(n, gamma_b, gamma_e, constraints, log_term).feasible,
        # by the same arithmetic on the parts that do not depend on n.
        delta = fb_coding._delta(n, log_term)
        r_sup = fb_coding._rate_from(n, cap_b, disp_b, q_b, delta)
        if r_sup < 0.0:
            r_sup = 0.0
        return r_sup - fb_coding._rate_from(n, cap_e, disp_e, q_e, delta) >= 0.0

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
