"""BER-based secrecy metrics for codes known only by correction capability.

A code here is just (n_bits, t): block size and the number of bit errors
it is guaranteed to correct. Bit flips are modeled by BPSK hard decisions
over AWGN, i.e. a binary symmetric channel with crossover Q(sqrt(2*SNR)).
From t alone one gets the bit-error CDF, the block error probability, a
bounded-distance estimate of the post-decoding BER, and from those the
BER security gap between a near-zero BER ceiling at the legitimate
receiver and a near-0.5 BER floor at the eavesdropper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fb_coding import SNR_BRACKET_DB, _check_snr, _snr_root, db_to_linear, linear_to_db
from .numerics import _SQRT2, UnsatisfiableError, _as_count, _binomial_sum, binomial_cdf
from .secrecy import SecurityGap


@dataclass(frozen=True, slots=True)
class CodeSpec:
    """A block code abstracted to (block size in bits, correction capability)."""

    n_bits: int
    t: int

    def __post_init__(self):
        n = _as_count(self.n_bits, "n_bits")
        t = _as_count(self.t, "t")
        if n < 1:
            raise ValueError(f"n_bits must be >= 1, got {n}")
        if not 0 <= t <= n:
            raise ValueError(f"t must lie in [0, n_bits], got t={t}, n_bits={n}")


@dataclass(frozen=True, slots=True)
class BerThresholds:
    """Post-decoding BER ceiling at Bob and floor at Eve."""

    p_ber_max_b: float
    p_ber_min_e: float

    def __post_init__(self):
        if not 0.0 < self.p_ber_max_b < self.p_ber_min_e <= 0.5:
            raise ValueError(
                "thresholds must satisfy 0 < p_ber_max_b < p_ber_min_e <= 0.5, "
                f"got ({self.p_ber_max_b!r}, {self.p_ber_min_e!r})"
            )


@dataclass(frozen=True, slots=True)
class BerSecurityGap(SecurityGap):
    """SNR thresholds from BER constraints and their ratio.

    ``bob_at_bracket_edge`` / ``eve_at_bracket_edge`` mark a threshold met at
    the low end of the search bracket (Bob's BER is already low enough there,
    or Eve's floor is reached only at zero SNR), so the returned SNR is that
    end, not a root. At the high end every code's BER is exactly 0.
    """

    bob_at_bracket_edge: bool = False
    eve_at_bracket_edge: bool = False


def bsc_crossover(gamma: float) -> float:
    """Hard-decision bit flip probability Q(sqrt(2*gamma)) for BPSK over AWGN.

    q_func's formula without its finiteness check, so where 2*gamma
    overflows (gamma above about 8.99e307) the result is erfc(inf) = 0.0.
    """
    gamma = _check_snr(gamma)
    return 0.5 * math.erfc(math.sqrt(2.0 * gamma) / _SQRT2)


def _check_prob(p: float, name: str = "p") -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0 or math.isnan(p):
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return p


def be_cdf(code: CodeSpec, p: float, k: int) -> float:
    """Bit-error CDF: probability of at most k flips in a block at flip rate p."""
    return binomial_cdf(k, code.n_bits, _check_prob(p))


def block_error_prob(code: CodeSpec, p: float) -> float:
    """Probability that more than t flips occur, i.e. decoding fails; summed
    over j = t+1..n, not taken as 1 - be_cdf, so it keeps its relative accuracy."""
    n, t, p = code.n_bits, code.t, _check_prob(p)
    if p == 0.0 or t == n:
        return 0.0
    if p == 1.0:
        return 1.0
    return min(1.0, _binomial_sum(n, np.arange(t + 1, n + 1))(p))


def post_decoding_ber(code: CodeSpec, p: float) -> float:
    """Average post-decoding bit error rate under bounded-distance decoding.

    When j > t flips occur the decoder fails and is charged at most t
    additional wrong bits:

        (1/n) * sum_{j=t+1..n} min(n, j + t) * P(X = j),  X ~ Binomial(n, p).

    Nondecreasing in p, equal to p exactly for an uncoded block (t = 0).
    """
    return _ber_curve(code)(_check_prob(p))


def _ber_curve(code: CodeSpec) -> Callable[[float], float]:
    """post_decoding_ber(code, .) for a checked p, with everything that does
    not depend on p, the bit-error weights min(n, j + t) included, computed
    once (see _binomial_sum). Every public call builds its own curve.
    """
    n, t = code.n_bits, code.t
    counts = np.arange(t + 1, n + 1)
    weighted_sum = _binomial_sum(n, counts, np.minimum(n, counts + float(t)))

    def ber(p: float) -> float:
        if p == 0.0 or t == n:
            return 0.0
        if t == 0:
            return p  # uncoded: the sum telescopes to E[X]/n
        if p == 1.0:
            return 1.0  # all n bits flip, decoding fails, min(n, n + t) = n
        return min(1.0, weighted_sum(p) / n)

    return ber


def _crossover_at_db(snr_db: float) -> float:
    """bsc_crossover(db_to_linear(snr_db)) for snr_db in SNR_BRACKET_DB.

    The same operations without the argument checks, which every SNR of
    the bracket passes, so a root-find checks nothing per step.
    """
    return 0.5 * math.erfc(math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)) / _SQRT2)


def ber_security_gap(code: CodeSpec, thresholds: BerThresholds) -> BerSecurityGap:
    """Security gap SNR_b,min / SNR_e,max from post-decoding BER thresholds.

    Both thresholds are resolved by monotone root-finds of
    post_decoding_ber over SNR; a threshold met across an entire bracket
    side returns the bracket edge with the corresponding flag set.
    """
    ber = _ber_curve(code)

    def curve(snr_db: float) -> float:
        # Nonincreasing in SNR, and exactly 0.0 at the high bracket end.
        return ber(_crossover_at_db(snr_db))

    lo_db, hi_db = SNR_BRACKET_DB
    ends = (curve(lo_db), curve(hi_db))
    lo = db_to_linear(lo_db)
    # Smallest SNR with BER <= target (reliability side).
    bob_edge = ends[0] <= thresholds.p_ber_max_b
    snr_b_min = lo if bob_edge else _snr_root(curve, ends, thresholds.p_ber_max_b)
    # Largest SNR with BER >= target (security side), below the bracket when
    # even its low end falls short.
    target = thresholds.p_ber_min_e
    eve_edge = ends[0] < target
    if eve_edge:
        # The BER ceiling is its zero-SNR limit (flip rate 1/2), attained only
        # in that limit; the 1e-12 slack absorbs the lgamma rounding of the sum.
        ceiling = ber(0.5)
        if not target <= ceiling + 1e-12:
            raise UnsatisfiableError(
                f"security constraint (Eve): post-decoding BER never reaches "
                f"{target}; its ceiling at zero SNR is {ceiling:.6g}"
            )
    snr_e_max = lo if eve_edge else _snr_root(curve, ends, target)
    gap = snr_b_min / snr_e_max
    return BerSecurityGap(
        snr_b_min=snr_b_min,
        snr_e_max=snr_e_max,
        gap_linear=gap,
        gap_db=linear_to_db(gap),
        bob_at_bracket_edge=bob_edge,
        eve_at_bracket_edge=eve_edge,
    )
