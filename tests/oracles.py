"""Independent oracles the tests check the library against.

These deliberately avoid the code paths used by the package: the Gaussian
tail comes from adaptive quadrature of the density (not erfc), binomial
quantities from exact rational enumeration (not lgamma), small-block
counts from walking every error pattern, the artificial-noise null
space from an SVD (not the package's closed-form leakage), LOB's
zero-SINR policy from one scalar rate_interval, max_rate or r_inf call per
trial (not the package's array masks), and the three SNR and blocklength
searches with every step re-deriving its whole value from checked public
calls (or, for the post-decoding BER, from its own lgamma sum) and the
roots taken from scipy.optimize.brentq (not from constants computed once
per search and the package's Brent port), and CIPC's run statistics in
closed form from the Gamma law of the channel gain (not from draws).
The per-channel beams and inverted power of both simulators are kept here
as functions of a full channel vector, the reference a draw of reduced
statistics is checked against.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaincc

from fblsec import fb_coding
from fblsec.ber import BerSecurityGap, bsc_crossover
from fblsec.channels import steering_vector
from fblsec.cipc import CipcConfig
from fblsec.fb_coding import SNR_BRACKET_DB, db_to_linear, linear_to_db
from fblsec.numerics import UnsatisfiableError, q_func
from fblsec.secrecy import RateIntervals, SecurityGap, r_inf, rate_interval


def q_oracle(x: float) -> float:
    """Upper-tail normal probability by adaptive quadrature of the density."""
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    if x >= 0:
        value, _ = quad(density, x, np.inf, epsabs=1e-14, epsrel=1e-13)
        return value
    value, _ = quad(density, -np.inf, x, epsabs=1e-14, epsrel=1e-13)
    return 1.0 - value


def binomial_cdf_exact(k: int, n: int, p: Fraction) -> Fraction:
    """P(X <= k) as an exact rational, summing the pmf term by term."""
    total = Fraction(0)
    for j in range(k + 1):
        total += math.comb(n, j) * p**j * (1 - p) ** (n - j)
    return total


def binomial_cdf_patterns(k: int, n: int, p: Fraction) -> Fraction:
    """Same CDF by brute force over all 2^n error patterns (small n only)."""
    total = Fraction(0)
    for pattern in range(2**n):
        errors = pattern.bit_count()
        if errors <= k:
            total += p**errors * (1 - p) ** (n - errors)
    return total


def post_decoding_ber_exact(n: int, t: int, p: Fraction) -> Fraction:
    """Bounded-distance post-decoding BER as an exact rational expectation."""
    total = Fraction(0)
    for j in range(t + 1, n + 1):
        pmf = math.comb(n, j) * p**j * (1 - p) ** (n - j)
        total += min(n, j + t) * pmf
    return total / n


def an_basis(theta_hat: float, n_antennas: int) -> np.ndarray:
    """Orthonormal N x (N-1) basis of the steered beam's null space.

    Columns satisfy a(theta_hat)^H V = 0 and V^H V = I, so artificial
    noise injected through V never reaches a pure-LOS receiver at exactly
    theta_hat.
    """
    a = steering_vector(theta_hat, n_antennas)
    # The trailing right-singular vectors of the 1 x N matrix a^H span its null space.
    return np.linalg.svd(a.conj()[np.newaxis, :])[2][1:].conj().T


def cipc_beamformer(h_d: np.ndarray) -> np.ndarray:
    """Transmit beamformer conj(h_d)/||h_d||; unit norm by construction.

    A (trials, N) batch gives one beamformer per row.
    """
    h_d = np.asarray(h_d)
    gain = np.vecdot(h_d, h_d).real
    if np.any(gain == 0.0):
        raise ValueError("degenerate channel: cannot beamform on a zero vector")
    return h_d.conj() / np.sqrt(gain)[..., np.newaxis]


def cipc_power(h_known: np.ndarray, cfg: CipcConfig) -> np.ndarray:
    """Inverted transmit power Q/||h||^2 for the channel the transmitter knows.

    nan where the required power exceeds p_max (truncated inversion,
    trial suspended). A (trials, N) batch gives one power per row.
    """
    h_known = np.asarray(h_known)
    gain = np.vecdot(h_known, h_known).real
    if np.any(gain == 0.0):
        raise ValueError("degenerate channel: zero gain cannot be inverted")
    p_t = cfg.q_target / gain
    return np.where(p_t > cfg.p_max, np.nan, p_t)


def lob_beamformer(theta_hat, n_antennas: int) -> np.ndarray:
    """Unit-norm beam along the steering vector of the estimated bearing.

    An array of bearings gives one beam per bearing along a new last axis.
    """
    a = steering_vector(theta_hat, n_antennas)
    return a / math.sqrt(n_antennas)


def cipc_closed_form(cfg) -> tuple[float, float, float]:
    """(P(suspend), P(feasible | sent), E[gamma_e | sent]) of a CIPC run
    without reciprocity error, for N >= 2 antennas.

    With h_u = h_d Bob's SNR is fixed at Q / sigma_b^2. Eve's SNR is
    Q X / (sigma_e^2 G) with X = |g^H w|^2 ~ Exp(1) independent of the
    gain G = ||h_d||^2 ~ Gamma(N, 1), and a trial is sent iff G >= g0 =
    Q / p_max. It is feasible iff gamma_e <= gamma*, the root of
    r_inf(gamma*) = max_rate(Q / sigma_b^2), i.e. iff X <= s G with
    s = gamma* sigma_e^2 / Q. Integrating 1 - exp(-s G) and 1 / G against
    the Gamma density over G >= g0 gives the two conditional values.
    """
    assert cfg.sigma_delta == 0.0 and cfg.n_antennas_tx >= 2
    n_ant, q = cfg.n_antennas_tx, cfg.q_target
    n, cp, log_term = cfg.blocklength, cfg.constraints, cfg.log_term
    ceiling = fb_coding.max_rate(n, cp.beta_b, q / cfg.noise_power_bob, log_term)
    gamma_star = db_to_linear(
        brentq(lambda db: r_inf(n, cp.beta_e, db_to_linear(db), log_term) - ceiling,
               *SNR_BRACKET_DB, xtol=1e-12)
    )
    s = gamma_star * cfg.noise_power_eve / q
    g0 = q / cfg.p_max
    sent = gammaincc(n_ant, g0)
    feasible = 1.0 - (1.0 + s) ** -n_ant * gammaincc(n_ant, g0 * (1.0 + s)) / sent
    mean_gamma_e = q / cfg.noise_power_eve * gammaincc(n_ant - 1, g0) / (n_ant - 1) / sent
    return 1.0 - sent, feasible, mean_gamma_e


def assess_sinr_pair(n, sinr_bob, sinr_eve, constraints, log_term) -> RateIntervals:
    """LOB's assessment of one trial, zero SINRs included, from scalar calls.

    A receiver with no signal power decodes nothing: at Eve every rate is
    secure (floor zero); at Bob the trial is infeasible with a zero
    ceiling.
    """
    if sinr_bob > 0.0 and sinr_eve > 0.0:
        return rate_interval(n, sinr_bob, sinr_eve, constraints, log_term)
    if sinr_bob > 0.0:
        ceiling = fb_coding.max_rate(n, constraints.beta_b, sinr_bob, log_term)
        return RateIntervals(
            r_sup=ceiling,
            r_inf=0.0,
            delta_r=ceiling,
            feasible=True,
        )
    floor = r_inf(n, constraints.beta_e, sinr_eve, log_term) if sinr_eve > 0.0 else 0.0
    return RateIntervals(
        r_sup=0.0,
        r_inf=floor,
        delta_r=-floor,
        feasible=False,
    )


def error_probability_steps(n, rate, gamma, log_term) -> float:
    """error_probability with every check, from capacity and dispersion."""
    n = fb_coding._check_blocklength(n)
    rate = fb_coding._check_rate(rate)
    gamma = fb_coding._check_snr(gamma)
    v = fb_coding.dispersion(gamma)
    arg = math.sqrt(n / v) * (fb_coding.capacity(gamma) - rate + fb_coding._delta(n, log_term))
    return q_func(arg)


def security_gap_search(n, rate, constraints, log_term) -> SecurityGap:
    """security_gap by brentq over a residual that checks its inputs every step."""
    rate = float(rate)
    if not rate > 0.0:
        raise ValueError(f"security_gap requires rate > 0, got {rate!r}")
    lo_db, hi_db = SNR_BRACKET_DB

    def solve(target, side):
        def residual(snr_db):
            return error_probability_steps(n, rate, db_to_linear(snr_db), log_term) - target

        res_lo, res_hi = residual(lo_db), residual(hi_db)
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
        return db_to_linear(brentq(residual, lo_db, hi_db, xtol=1e-12))

    snr_b_min = solve(constraints.beta_b, "reliability constraint (Bob)")
    snr_e_max = solve(constraints.beta_e, "security constraint (Eve)")
    gap = snr_b_min / snr_e_max
    return SecurityGap(snr_b_min, snr_e_max, gap, linear_to_db(gap))


def post_decoding_ber_sum(n: int, t: int, p: float) -> float:
    """post_decoding_ber as the plain formula, recomputed for this p:
    (w * exp(log C(n, j) + j log(p) + (n - j) log1p(-p))).sum() / n over
    every j > t, with w = min(n, j + t) and log C(n, j) from math.lgamma,
    as the package takes it; exp is taken on every term, however small."""
    if p == 0.0 or t == n:
        return 0.0
    if t == 0:
        return p
    if p == 1.0:
        return 1.0
    j = np.arange(t + 1, n + 1)
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    log_pmf = (
        math.lgamma(n + 1.0)
        - lgamma(j + 1.0)
        - lgamma(n - j + 1.0)
        + j * math.log(p)
        + (n - j) * math.log1p(-p)
    )
    weighted = np.minimum(n, j + t) * np.exp(log_pmf)
    return float(min(1.0, weighted.sum() / n))


def ber_security_gap_search(code, thresholds) -> BerSecurityGap:
    """ber_security_gap by brentq over post_decoding_ber_sum."""
    n, t = code.n_bits, code.t
    lo_db, hi_db = SNR_BRACKET_DB
    lo, hi = db_to_linear(lo_db), db_to_linear(hi_db)

    def ber_at(snr):
        return post_decoding_ber_sum(n, t, bsc_crossover(snr))

    def solve(target, want_at_most, side):
        ber_lo, ber_hi = ber_at(lo), ber_at(hi)
        if want_at_most:
            if ber_lo <= target:
                return lo, True
            if ber_hi > target:
                raise UnsatisfiableError(
                    f"{side}: post-decoding BER stays above {target} across the "
                    f"whole SNR bracket [{lo_db}, {hi_db}] dB"
                )
        else:
            if ber_hi >= target:
                return hi, True
            if ber_lo < target:
                ceiling = post_decoding_ber_sum(n, t, 0.5)
                if target <= ceiling + 1e-12:
                    return lo, True
                raise UnsatisfiableError(
                    f"{side}: post-decoding BER never reaches {target}; its "
                    f"ceiling at zero SNR is {ceiling:.6g}"
                )
        root_db = brentq(lambda snr_db: ber_at(db_to_linear(snr_db)) - target, lo_db, hi_db, xtol=1e-12)
        return db_to_linear(root_db), False

    snr_b_min, bob_edge = solve(thresholds.p_ber_max_b, True, "reliability constraint (Bob)")
    snr_e_max, eve_edge = solve(thresholds.p_ber_min_e, False, "security constraint (Eve)")
    gap = snr_b_min / snr_e_max
    return BerSecurityGap(snr_b_min, snr_e_max, gap, linear_to_db(gap), bob_edge, eve_edge)


def min_blocklength_search(gamma_b, gamma_e, constraints, log_term, n_max):
    """min_blocklength with one full rate_interval call per probed n."""
    n_max = fb_coding._check_blocklength(n_max)

    def feasible(n):
        return rate_interval(n, gamma_b, gamma_e, constraints, log_term).feasible

    if feasible(1):
        return 1
    if n_max == 1:
        return None
    lo, hi = 1, 2
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


def exact_outcome(call, *args):
    """What call(*args) gives, floats as float.hex, or the error it raises.

    Warnings are silenced, so that calls on inverted or beyond-guessing
    constraints compare too.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = call(*args)
    except ValueError as error:  # UnsatisfiableError included
        return type(error).__name__, str(error)
    values = dataclasses.astuple(result) if dataclasses.is_dataclass(result) else (result,)
    return tuple(v.hex() if isinstance(v, float) else v for v in values)
