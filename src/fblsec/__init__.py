"""Finite-blocklength physical-layer security toolkit.

Secrecy metrics for short-packet transmission (rate intervals, security
gaps, BER-based variants) and Monte Carlo evaluation of two transmission
schemes that need little or no channel state feedback: channel-inversion
power control and location-based beamforming with artificial noise.
"""

from .ber import (
    BerSecurityGap,
    BerThresholds,
    CodeSpec,
    be_cdf,
    ber_security_gap,
    block_error_prob,
    bsc_crossover,
    post_decoding_ber,
)
from .channels import (
    ReciprocityError,
    RicianSpec,
    apply_reciprocity_error,
    sample_rayleigh,
    sample_rician,
    steering_vector,
)
from .cipc import (
    CipcConfig,
    CipcResult,
    CipcSummary,
    QOptimum,
    optimize_q,
    run_cipc,
)
from .fb_coding import (
    ApproximationConfig,
    RateBound,
    capacity,
    db_to_linear,
    dispersion,
    error_probability,
    linear_to_db,
    max_rate,
)
from .lob import (
    AnOptimum,
    LobConfig,
    LobResult,
    LobSummary,
    optimize_an_fraction,
    run_lob,
)
from .numerics import (
    RngSeed,
    UnsatisfiableError,
    binomial_cdf,
    q_func,
    q_func_inv,
)
from .secrecy import (
    ConstraintPair,
    RateIntervals,
    SecrecyAssessment,
    SecurityGap,
    min_blocklength,
    r_inf,
    r_sup,
    rate_interval,
    rate_interval_batch,
    security_gap,
)

__version__ = "0.4.0"

__all__ = [
    "ApproximationConfig",
    "AnOptimum",
    "BerSecurityGap",
    "BerThresholds",
    "CipcConfig",
    "CipcResult",
    "CipcSummary",
    "CodeSpec",
    "ConstraintPair",
    "LobConfig",
    "LobResult",
    "LobSummary",
    "QOptimum",
    "RateBound",
    "RateIntervals",
    "ReciprocityError",
    "RicianSpec",
    "RngSeed",
    "SecrecyAssessment",
    "SecurityGap",
    "UnsatisfiableError",
    "apply_reciprocity_error",
    "be_cdf",
    "ber_security_gap",
    "binomial_cdf",
    "block_error_prob",
    "bsc_crossover",
    "capacity",
    "db_to_linear",
    "dispersion",
    "error_probability",
    "linear_to_db",
    "max_rate",
    "min_blocklength",
    "optimize_an_fraction",
    "optimize_q",
    "post_decoding_ber",
    "q_func",
    "q_func_inv",
    "r_inf",
    "r_sup",
    "rate_interval",
    "rate_interval_batch",
    "run_cipc",
    "run_lob",
    "sample_rayleigh",
    "sample_rician",
    "security_gap",
    "steering_vector",
    "__version__",
]
