"""Finite-blocklength physical-layer security toolkit.

Secrecy metrics for short-packet transmission (rate intervals, security
gaps, BER-based variants) and Monte Carlo evaluation of two transmission
schemes that need little or no channel state feedback: channel-inversion
power control and location-based beamforming with artificial noise.

Every public name is loaded on first use (PEP 562): ``import fblsec``
imports no submodule and no numpy, and ``fblsec.rate_interval`` imports
``fblsec.secrecy`` and what it needs, once.
"""

import importlib

__version__ = "0.4.1"

#: The public names of each submodule.
_EXPORTS = {
    "ber": ("BerSecurityGap", "BerThresholds", "CodeSpec", "be_cdf", "ber_security_gap",
            "block_error_prob", "bsc_crossover", "post_decoding_ber"),
    "channels": ("ReciprocityError", "RicianSpec", "apply_reciprocity_error", "sample_rayleigh",
                 "sample_rician", "steering_vector"),
    "cipc": ("CipcConfig", "CipcResult", "CipcSummary", "QOptimum", "optimize_q", "run_cipc"),
    "fb_coding": ("ApproximationConfig", "capacity", "db_to_linear", "dispersion",
                  "error_probability", "linear_to_db", "max_rate"),
    "lob": ("AnOptimum", "LobConfig", "LobResult", "LobSummary", "optimize_an_fraction", "run_lob"),
    "numerics": ("RngSeed", "UnsatisfiableError", "binomial_cdf", "q_func", "q_func_inv"),
    "secrecy": ("ConstraintPair", "RateIntervals", "SecrecyAssessment", "SecurityGap",
                "min_blocklength", "r_inf", "r_sup", "rate_interval", "rate_interval_batch",
                "security_gap"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_OWNER), "__version__"]


def __getattr__(name: str):
    """Import the submodule that owns ``name``, or submodule ``name`` itself,
    and bind the value here, so the next lookup does not come back."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
