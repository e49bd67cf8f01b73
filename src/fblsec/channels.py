"""Fading-channel samplers and array geometry feeding the simulators.

Channels are complex coefficient vectors, one entry per antenna, with
unit average power per entry (E||h||^2 = N). The array model is a
uniform linear array at half-wavelength spacing; line-of-sight structure
enters through its steering vector. Every sampler is deterministic given
its RngSeed, whose keyed stream it starts afresh, and prefix-stable:
row t of a (size, N) batch is the same for every size, and a single
vector equals row 0, so a simulator draws all its trials in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngSeed, _as_count

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True, slots=True)
class RicianSpec:
    """Rician fading description: LOS weight, LOS direction, array size.

    k_factor is the LOS-to-scatter power ratio (0 = pure Rayleigh,
    math.inf = pure LOS); total power stays normalized to E||h||^2 = N.
    """

    k_factor: float
    aoa_radians: float
    n_antennas: int

    def __post_init__(self):
        if math.isnan(self.k_factor) or self.k_factor < 0.0:
            raise ValueError(f"k_factor must be >= 0, got {self.k_factor!r}")
        if not abs(self.aoa_radians) < math.pi / 2:
            raise ValueError(
                f"angle of arrival must lie in (-pi/2, pi/2), got {self.aoa_radians!r}"
            )
        _check_antennas(self.n_antennas)


def _check_sigma_delta(sigma_delta) -> float:
    v = float(sigma_delta)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"sigma_delta must be finite and >= 0, got {v!r}")
    return v


def _check_antennas(n) -> int:
    n = _as_count(n, "n_antennas")
    if n < 1:
        raise ValueError(f"n_antennas must be >= 1, got {n}")
    return n


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # Circularly-symmetric, unit variance per entry (real/imag at 1/2 each).
    # Real and imaginary parts are drawn interleaved, entry by entry, which
    # makes every batch a prefix of any larger one.
    pairs = rng.standard_normal((*shape, 2))
    return pairs.view(np.complex128)[..., 0] * _SQRT_HALF


def sample_rayleigh(n_antennas: int, seed: RngSeed, size: int | None = None) -> np.ndarray:
    """I.i.d. circularly-symmetric complex normal coefficients, unit power each.

    Returns one length-N vector, or a (size, N) batch drawn from the same
    substream when ``size`` is given.
    """
    n = _check_antennas(n_antennas)
    shape = (n,) if size is None else (int(size), n)
    return _complex_normal(seed.generator(), shape)


def steering_vector(aoa_radians, n_antennas: int) -> np.ndarray:
    """Half-wavelength ULA response a_k = exp(i*pi*k*sin(theta)), k = 0..N-1.

    Unit-modulus entries, so ||a||^2 = N exactly. An array of angles gives
    one response per angle along a new last axis.
    """
    aoa = np.asarray(aoa_radians, dtype=float)
    if not np.all(np.abs(aoa) < math.pi / 2):
        raise ValueError(f"angle of arrival must lie in (-pi/2, pi/2), got {aoa_radians!r}")
    n = _check_antennas(n_antennas)
    return np.exp(1j * math.pi * np.sin(aoa)[..., np.newaxis] * np.arange(n))


def sample_rician(spec: RicianSpec, seed: RngSeed, size: int | None = None) -> np.ndarray:
    """LOS-plus-scatter channel sqrt(K/(K+1)) a(theta) + sqrt(1/(K+1)) w."""
    los = steering_vector(spec.aoa_radians, spec.n_antennas)
    if math.isinf(spec.k_factor):
        return los.copy() if size is None else np.tile(los, (int(size), 1))
    scatter = sample_rayleigh(spec.n_antennas, seed, size=size)
    k = spec.k_factor
    return math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * scatter


def apply_reciprocity_error(h_d: np.ndarray, sigma_delta: float, seed: RngSeed) -> np.ndarray:
    """Uplink channel h_d + delta under an additive uplink/downlink
    calibration mismatch: delta is complex normal with standard deviation
    sigma_delta per coefficient.

    h_d may be one vector or a (trials, N) batch. sigma_delta = 0 returns
    an exact copy of h_d and draws nothing.
    """
    h_d = np.asarray(h_d)
    sigma_delta = _check_sigma_delta(sigma_delta)
    if sigma_delta == 0.0:
        return h_d.copy()
    return h_d + sigma_delta * _complex_normal(seed.generator(), h_d.shape)
