"""Independent oracles the tests check the library against.

These deliberately avoid the code paths used by the package: the Gaussian
tail comes from adaptive quadrature of the density (not erfc), binomial
quantities from exact rational enumeration (not lgamma), small-block
counts from walking every error pattern, and the artificial-noise null
space from an SVD (not the package's closed-form leakage).
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from fblsec.channels import steering_vector


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
