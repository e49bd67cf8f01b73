"""Special functions, binomial tails, and reproducible random streams.

Everything here is pure: identical inputs (seeds included) give bit-identical
outputs, no function keeps hidden state, and concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, ndtri

_SQRT2 = math.sqrt(2.0)
_U64 = 2**64


class UnsatisfiableError(ValueError):
    """A monotone root-find has no solution inside its search bracket."""


def q_func(x: float) -> float:
    """Gaussian upper-tail probability Q(x) = P(Z > x), Z standard normal.

    Strictly decreasing, with Q(x) + Q(-x) = 1. Backed by the C library
    erfc, which is accurate to a few ulp over the whole double range.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"q_func requires a finite argument, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_func_inv(p: float) -> float:
    """Inverse of q_func: the x with Q(x) = p, for p strictly inside (0, 1).

    Q^-1(p) = -Phi^-1(p), with the standard normal quantile Phi^-1 from
    scipy.special.ndtri. q_func(q_func_inv(p)) reproduces p to better than
    1e-9 relative over p in [1e-12, 1 - 1e-12].
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_func_inv requires 0 < p < 1, got {p!r}")
    # 0.0 - x rather than -x, so that p = 0.5 gives +0.0, not -0.0.
    return 0.0 - float(ndtri(p))


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p).

    Terms are accumulated in log space (lgamma-based), which stays stable
    up to n ~ 1e5 where direct binomial coefficients overflow.
    """
    n = _as_count(n, "n")
    if n < 1:
        raise ValueError(f"binomial_cdf requires n >= 1, got {n}")
    k = _as_count(k, "k")
    if not 0 <= k <= n:
        raise ValueError(f"binomial_cdf requires 0 <= k <= n, got k={k}, n={n}")
    p = float(p)
    if not 0.0 <= p <= 1.0 or math.isnan(p):
        raise ValueError(f"binomial_cdf requires p in [0, 1], got {p!r}")
    if p == 0.0 or k == n:
        return 1.0
    if p == 1.0:
        return 0.0
    log_pmf = _binomial_log_pmf(np.arange(k + 1), n, p)
    return float(min(1.0, math.exp(logsumexp(log_pmf))))


def _binomial_log_pmf(j: np.ndarray, n: int, p: float) -> np.ndarray:
    """log P(X = j) for X ~ Binomial(n, p), 0 < p < 1, from lgamma."""
    return (
        gammaln(n + 1.0)
        - gammaln(j + 1.0)
        - gammaln(n - j + 1.0)
        + j * math.log(p)
        + (n - j) * math.log1p(-p)
    )


def _as_count(value, name: str) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    i = int(value)
    if i != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return i


@dataclass(frozen=True, slots=True)
class RngSeed:
    """Identifier of one keyed random substream.

    The same (master_seed, stream_id) pair always reproduces the same
    sample sequence; distinct stream_ids give independent streams of the
    same master seed, so each role of a simulation draws from its own
    stream and no role's draws depend on another's.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < _U64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def stream(self, stream_id: int) -> "RngSeed":
        """Sibling seed with the same master and a different stream id."""
        return RngSeed(self.master_seed, stream_id % _U64)

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator keyed by (master_seed, stream_id)."""
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _as_rng(seed: "RngSeed | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return seed.generator()


def sample_standard_normal(seed: RngSeed, count: int) -> np.ndarray:
    """`count` i.i.d. standard normal draws from the given substream."""
    count = _as_count(count, "count")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return _as_rng(seed).standard_normal(count)


def sample_uniform(seed: RngSeed, count: int) -> np.ndarray:
    """`count` i.i.d. uniform [0, 1) draws from the given substream."""
    count = _as_count(count, "count")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return _as_rng(seed).random(count)
