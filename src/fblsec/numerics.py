"""Special functions, binomial tails, a root-finder and reproducible random streams.

Everything here is pure: identical inputs (seeds included) give bit-identical
outputs, and concurrent use is safe. The one state kept between calls is a
table of log k!, grown on demand; it holds values of a pure function, so no
result depends on what was called before. numpy is the only dependency
outside the standard library, which supplies the normal quantile.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

_SQRT2 = math.sqrt(2.0)
_U64 = 2**64
#: The standard normal quantile Phi^-1.
_NORMAL_QUANTILE = NormalDist().inv_cdf
#: brent_root's relative tolerance (the smallest SciPy accepts) and iteration cap.
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100
#: np.exp gives exactly 0.0 below this argument (its result underflows
#: below -745.13), so binomial sums skip exp on such terms.
_EXP_ZERO_BELOW = -746.0


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

    Q^-1(p) = -Phi^-1(p), with the standard normal quantile Phi^-1 of
    statistics.NormalDist, Wichura's AS241 (at most 7 ulp from
    scipy.special.ndtri on 60,137 probe points across the interval).
    q_func(q_func_inv(p)) reproduces p to better than 1e-9 relative over
    p in [1e-12, 1 - 1e-12].
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_func_inv requires 0 < p < 1, got {p!r}")
    # 0.0 - x rather than -x, so that p = 0.5 gives +0.0, not -0.0.
    return 0.0 - _NORMAL_QUANTILE(p)


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p).

    Each term is taken from its log (lgamma-based), which stays stable
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
    return min(1.0, _binomial_sum(n, np.arange(k + 1))(p))


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x.tolist()), float, len(x))


#: log k! for k = 0, 1, ..., len - 1; _log_factorials grows it, up to
#: _LOG_FACTORIALS_MAX entries (8 MB).
_LOG_FACTORIALS = np.zeros(1)
_LOG_FACTORIALS_MAX = 2**20


def _log_factorials(n: int) -> np.ndarray:
    """A table of log k! = lgamma(k + 1) that covers k = 0 .. n, for n < _LOG_FACTORIALS_MAX.

    The table is shared by every n and grows, at least doubling, when an n
    beyond it is asked for. Growth builds a new array and then replaces the
    old one, so a concurrent caller sees either table, and both are right.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if n >= len(table):
        size = min(max(n + 1, 2 * len(table)), _LOG_FACTORIALS_MAX)
        table = np.concatenate([table, _lgamma(np.arange(len(table) + 1, size + 1, dtype=float))])
        _LOG_FACTORIALS = table
    return table


def _log_binomial_coef(j: np.ndarray, n: int) -> np.ndarray:
    """log C(n, j) for an integer array j in [0, n], as log n! - log j! - log (n - j)!.

    Each log k! is read from _log_factorials, or for an n beyond it taken
    from math.lgamma directly, so the memory stays bounded by the size of j
    (binomial_cdf needs only k + 1 terms of a block of any n). Either way
    the result is bit-identical to
    lgamma(n + 1.0) - lgamma(j + 1.0) - lgamma(n - j + 1.0).
    """
    if n < _LOG_FACTORIALS_MAX:
        table = _log_factorials(n)
        return table[n] - table[j] - table[n - j]
    return math.lgamma(n + 1.0) - _lgamma(j + 1.0) - _lgamma(n - j + 1.0)


def _binomial_log_pmf(
    j: np.ndarray,
    n_minus_j: np.ndarray,
    p: float,
    log_coef: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """log P(X = j) for X ~ Binomial(n, p), 0 < p < 1, given n - j and log_coef = log C(n, j).

    Evaluates log_coef + j log(p) + (n - j) log1p(-p), left to right. The
    coefficients do not depend on p, so a search over p computes them once,
    and with ``out`` and ``scratch`` (float arrays shaped like j) it
    allocates nothing either; the result is in ``out``.
    """
    out = np.multiply(j, math.log(p), out=out)
    np.add(log_coef, out, out=out)
    return np.add(out, np.multiply(n_minus_j, math.log1p(-p), out=scratch), out=out)


def _binomial_sum(n: int, counts: np.ndarray, weights: np.ndarray | None = None) -> Callable[[float], float]:
    """p -> the sum over an ascending integer array of counts j of P(X = j), X ~ Binomial(n, p),
    0 < p < 1, each term times its weight if float weights shaped like counts are given.
    Everything that does not depend on p is computed once, and the buffers allocated
    once, which makes one sum unsafe to call from two threads at once."""
    log_coef = _log_binomial_coef(counts, n)
    j = counts.astype(float)  # float, so no step converts the counts
    n_minus_j = n - j
    size = len(j)
    terms, scratch = np.empty(size), np.empty(size)
    live = np.empty(size, dtype=bool)
    live_reversed = live[::-1]

    def total(p: float) -> float:
        _binomial_log_pmf(j, n_minus_j, p, log_coef, terms, scratch)
        # The terms weight * exp(log pmf), taking exp only from the first to
        # the last log pmf at or above _EXP_ZERO_BELOW: below it exp is
        # exactly 0.0, at many times the cost of a normal result. The sum
        # still runs over the whole buffer, because numpy's pairwise
        # summation groups the terms by position and length.
        np.greater_equal(terms, _EXP_ZERO_BELOW, out=live)
        lo = live.argmax()
        hi = size - live_reversed.argmax() if live[lo] else lo
        if lo:
            terms[:lo] = 0.0
        if hi < size:
            terms[hi:] = 0.0
        kept = terms[lo:hi]
        np.exp(kept, out=kept)
        if weights is not None:
            np.multiply(weights[lo:hi], kept, out=kept)
        return float(np.add.reduce(terms))

    return total


def brent_root(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, xtol: float
) -> float:
    """A root of f in [a, b] by Brent's method, given fa = f(a) and fb = f(b) of opposite signs.

    Brent (1973), "Algorithms for Minimization without Derivatives", ch. 4,
    in the variant of SciPy's C solver: the same steps, the same stopping
    test |step| < (xtol + 4 eps |x|) / 2 and the same 100-iteration cap, so
    past the two ends its iterates and result are those of SciPy's Brent
    root-finder. An exact zero at either end is returned as is. f must
    return finite values. Raises ValueError when fa and fb have the same
    sign, and RuntimeError when the cap is reached.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f(a) and f(b) must have different signs, got {fpre!r} and {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        # C's signbit, for the nonzero values compared here, is < 0.
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step through three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"brent_root did not converge in {_BRENT_MAXITER} iterations; last x = {xcur!r}")


def _as_count(value, name: str) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    i = int(value)
    if i != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return i


def _mean(column: np.ndarray) -> float:
    """Mean of a simulator column, nan if empty: the share of true entries of a
    boolean column, else the math.fsum sum, rounded once, over the length."""
    n = len(column)
    if not n:
        return math.nan
    if column.dtype == bool:
        return int(np.count_nonzero(column)) / n
    try:
        return math.fsum(column.tolist()) / n
    except OverflowError:  # a partial sum passed the largest double; 2^-64 scales it exactly
        return math.fsum(np.ldexp(column, -64).tolist()) / n * 2.0**64


def _best(curve: list[tuple[float, float]]) -> float:
    """Value of the highest objective in (value, objective) pairs; ties go to the smaller value."""
    return max(curve, key=lambda pair: (pair[1], -pair[0]))[0]


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
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= int(v) < _U64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def stream(self, stream_id: int) -> "RngSeed":
        """Sibling seed with the same master and a different stream id."""
        return RngSeed(self.master_seed, stream_id % _U64)

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator keyed by (master_seed, stream_id)."""
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
