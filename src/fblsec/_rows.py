"""The simulators' per-trial CSV rows: '%.12e' cells from one array kernel
per block of rows.

A block of rows is a byte matrix in which every byte that is not part of
the text is zero, so the text is its nonzero bytes in order.

``fblsec.cli`` imports this module only inside ``_cipc_rows`` and
``_lob_rows``, so its start-up and its other commands never load it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .cli import _sci

if TYPE_CHECKING:
    from .secrecy import RateIntervals


def _db_cells(linear: np.ndarray) -> np.ndarray:
    """linear_to_db of each value, by the same np.log10, and -inf for zero."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(linear)


#: A numeric cell is three 8-byte words: a zero byte, the sign (zero when
#: positive), the lead digit and '.'; 12 digits; 'e', the exponent and the
#: comma after the cell.
_CELL_BYTES = 24
#: Decimal exponents e whose scaling by 10**(12 - e) is exact below: the
#: power, its Dekker split and the value's split stay finite, and the low
#: part of the power stays normal. Values a decade or two inside, so that
#: log10's estimate, its retry and a carry stay in range, take the kernel;
#: the rest take _sci.
_E_MIN, _E_MAX = -280, 280
#: The kernel's distance to a rounding tie misses by less than 2**-52 (see
#: _SciCells); a value closer than this takes _sci.
_TIE_MARGIN = 2.0**-40
#: Dekker's splitting constant, 2**27 + 1.
_SPLIT = 134217729.0


def _cell(text: str) -> np.ndarray:
    """The words of a cell that holds text."""
    return np.frombuffer(f"\0{text},".encode().ljust(_CELL_BYTES, b"\0"), np.uint64)


@functools.cache
def _sci_tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built on first use from exact integers:
    - lead: the first 4 bytes of a cell, indexed by the lead digit d, or by
      d + 10 when the value is negative;
    - digits: the 4 digits of each of 0..9999;
    - tails: the last 8 bytes of a cell for each e from _E_MIN to _E_MAX;
    - powers: for each such e, the rows hi, hh, hl, lo: 10**(12 - e) as the
      double-double hi + lo, and hi's Dekker split hh + hl.
    """
    lead = b"".join(b"\0%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10))
    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
    exponents = range(_E_MIN, _E_MAX + 1)
    tails = b"".join(f"e{e:+03d},".encode().ljust(8, b"\0") for e in exponents)
    powers = []
    for e in exponents:
        num, den = (10 ** (12 - e), 1) if e <= 12 else (1, 10 ** (e - 12))
        hi = num / den  # int / int rounds correctly
        n, d = hi.as_integer_ratio()
        powers.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(powers).T
    hh = _SPLIT * hi - (_SPLIT * hi - hi)
    return (np.frombuffer(lead, np.uint32),
            (digits % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
            np.frombuffer(tails, np.uint64), np.array([hi, hh, hi - hh, lo]))


class _SciCells:
    """Writes '%.12e' % x for each x of an array into cells of _CELL_BYTES.

    |x| is scaled by 10**(12 - e), with e its decimal exponent, exactly: the
    power is a double-double and the product is Dekker's two-product. The 13
    significant digits are the scaled value rounded to an integer, ties to
    even as C's printf does. The buffers, for arrays of ``shape`` or of
    fewer rows, are allocated once and reused by every call.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.floats = np.empty((7, *shape))
        self.index = np.empty(shape, np.intp)
        self.flags = np.empty((3, *shape), bool)

    def __call__(self, x: np.ndarray, cells: np.ndarray) -> None:
        """Write the cells of x into cells, uint64 words of shape x.shape + (3,)."""
        m = len(x)
        a, p, t, u, v, w, power = self.floats[:, :m]
        ok, low, high = self.flags[:, :m]
        index = self.index[:m]
        lead, digits, tails, (hi, hh, hl, lo) = _sci_tables()
        np.abs(x, out=a)
        np.greater_equal(a, 10.0 ** (_E_MIN + 2), out=ok)
        ok &= a < 10.0 ** (_E_MAX - 1)
        np.copyto(a, 1.0, where=~ok)
        np.subtract(np.floor(np.log10(a, out=t), out=t), _E_MIN, out=index, casting="unsafe")
        for retry in (False, True):
            # a·hi = p + err exactly (Dekker's two-product), and the rounding
            # of q = a·lo and the error of hi + lo against 10**k are below
            # 2**-104·a·10**k < 2**-60 for a scaled value below 2**44.
            # p − floor(p) − 0.5 is exact, and the two further sums of terms
            # below 1 round by at most 2**-53 each: the distance d past the
            # midpoint misses by less than 2**-52.
            np.multiply(a, np.take(hi, index, out=power, mode="clip"), out=p)
            np.multiply(a, _SPLIT, out=t)
            t -= np.subtract(t, a, out=u)  # a's high half
            np.subtract(a, t, out=u)  # and low half
            np.negative(p, out=v)
            for part in (hh, hl):
                np.take(part, index, out=power, mode="clip")
                for half in (t, u):
                    v += np.multiply(half, power, out=w)  # err, once all four are in
            np.multiply(a, np.take(lo, index, out=power, mode="clip"), out=w)  # q
            p -= np.floor(p, out=t)
            p -= 0.5
            p += v
            p += w  # d; the scaled value is t + 0.5 + d
            # log10 may miss a decade by one next to a power of ten; one retry
            # mends it. A value within 2**-13 of a decade's end may land in
            # either decade: both print the same text, since it rounds to the end.
            np.less(np.add(t, p, out=u), 1e12 - 0.5, out=low)
            np.greater_equal(u, 1e13 - 0.5, out=high)
            if retry or not (low.any() or high.any()):
                break
            index -= low
            index += high
        t += p > 0.0  # D, the 13 digits
        np.equal(t, 1e13, out=low)  # 9.9999999999995 rounds up to 10
        np.copyto(t, 1e12, where=low)
        index += low
        np.take(tails, index, out=cells[..., 2], mode="clip")
        # the lead digit + 10 if negative, then three 4-digit groups
        t += np.multiply(x < 0.0, 1e13, out=v)
        for j, unit in enumerate((1e12, 1e8, 1e4, 1.0)):
            np.floor(np.divide(t, unit, out=u), out=u)
            t -= np.multiply(u, unit, out=v)
            np.copyto(index, u, casting="unsafe")
            np.take(digits if j else lead, index, out=cells.view(np.uint32)[..., j], mode="clip")
        near = np.less(np.abs(p, out=p), _TIE_MARGIN, out=high)
        near &= ok
        if not ok.all():
            for where, text in ((np.isnan(x), "nan"), (x == np.inf, "inf"), (x == -np.inf, "-inf"),
                                (x == 0.0, "0.000000000000e+00"),
                                ((x == 0.0) & np.signbit(x), "-0.000000000000e+00")):
                cells[where] = _cell(text)
            near |= ~ok & np.isfinite(x) & (x != 0.0)  # outside the exact range
        for cell in zip(*np.nonzero(near)):
            cells[cell] = _cell(_sci(x[cell]))


#: A simulator row: the trial id's 12-byte slot and a comma word, six
#: numeric cells, then true/false and the newline in one word.
_ID_BYTES = 16
_ROW_BYTES = _ID_BYTES + 6 * _CELL_BYTES + 8
#: Trials per block of simulator rows, chosen by measurement: smaller blocks
#: pay more numpy calls per row, larger ones more memory. The block's
#: buffers, about 1.1 kB per trial by tracemalloc's peak, are the
#: formatter's memory whatever the trial count.
_BLOCK_TRIALS = 1024


def _id_cells(ids: np.ndarray, chars: np.ndarray) -> None:
    """Decimal text of ids (0 <= id < 10**12), right-aligned in the 12 bytes
    of each row of chars, leading zeros as zero bytes."""
    digits = _sci_tables()[1]
    high, low = np.divmod(ids, 10_000)
    chars.view(np.uint32)[:] = digits[np.stack([high // 10_000, high % 10_000, low], axis=1)]
    chars[:, :11][ids[:, None] < 10 ** np.arange(11, 0, -1)] = 0


def _sim_rows(first: np.ndarray, snr_b: np.ndarray, snr_e: np.ndarray, a: RateIntervals,
              sent: np.ndarray | None = None) -> Iterator[tuple[bytearray, int]]:
    """CSV lines of a simulator run: (bytes, row count) per block of
    _BLOCK_TRIALS trials. A row holds the trial id, first, snr_b and snr_e
    in dB, then the rate interval a. With sent, the columns hold the
    transmitted trials only, and every other trial prints as suspended.
    """
    text = bytearray(_BLOCK_TRIALS * _ROW_BYTES)
    chars = np.frombuffer(text, np.uint8).reshape(_BLOCK_TRIALS, _ROW_BYTES)
    chars[:, 12] = ord(",")
    words = chars.view(np.uint64)[:, _ID_BYTES // 8:]  # 6 cells of 3 words, then the flag
    true, false = np.frombuffer(b"true\n\0\0\0false\n\0\0", np.uint64)
    suspended = np.concatenate([_cell("suspended"), *[_cell("")] * 5, [false]])
    values = np.empty((_BLOCK_TRIALS, 6))
    sci = _SciCells(values.shape)
    printed = np.empty(words.shape, np.uint64)  # the block's printed rows, packed
    s = slice(0, 0)
    trials = len(first) if sent is None else len(sent)
    for lo in range(0, trials, _BLOCK_TRIALS):
        m = min(_BLOCK_TRIALS, trials - lo)
        rows = np.ones(m, bool) if sent is None else sent[lo:lo + m]
        k = int(np.count_nonzero(rows))
        s = slice(s.stop, s.stop + k)
        for j, column in enumerate((first[s], _db_cells(snr_b[s]), _db_cells(snr_e[s]),
                                    a.r_sup[s], a.r_inf[s], a.delta_r[s])):
            values[:k, j] = column
        sci(values[:k], printed[:k, :-1].reshape(k, 6, 3))
        printed[:k, -1] = np.where(a.feasible[s], true, false)
        words[:m][rows] = printed[:k]
        words[:m][~rows] = suspended
        _id_cells(np.arange(lo, lo + m), chars[:m, :12])
        chars[m:] = 0
        yield text.translate(None, b"\0"), m
