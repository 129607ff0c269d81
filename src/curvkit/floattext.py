"""Exact float64 text at array speed: '%.17g' and repr cells of whole arrays.

g17 writes every cell as '%.17g' % v and short as repr(v), byte for byte.
Most cells never become Python floats:

* The 17-digit decimal significand D of |x| is round-half-even of the
  exact product |x| * 10**p.  Every 10**p with p <= 22 is a double, and
  Dekker's TwoProduct splits the product into hi + lo with no error.
* Cells with a decimal exponent from -4 to 14 are laid out positionally,
  trailing zeros stripped, through one lookup table of byte columns.
* repr is the shortest string that reads back as x, the closest one if
  several are.  Past the cases below it has 16 or 17 digits: 16 when the
  16-digit rounding D16 reads back.  D16 < 2**53 and 10**q are exact
  doubles, so float(D16) / 10**q is that reading (Clinger's fast path).

The other cells go to Python's own '%' or repr, one format over the few of
them, so their bytes match by construction: zeros, non-finite values,
|x| < 1e-4 and |x| >= 1e15; for short also reprs of 15 digits or fewer and
D16 >= 2**53.  The one case where the closest 16-digit decimal can fail to
read back while another reads back, a power of two (its lower rounding gap
is half the upper one), is among them: from 2**-13 to 2**49 each has at
most 15 digits.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .parallel import INLINE, Lane

# A yielded block holds at most this many cells, or one row if a row holds more.
CHUNK_CELLS = 1 << 14

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
_EMIN, _EMAX = -4, 14  # decimal exponents of the positional fast path
_WIDTH = 24  # longest '%.17g' or repr of a double: '-2.2250738585072014e-308'
# Byte columns of a cell's source row: its 17 significand digits from
# _FIRST on (a fallback cell: its text from 0), then four constants.
_FIRST = 3
_POINT, _ZERO, _MINUS, _SEP = range(_WIDTH, _WIDTH + 4)
_N_FAST = 2 * (_EMAX - _EMIN + 1) * 17  # layouts by sign, exponent, digits kept


def g17(a: np.ndarray, sep: str, lane: Lane = INLINE):
    """Yield the rows of a 2-D float64 array as text, in blocks of whole
    rows (see CHUNK_CELLS): each cell '%.17g' % v, cells joined by the one
    character sep, every row ended by a newline.  Alternate blocks are
    formatted on lane."""
    yield from _blocks(a, sep, _g17_cells, lane)


def short(a: np.ndarray, sep: str, lane: Lane = INLINE):
    """As g17, with each cell repr(v)."""
    yield from _blocks(a, sep, _short_cells, lane)


def _blocks(a, sep, cells, lane):
    n_rows, n_cols = a.shape
    # A thread lane has two blocks in flight: half-size ones hold the
    # formatter's temporaries at those of one full block.
    step = max(1, CHUNK_CELLS // (2 if lane.threaded else 1) // n_cols)

    def block(start):
        x = a[start : start + step].ravel()
        return _text(x, n_cols, sep, *cells(np.abs(x)))

    starts = range(0, n_rows, step)
    for i in range(0, len(starts), 2):
        ahead = lane.submit(block, starts[i])
        behind = block(starts[i + 1]) if i + 1 < len(starts) else None
        yield ahead.result()
        if behind is not None:
            yield behind


def _g17_cells(ax):
    keep = (ax >= 1e-4) & (ax < 1e15)
    e, d, _ = _significands(np.where(keep, ax, 1.0))
    return e, d, keep, "%-24.17g"


def _short_cells(ax):
    keep = (ax >= 1e-4) & (ax < 1e15)
    ax = np.where(keep, ax, 1.5)
    e, d, rest = _significands(ax)
    # d rounded to 16 digits, half to even, and the two 15-digit decimals
    # next to x: when one of them reads back, repr has 15 digits or fewer.
    d16, last = np.divmod(d, 10)
    d16 += (last > 5) | ((last == 5) & ((rest > 0) | ((rest == 0) & (d16 & 1 == 1))))
    d15 = d // 100
    p15 = _POW10[14 - e]
    keep &= (d16 < 2**53) & (d15 / p15 != ax) & ((d15 + 1) / p15 != ax)
    return e, np.where(d16 / _POW10[15 - e] == ax, d16 * 10, d), keep, "%-24r"


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW_HI, _POW_LO = _split(_POW10)


def _significands(ax):
    """Decimal exponent e and round-half-even significand d in
    [10**16, 10**17) of each 1e-4 <= ax < 1e15, and the sign of the
    remainder ax * 10**(16 - e) - d that a second rounding of d needs."""
    e = np.searchsorted(_decade_floors(), ax, side="right") + (_EMIN - 1)
    p = 16 - e
    hi = ax * _POW10[p]
    ah, al = _split(ax)
    bh, bl = _POW_HI[p], _POW_LO[p]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl  # hi + lo == ax * 10**p
    floor = np.floor(lo)
    half = floor + 0.5
    d = hi.astype(np.int64) + floor.astype(np.int64)
    up = (lo > half) | ((lo == half) & (d & 1 == 1))
    d += up
    rest = np.sign(lo - (floor + up))
    carry = d == 10**17  # rounded up into the next decade
    d[carry] = 10**16
    return e + carry, d, rest


@lru_cache(maxsize=None)
def _decade_floors() -> np.ndarray:
    """The smallest double >= 10**k, for k = _EMIN .. _EMAX + 1."""
    floors = []
    for k in range(_EMIN, _EMAX + 2):
        f = float(f"1e{k}")
        num, den = f.as_integer_ratio()
        if k < 0 and num * 10**-k < den:
            f = float(np.nextafter(f, np.inf))
        floors.append(f)
    return np.array(floors)


@lru_cache(maxsize=None)
def _quads() -> np.ndarray:
    """ASCII digits of 0000 .. 9999, one uint32 each, first digit lowest."""
    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    return digits.astype(np.uint8).view("<u4").ravel()


@lru_cache(maxsize=None)
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Per layout, the source column of each output byte, separator
    included, and the mask of the bytes it writes.

    Layout (neg * 19 + e + 4) * 17 + m - 1 writes the sign, decimal
    exponent e and m leading digits; _N_FAST + n - 1 copies n text bytes.
    """
    columns = np.full((_N_FAST + _WIDTH, _WIDTH + 1), _SEP, dtype=np.intp)
    lengths = []
    for neg in (0, 1):
        for e in range(_EMIN, _EMAX + 1):
            for m in range(1, 18):
                digits = [_FIRST + j for j in range(max(m, e + 1))]
                if e < 0:
                    cell = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
                elif m > e + 1:
                    cell = digits[: e + 1] + [_POINT] + digits[e + 1 :]
                else:
                    cell = digits
                lengths.append(neg + len(cell))
                columns[len(lengths) - 1, : lengths[-1]] = [_MINUS] * neg + cell
    for n in range(1, _WIDTH + 1):
        lengths.append(n)
        columns[len(lengths) - 1, :n] = range(n)
    return columns, np.arange(_WIDTH + 1) <= np.array(lengths)[:, None]


def _text(x, n_cols, sep, e, d, keep, fallback) -> str:
    """Rows of n_cols cells of x: where keep holds, written from the
    significand d and exponent e; elsewhere as fallback % value."""
    n = x.size
    quads = _quads()
    src = np.empty((n, _WIDTH // 4 + 1), dtype="<u4")
    top, low = np.divmod(d, 10**8)
    src[:, 0] = quads[top // 10**8]
    src[:, 1] = quads[top // 10**4 % 10**4]
    src[:, 2] = quads[top % 10**4]
    src[:, 3] = quads[low // 10**4]
    src[:, 4] = quads[low % 10**4]
    src[:, 6] = np.frombuffer(f".0-{sep}".encode("ascii"), dtype="<u4")[0]
    chars = src.view(np.uint8)
    chars[n_cols - 1 :: n_cols, _SEP] = ord("\n")
    trailing_zeros = np.argmax(chars[:, _FIRST + 16 : _FIRST - 1 : -1] != ord("0"), axis=1)
    layout = (np.signbit(x) * (_EMAX - _EMIN + 1) + e - _EMIN) * 17 + 16 - trailing_zeros
    slow = np.flatnonzero(~keep)
    if slow.size:
        text = (fallback * slow.size) % tuple(x[slow].tolist())
        cells = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, _WIDTH)
        chars[slow, :_WIDTH] = cells
        layout[slow] = _N_FAST - 1 + np.count_nonzero(cells != ord(" "), axis=1)
    columns, written = _layouts()
    index = columns[layout]
    index += np.arange(0, chars.size, chars.shape[1])[:, None]
    return chars.ravel()[index][written[layout]].tobytes().decode("ascii")
