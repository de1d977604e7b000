"""Canonical trace bodies as fixed-width byte matrices.

A sample that is finite, in [0, 1], not -0.0 and on the 1e-6 grid, as
`tracefile.quantize_capture` output is, prints under `%.6f` as exactly
`d.dddddd`.  A body row of such samples is the index, a comma and 5 x 9
bytes, so all rows in one decade of indices have the same length, and a
whole body can be written and read as uint8 matrices, one decade and one
bounded block of rows at a time.

`format_rows` writes index digits by integer division and value text
from two lookup tables of 3-digit groups, straight into one buffer.
`parse_rows` accepts only exactly such rows up to the end of the data:
one uint8 comparison against a row template checks the separators, `.`,
LF and digits, and one matrix product of the digits with their place
values gives each index and each value as an integer times 1e-6.  The
product runs in float32: a value cell spells at most 9 999 999 and an
index of up to 7 digits at most as much, both below 2**24, so every
product and partial sum is an integer float32 holds exactly, in any
summation order.  Indices of 8 digits and more take a float64 product.
Dividing the integer by 1e6 in float64 is correctly rounded, so it
equals `float()` of the text.  `tracefile` uses these for canonical
traces and its `%` writer and `loadtxt` reader for everything else.
"""
from __future__ import annotations

import functools

import numpy as np

DECIMALS = 6
COLUMNS = 5                      # pot and four photosensors
_SCALE = 10 ** DECIMALS
_CELL_BYTES = DECIMALS + 3       # "d.dddddd" and its separator
_ROW_BYTES_AFTER_INDEX = 1 + COLUMNS * _CELL_BYTES
# rows per block; bounds the temporaries to a few hundred kB whatever the
# trace length
BLOCK_ROWS = 2048
# widest index whose digit product float32 holds exactly: 10**7 - 1 < 2**24
_FLOAT32_INDEX_DIGITS = 7


def _ascii_digits(numbers: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of non-negative integers, zero-padded to `width` columns."""
    out = np.empty((len(numbers), width), np.uint8)
    for col in range(width - 1, -1, -1):
        numbers, out[:, col] = np.divmod(numbers, 10)
    out += ord("0")
    return out


def _fraction_words():
    """Lookup tables that spell q in [0, 1e6] as `d.dddddd`.

    The text of q is the bytewise OR of the 8-byte words `high[q // 1000]`,
    which holds `d.ddd` in bytes 0-4, and `low[q % 1000]`, which holds the
    last three digits in bytes 5-7.
    """
    high = np.zeros((_SCALE // 1000 + 1, 8), np.uint8)
    high[:, [0, 2, 3, 4]] = _ascii_digits(np.arange(len(high)), 4)
    high[:, 1] = ord(".")
    low = np.zeros((1000, 8), np.uint8)
    low[:, 5:] = _ascii_digits(np.arange(1000), 3)
    return high.view(np.uint64)[:, 0], low.view(np.uint64)[:, 0]


_HIGH_WORDS, _LOW_WORDS = _fraction_words()


def _decades(n: int):
    """(first row, end row, row bytes) for each decade of indices below n."""
    lo, width = 0, 1 + _ROW_BYTES_AFTER_INDEX
    while lo < n:
        hi = min(max(10 * lo, 10), n)
        yield lo, hi, width
        lo, width = hi, width + 1


def _row_count(size: int):
    """Rows in a canonical body of `size` bytes, or None if no count fits."""
    # a row takes more than one byte, so the decades below `size` hold
    # every candidate
    for lo, hi, width in _decades(size):
        if size <= (hi - lo) * width:
            return lo + size // width if size % width == 0 else None
        size -= (hi - lo) * width
    return None


@functools.lru_cache(maxsize=None)        # one entry per index width
def _row_template(digits: int):
    """What a canonical row with a `digits`-digit index holds, column by column.

    Returns three read-only arrays over the row's bytes: `offset` holds
    each separator and "0" elsewhere, so a written row starts as a copy
    of it; `row - offset < bound` holds in uint8 arithmetic exactly when
    digit columns hold digits and separator columns their separator; and
    `(row - offset) @ places` gives the index and the five values times
    1e6.  `places` is float32 up to 7 index digits, where every sum it
    makes is an integer below 2**24, and float64 beyond.
    """
    width = digits + _ROW_BYTES_AFTER_INDEX
    offset = np.full(width, ord("0"), np.uint8)
    offset[digits] = ord(",")
    cells = offset[digits + 1:].reshape(COLUMNS, _CELL_BYTES)
    cells[:, 1] = ord(".")
    cells[:, -1] = ord(",")
    cells[-1, -1] = ord("\n")
    bound = np.where(offset == ord("0"), 10, 1).astype(np.uint8)
    exact = np.float32 if digits <= _FLOAT32_INDEX_DIGITS else np.float64
    places = np.zeros((width, 1 + COLUMNS), exact)
    places[:digits, 0] = 10.0 ** np.arange(digits - 1, -1, -1)
    cell_places = places[digits + 1:].reshape(COLUMNS, _CELL_BYTES, -1)
    for col in range(COLUMNS):
        cell_places[col, 0, 1 + col] = _SCALE
        cell_places[col, 2:-1, 1 + col] = 10.0 ** np.arange(DECIMALS - 1, -1, -1)
    for array in (offset, bound, places):
        array.flags.writeable = False
    return offset, bound, places


def _block_numbers(block: np.ndarray, digits: int, first: int):
    """The index and five values times 1e6 of each row in `block`, else None.

    `block` holds rows with `digits`-digit indices, `first` onwards; None
    when a byte is off the template or an index out of order.
    """
    offset, bound, places = _row_template(digits)
    found = block - offset
    if not (found < bound).all():
        return None
    # every sum is a non-negative integer no larger than its row's total,
    # which is at most 9 999 999 for a value and below 2**24 for an index
    # in a float32 `places`, so the product is exact whatever the BLAS
    # kernel's summation order
    numbers = found.astype(places.dtype) @ places
    if not (numbers[:, 0] == np.arange(first, first + len(block))).all():
        return None
    return numbers


def is_canonical(pot: np.ndarray, photo: np.ndarray) -> bool:
    """Whether every sample prints as `d.dddddd` in [0, 1] under `%.6f`."""
    for lo in range(0, len(pot), BLOCK_ROWS):
        for values in (pot[lo:lo + BLOCK_ROWS], photo[lo:lo + BLOCK_ROWS]):
            # -0.0 passes the other tests but prints as "-0.000000"; nan
            # fails the grid test
            ok = ((values >= 0.0) & (values <= 1.0) & ~np.signbit(values)
                  & (np.rint(values * _SCALE) / _SCALE == values))
            if not ok.all():
                return False
    return True


def format_rows(prefix: bytes, pot: np.ndarray, photo: np.ndarray) -> bytearray:
    """`prefix` followed by the rows of canonical samples, in one buffer."""
    n = len(pot)
    out = bytearray(len(prefix)
                    + sum((hi - lo) * width for lo, hi, width in _decades(n)))
    out[:len(prefix)] = prefix
    at = len(prefix)
    values = np.empty((min(n, BLOCK_ROWS), COLUMNS))
    for lo, hi, width in _decades(n):
        digits = width - _ROW_BYTES_AFTER_INDEX
        rows = np.frombuffer(out, np.uint8, (hi - lo) * width, at).reshape(-1, width)
        rows[:] = _row_template(digits)[0]
        # each value's 8 bytes of text, as one unaligned word per value
        words = np.ndarray((hi - lo, COLUMNS), np.uint64, out,
                           at + digits + 1, (width, _CELL_BYTES))
        at += rows.size
        for a in range(lo, hi, BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, hi)
            rows[a - lo:b - lo, :digits] = _ascii_digits(
                np.arange(a, b, dtype=np.uint32), digits)
            v = values[:b - a]
            v[:, 0] = pot[a:b]
            v[:, 1:] = photo[a:b]
            high, low = np.divmod(np.rint(v * _SCALE).astype(np.uint32), 1000)
            words[a - lo:b - lo] = np.take(_HIGH_WORDS, high) | np.take(_LOW_WORDS, low)
    return out


def parse_rows(data: bytes, start: int):
    """(pot, photo) from canonical rows that fill `data[start:]`, else None.

    Rows are canonical when they are what `format_rows` writes: the
    indices 0 ... n-1, ASCII digits, and the separators, `.` and LF at
    their fixed columns.  Each block of rows becomes integers in one
    float32 digit product (float64 from 8 index digits on, where float32
    would round an index), divided by 1e6 in float64.
    """
    n = _row_count(len(data) - start)
    if not n:
        return None
    pot = np.empty(n)
    photo = np.empty((n, COLUMNS - 1))
    for lo, hi, width in _decades(n):
        rows = np.frombuffer(data, np.uint8, (hi - lo) * width, start).reshape(-1, width)
        start += rows.size
        for a in range(lo, hi, BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, hi)
            numbers = _block_numbers(rows[a - lo:b - lo],
                                     width - _ROW_BYTES_AFTER_INDEX, a)
            if numbers is None:
                return None
            # a float32 quotient would round twice; in float64 it is
            # correctly rounded, as float() of the text is
            np.divide(numbers[:, 1], _SCALE, out=pot[a:b], dtype=np.float64)
            np.divide(numbers[:, 2:], _SCALE, out=photo[a:b], dtype=np.float64)
    return pot, photo
