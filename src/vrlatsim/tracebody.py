"""Trace bodies as fixed-width byte matrices.

A sample on the 1e-6 grid in [0, 1] prints under `%.6f` as exactly
`d.dddddd`.  A body row is the index, a comma and 5 x 9 bytes of such
samples, so all rows in one decade of indices have the same length, and
a whole body can be written and read as uint8 matrices, one decade and
one bounded block of rows at a time.  This is the only spelling of a
trace body, in each direction.

`format_rows` rounds each block of samples to integers times 1e-6 and,
in the same pass, checks that each is finite, in 0 ... 10**6 and not
-0.0 (which prints as `-0.000000`); it raises ValueError naming the row
and column of the first that is not.  It writes straight into one
buffer.  The text of each row up to its values comes from a cached
period of 1000 rows, over which the last three index digits repeat;
the digits above them are the same for each 1000 rows and are written
once for them.  The value text comes from two lookup tables of 3-digit
groups, indexed with intp arrays, which `take` uses without a cast.

`parse_rows` accepts only exactly such rows up to the end of the data.
It subtracts a row template from each block of rows in uint8
arithmetic, so a byte below its template wraps to 247 or more: every
column must then be at most 9.  One matrix product of the difference
with the place values gives each index and each value as an integer
times 1e-6, and the sum of the 11 separator columns, which
must be 0.  The product runs in float32: once every column is at most 9,
a value cell spells at most 9 999 999 and an index of up to 7 digits at
most as much, both below 2**24, and the separator sum is at most
11 * 255, so every product and partial sum is an integer float32 holds
exactly, in any summation order.  Indices of 8 digits and more take a
float64 product.  Dividing the integer by 1e6 in float64 is correctly
rounded, so it equals `float()` of the text.  Anything else raises
`RowError` at the first row that is not what `format_rows` writes.
"""
from __future__ import annotations

import functools

import numpy as np

DECIMALS = 6
COLUMN_NAMES = ("pot_raw", "photo0", "photo1", "photo2", "photo3")
COLUMNS = len(COLUMN_NAMES)
_SCALE = 10 ** DECIMALS
_CELL_BYTES = DECIMALS + 3       # "d.dddddd" and its separator
_ROW_BYTES_AFTER_INDEX = 1 + COLUMNS * _CELL_BYTES
# rows per block; bounds the temporaries to a few hundred kB whatever the
# trace length
BLOCK_ROWS = 2048
# the last three index digits repeat every 1000 rows
_PERIOD_DIGITS = 3
_PERIOD_ROWS = 10 ** _PERIOD_DIGITS
# widest index whose digit product float32 holds exactly: 10**7 - 1 < 2**24
_FLOAT32_INDEX_DIGITS = 7


class RowError(ValueError):
    """Raised with (row, byte offset) of the first row that is not canonical."""


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


def _whole_rows(size: int):
    """(rows, bytes left over) of a body of `size` bytes in the row layout."""
    rows = 0
    # a row takes more than one byte, so the decades below `size` hold
    # every row there is room for
    for lo, hi, width in _decades(size):
        count = min(hi - lo, size // width)
        rows += count
        size -= count * width
        if count < hi - lo:
            break
    return rows, size


@functools.lru_cache(maxsize=None)        # one entry per index width
def _row_template(digits: int):
    """What a canonical row with a `digits`-digit index holds, column by column.

    Returns two read-only arrays over the row's bytes: `offset` holds
    each separator and "0" elsewhere, so a written row starts as a copy
    of it; and `(row - offset) @ places`, the difference in uint8
    arithmetic, gives the index, the five values times 1e6 and, last,
    the sum of the 11 separator columns.  The row is canonical exactly
    when no column of the difference exceeds 9, the separator sum is 0,
    the index is in order and the values are at most 1e6.  `places` is
    float32 up to 7 index digits, where every sum it makes from such a
    row is an integer below 2**24, and float64 beyond.
    """
    width = digits + _ROW_BYTES_AFTER_INDEX
    offset = np.full(width, ord("0"), np.uint8)
    offset[digits] = ord(",")
    cells = offset[digits + 1:].reshape(COLUMNS, _CELL_BYTES)
    cells[:, 1] = ord(".")
    cells[:, -1] = ord(",")
    cells[-1, -1] = ord("\n")
    exact = np.float32 if digits <= _FLOAT32_INDEX_DIGITS else np.float64
    places = np.zeros((width, 2 + COLUMNS), exact)
    places[:digits, 0] = 10.0 ** np.arange(digits - 1, -1, -1)
    places[offset != ord("0"), -1] = 1
    cell_places = places[digits + 1:].reshape(COLUMNS, _CELL_BYTES, -1)
    for col in range(COLUMNS):
        cell_places[col, 0, 1 + col] = _SCALE
        cell_places[col, 2:-1, 1 + col] = 10.0 ** np.arange(DECIMALS - 1, -1, -1)
    offset.flags.writeable = places.flags.writeable = False
    return offset, places


@functools.lru_cache(maxsize=None)        # one entry per index width
def _row_period(digits: int) -> np.ndarray:
    """The index text of 1000 rows with a `digits`-digit index, read-only.

    Row j is the template of `_row_template` with the last three digits
    of j in place (as many of them as a narrower index has), and "0"
    above them.  Row i of a body starts as row i % 1000 of this array,
    so the index column repeats with a period of 1000 rows.
    """
    period = np.tile(_row_template(digits)[0], (_PERIOD_ROWS, 1))
    low = min(digits, _PERIOD_DIGITS)
    period[:, digits - low:digits] = _ascii_digits(np.arange(_PERIOD_ROWS), low)
    period.flags.writeable = False
    return period


def _first_bad_row(found: np.ndarray, numbers: np.ndarray, first: int) -> int:
    """Position of the first row that is not canonical in a block of rows
    `first` onwards, from the block less its template, `found`, and the
    product `numbers` of `found` and the template's `places`."""
    # a row with a byte more than 9 off its template may sum to anything,
    # but it is bad already
    good = ((found.max(axis=1) <= 9) & (numbers[:, -1] == 0)
            & (numbers[:, 0] == np.arange(first, first + len(found)))
            & (numbers[:, 1:-1] <= _SCALE).all(axis=1))
    return int(good.argmin())


def format_rows(prefix: bytes, pot: np.ndarray, photo: np.ndarray) -> bytearray:
    """`prefix` followed by the rows of the samples rounded to 1e-6, in one buffer.

    Each decade of indices starts as copies of `_row_period`'s rows,
    with the index digits above the last three set once per 1000 rows.
    Then each block of samples is rounded, checked and spelled over its
    rows' value columns.  Raises ValueError naming the row and column of
    the first sample that does not round to `d.dddddd` in [0, 1].
    """
    n = len(pot)
    out = bytearray(len(prefix)
                    + sum((hi - lo) * width for lo, hi, width in _decades(n)))
    out[:len(prefix)] = prefix
    at = len(prefix)
    # each channel is rounded in a buffer of its own: copying both into
    # one (rows, 5) block cost more than the rounding and the check
    pot_values = np.empty(min(n, BLOCK_ROWS))
    photo_values = np.empty((min(n, BLOCK_ROWS), COLUMNS - 1))
    for lo, hi, width in _decades(n):
        digits = width - _ROW_BYTES_AFTER_INDEX
        rows = np.frombuffer(out, np.uint8, (hi - lo) * width, at).reshape(-1, width)
        # whole rows of the cached period, then the index digits above
        # its last three, which are the same for each 1000 rows
        period = _row_period(digits)
        for c in range(lo - lo % _PERIOD_ROWS, hi, _PERIOD_ROWS):
            a, b = max(c, lo), min(c + _PERIOD_ROWS, hi)
            rows[a - lo:b - lo] = period[a - c:b - c]
            if digits > _PERIOD_DIGITS:
                rows[a - lo:b - lo, :digits - _PERIOD_DIGITS] = np.frombuffer(
                    b"%d" % (c // _PERIOD_ROWS), np.uint8)
        # each value's 8 bytes of text, as one unaligned word per value
        words = np.ndarray((hi - lo, COLUMNS), np.uint64, out,
                           at + digits + 1, (width, _CELL_BYTES))
        at += rows.size
        for a in range(lo, hi, BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, hi)
            p, q = pot_values[:b - a], photo_values[:b - a]
            for v, channel in ((p, pot), (q, photo)):
                np.rint(np.multiply(channel[a:b], _SCALE, out=v, dtype=float),
                        out=v)
            # nan fails the bound; a negative value, and -0.0, which every
            # value from -5e-7 up to 0 rounds to, has its sign bit set
            if (np.signbit(p).any() or not p.max() <= _SCALE
                    or np.signbit(q).any() or not q.max() <= _SCALE):
                raise _off_range_error(np.column_stack((p, q)), a, pot, photo)
            words[a - lo:b - lo, 0] = _spell(p)
            words[a - lo:b - lo, 1:] = _spell(q)
    return out


def _spell(rounded: np.ndarray) -> np.ndarray:
    """The 8-byte text words of samples rounded to integers times 1e-6."""
    # intp indices, which `take` uses without a cast; a floor division
    # and a multiply cost half of divmod's remainder
    low = rounded.astype(np.intp)
    high = low // 1000
    low -= high * 1000
    return _HIGH_WORDS.take(high) | _LOW_WORDS.take(low)


def _off_range_error(rounded: np.ndarray, first: int, pot, photo) -> ValueError:
    """The error for the first sample of a rounded block, rows `first`
    onwards, that is not in 0 ... 10**6 or is -0.0."""
    row, col = divmod(int((np.signbit(rounded) | ~(rounded <= _SCALE)).argmax()),
                      COLUMNS)
    row += first
    value = float(pot[row] if col == 0 else photo[row, col - 1])
    return ValueError(f"row {row}, column {COLUMN_NAMES[col]}: {value!r} does "
                      f"not round to a sample in [0, 1] on the 1e-6 grid")


def parse_rows(data: bytes, start: int):
    """(pot, photo) from the canonical rows that fill `data[start:]`.

    Rows are canonical when they are what `format_rows` writes: the
    indices 0 ... n-1, ASCII digits, the separators, `.` and LF at their
    fixed columns, and values up to 1.  Each block of rows becomes
    integers in one float32 digit product (float64 from 8 index digits
    on, where float32 would round an index), divided by 1e6 in float64.
    Raises RowError with the number and byte offset of the first row
    that is not canonical: an empty body fails at row 0, and one that
    ends inside a row or runs on past its last whole row fails at the
    row where it does so.
    """
    n, left_over = _whole_rows(len(data) - start)
    pot = np.empty(n)
    photo = np.empty((n, COLUMNS - 1))
    for lo, hi, width in _decades(n):
        rows = np.frombuffer(data, np.uint8, (hi - lo) * width, start).reshape(-1, width)
        offset, places = _row_template(width - _ROW_BYTES_AFTER_INDEX)
        for a in range(lo, hi, BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, hi)
            found = rows[a - lo:b - lo] - offset
            # the maximum while `found` is still in cache; the product is
            # exact on a block within 9 of its template (module docstring)
            within_digits = found.max() <= 9
            numbers = found.astype(places.dtype) @ places
            if (within_digits and not numbers[:, -1].any()
                    and (numbers[:, 0] == np.arange(a, b)).all()):
                # a float32 quotient would round twice; in float64 it is
                # correctly rounded, as float() of the text is
                np.divide(numbers[:, 1], _SCALE, out=pot[a:b], dtype=np.float64)
                np.divide(numbers[:, 2:-1], _SCALE, out=photo[a:b], dtype=np.float64)
                if max(pot[a:b].max(), photo[a:b].max()) <= 1.0:
                    continue
            bad = _first_bad_row(found, numbers, a)
            raise RowError(a + bad, start + (a - lo + bad) * width)
        start += rows.size
    if left_over or not n:
        raise RowError(n, start)
    return pot, photo
