"""Trace and report file I/O.

Captures are stored as CSV with a small comment header so a trace file
is self-describing: station id, capture start in UTC microseconds, and
the sampling interval.  Values are written with 6 decimal places, which
is below sensor noise and keeps files byte-stable across rewrite.  Files
are written as UTF-8 bytes in binary mode (ASCII for everything this
package writes), so their bytes do not depend on the platform's locale
or line separator.

Canonical traces take a fast path in each direction.  A capture is
canonical when every value is finite, in [0, 1], not -0.0 and on the
1e-6 grid, as `quantize_capture` output is; `format_trace` then fills its
rows as fixed-width byte matrices (`tracebody`).  Any other capture goes
down the `%` path, which applies one row template with a single `%` per
chunk of rows: the same `%.6f` conversion a per-row loop makes.

`parse_trace` takes the fast path only when the file is exactly what
the writer makes of a canonical capture: an exact column header line,
only `#` and blank lines above it, then fixed-width rows with indices
0, 1, 2, ... up to the end of the file.  Everything else goes down the
general path, which is the spec: it sorts the lines in one pass (blank
lines are skipped, `#` lines are metadata wherever they stand, the
column header is checked) and converts every body row with one
`np.loadtxt` call.  Only when that call fails are the rows searched
again, to name the file line of the first bad one.  Both paths read the
metadata with the same code.

The reader is strict, because the estimator takes every row as one 1 ms
sample of sensors that read in [0, 1].  `interval_ms` must be spelled
`1.0`, `start_utc_us` must be an integer spelled as the writer spells it
(ASCII digits, an optional minus, no leading zeros), so a rewrite keeps
the bytes, the indices must run 0, 1, 2, ... and every sample must be
finite and inside [0, 1].  Both paths share these checks, so they raise
the same `TraceFormatError` for the same file.
"""
from __future__ import annotations

import os
import re
import tempfile
from itertools import chain

import numpy as np

from . import tracebody
from .errors import TraceFormatError
from .rig import RawCapture

VALUE_DECIMALS = tracebody.DECIMALS
_PHOTO_COLUMNS = ("photo0", "photo1", "photo2", "photo3")
_HEADER_COLUMNS = ("interval_index", "pot_raw") + _PHOTO_COLUMNS
_HEADER_LINE = ",".join(_HEADER_COLUMNS)
_HEADER_BYTES = (_HEADER_LINE + "\n").encode()
_VALUE_COLUMNS = len(_HEADER_COLUMNS) - 1
_START_LITERAL = re.compile(r"0|-?[1-9][0-9]*")
# the only interval the estimator reads, spelled as the writer spells it
_INTERVAL_LITERAL = "1.0"
_ROW_TEMPLATE = "%d," + ",".join([f"%.{VALUE_DECIMALS}f"] * _VALUE_COLUMNS) + "\n"
_ROW_DTYPE = np.dtype([("interval_index", np.int64),
                       ("values", np.float64, (_VALUE_COLUMNS,))])
# rows per `%` call.  Each call builds an argument tuple of six entries per
# row; 4096-row chunks raised the peak RSS of repeated 20 s simulate runs
# by about 1 MB, 512 rows did not, and both format equally fast
_FORMAT_CHUNK_ROWS = 512


def quantize_capture(capture: RawCapture) -> RawCapture:
    """Round sensor values to the on-disk precision.

    Running the estimator on a rounded capture guarantees the result
    matches what a later run computes from the written file.
    """
    return RawCapture(
        station_id=capture.station_id,
        start_utc_us=capture.start_utc_us,
        pot=np.round(capture.pot, VALUE_DECIMALS),
        photo=np.round(capture.photo, VALUE_DECIMALS),
    )


def atomic_write_text(path: str, text: str | bytes):
    """Write via a temp file and rename so readers never see partial output.

    `text` is a str, written as UTF-8, or bytes written as they are; either
    way in binary mode, so no newline translation takes place.
    """
    data = text.encode() if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def format_trace(capture: RawCapture) -> str:
    if tracebody.is_canonical(capture.pot, capture.photo):
        return _format_fixed_width(capture).decode()
    return _format_percent(capture)


def write_trace(path: str, capture: RawCapture):
    # the fixed-width buffer goes to the file as it is, without a str copy
    if tracebody.is_canonical(capture.pot, capture.photo):
        atomic_write_text(path, _format_fixed_width(capture))
    else:
        atomic_write_text(path, _format_percent(capture))


def read_trace(path: str) -> RawCapture:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    return parse_trace(data, source=path)


def parse_trace(text: str | bytes, source: str = "<string>") -> RawCapture:
    """Read a trace from its text, as a str or as the file's bytes."""
    if isinstance(text, str):
        # the fast path reads bytes; a str with non-ASCII metadata is left
        # to the general path rather than encoded
        data = text.encode("ascii") if text.isascii() else None
    else:
        data = text
    parsed = None if data is None else _parse_fixed_width(data, source)
    if parsed is None:
        if not isinstance(text, str):
            text = _decode(text, source)
        parsed = _parse_rows(text, source)
    return _checked_capture(*parsed, source)


# ---------------------------------------------------------------------------
# the writer and reader paths


def _header_text(capture: RawCapture) -> str:
    return (
        f"# station_id = {capture.station_id}\n"
        f"# start_utc_us = {capture.start_utc_us!r}\n"
        f"# interval_ms = {_INTERVAL_LITERAL}\n"
        f"{_HEADER_LINE}\n"
    )


def _format_percent(capture: RawCapture) -> str:
    chunks = [_header_text(capture)]
    n = len(capture)
    for lo in range(0, n, _FORMAT_CHUNK_ROWS):
        hi = min(lo + _FORMAT_CHUNK_ROWS, n)
        rows = zip(range(lo, hi), capture.pot[lo:hi].tolist(),
                   *capture.photo[lo:hi].T.tolist())
        chunks.append(_ROW_TEMPLATE * (hi - lo) % tuple(chain.from_iterable(rows)))
    return "".join(chunks)


def _format_fixed_width(capture: RawCapture) -> bytearray:
    return tracebody.format_rows(_header_text(capture).encode(),
                                 capture.pot, capture.photo)


def _parse_fixed_width(data: bytes, source: str):
    """(metadata, pot, photo) of a canonical trace, else None.

    Canonical means an exact column header line, at the start of the file
    or after a LF, with only `#` and blank lines above it, then canonical
    rows up to the end of the file.
    """
    if data.startswith(_HEADER_BYTES):
        start = len(_HEADER_BYTES)
    else:
        start = data.find(b"\n" + _HEADER_BYTES) + 1 + len(_HEADER_BYTES)
        if start == len(_HEADER_BYTES):
            return None
    # the metadata is read by the general code, which also raises for any
    # line above the header that is neither blank nor `#`, as it would on
    # the whole file; a second header above this one is left to that path
    meta, rows_above, _ = _sort_lines(_decode(data[:start], source), source)
    if rows_above:
        return None
    columns = tracebody.parse_rows(data, start)
    return None if columns is None else (meta, *columns)


def _decode(data: bytes, source: str) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{source}: not UTF-8 text: {exc}") from None


def _sort_lines(text: str, source: str):
    """Split trace text into metadata and body rows, checking the header.

    Returns the `# key = value` metadata, the stripped body rows and the
    file line of each row.
    """
    meta: dict = {}
    rows = []
    linenos = []
    saw_header = False
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line:
            continue
        if line[0] == "#":
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
        elif saw_header:
            rows.append(line)
            linenos.append(lineno)
        elif line == _HEADER_LINE:
            saw_header = True
        else:
            raise TraceFormatError(
                f"{source}:{lineno}: expected column header "
                f"{_HEADER_LINE!r}, got {line!r}"
            )
    if not saw_header:
        raise TraceFormatError(f"{source}: missing column header line")
    return meta, rows, linenos


def _parse_rows(text: str, source: str):
    """The general reader: returns (metadata, pot, photo), unchecked."""
    meta, rows, linenos = _sort_lines(text, source)
    if not rows:
        raise TraceFormatError(f"{source}: trace contains no samples")
    try:
        table = _load_rows(rows)
    except ValueError:
        _raise_first_bad_row(rows, linenos, source)
    _check_order(table["interval_index"], linenos, source)
    values = table["values"]
    return meta, values[:, 0], values[:, 1:]


def _checked_capture(meta: dict, pot: np.ndarray, photo: np.ndarray,
                     source: str) -> RawCapture:
    """The header and sample checks both reader paths share."""
    for key in ("station_id", "start_utc_us", "interval_ms"):
        if key not in meta:
            raise TraceFormatError(f"{source}: missing '# {key} = ...' header")
    # int() would also take "1_000", "+5", "007" and non-ASCII digits,
    # which a rewrite spells differently
    if not _START_LITERAL.fullmatch(meta["start_utc_us"]):
        raise TraceFormatError(
            f"{source}: bad header value: start_utc_us must be a plain "
            f"integer, got {meta['start_utc_us']!r}"
        )
    # float() would also take "1", "1.000" and "01.0", which a rewrite
    # spells "1.0"
    if meta["interval_ms"] != _INTERVAL_LITERAL:
        raise TraceFormatError(
            f"{source}: interval_ms must be 1.0, got {meta['interval_ms']!r}; "
            f"the estimator reads every row as one 1 ms sample"
        )
    # nan and inf would decode into a plausible but meaningless capture
    if not (np.isfinite(pot).all() and np.isfinite(photo).all()):
        finite = np.isfinite(pot) & np.isfinite(photo).all(axis=1)
        raise TraceFormatError(
            f"{source}: interval_index {np.argmin(finite)} holds a non-finite sample"
        )
    # every sensor reads in [0, 1] and traces are written clipped
    if min(pot.min(), photo.min()) < 0.0 or max(pot.max(), photo.max()) > 1.0:
        outside = (pot < 0.0) | (pot > 1.0) | ((photo < 0.0) | (photo > 1.0)).any(axis=1)
        raise TraceFormatError(
            f"{source}: interval_index {np.argmax(outside)} holds a sample outside [0, 1]"
        )
    return RawCapture(
        station_id=meta["station_id"],
        start_utc_us=int(meta["start_utc_us"]),
        pot=np.ascontiguousarray(pot),
        photo=np.ascontiguousarray(photo),
    )


def _load_rows(rows: list) -> np.ndarray:
    # comments=None: a `#` inside a row is an error, not the start of a
    # comment; the int64 field rejects "1.0" as int() does
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                      dtype=_ROW_DTYPE)


def _check_order(index: np.ndarray, linenos: list, source: str):
    wrong = index != np.arange(index.size)
    if wrong.any():
        pos = int(np.argmax(wrong))
        raise TraceFormatError(
            f"{source}:{linenos[pos]}: interval_index {index[pos]} out of order "
            f"(expected {pos})"
        )


def _raise_first_bad_row(rows: list, linenos: list, source: str):
    """Raise for the first row `np.loadtxt` rejects, at its file line.

    loadtxt numbers rows from 1 in some messages and from 0 in others,
    so the row is found by bisection over prefixes instead of read from
    the message.
    """
    good, bad = 0, len(rows)  # rows[:good] convert, rows[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _load_rows(rows[:mid])
            good = mid
        except ValueError:
            bad = mid
    if good:
        # an out-of-order row above the bad one comes first in the file
        _check_order(_load_rows(rows[:good])["interval_index"], linenos, source)
    line = rows[good]
    parts = line.split(",")
    if len(parts) != len(_HEADER_COLUMNS):
        problem = f"expected {len(_HEADER_COLUMNS)} columns, got {len(parts)}"
    else:
        try:
            int(parts[0])
            for part in parts[1:]:
                float(part)
        except ValueError as exc:
            problem = str(exc)
        else:
            # e.g. "1_0", which int() and float() take but loadtxt does not
            problem = f"cannot convert row {line!r}"
    # from None: loadtxt's own message carries its misleading row number
    raise TraceFormatError(f"{source}:{linenos[good]}: {problem}") from None


# ---------------------------------------------------------------------------
# report files

_REPORT_ORDER = (
    "motion_to_photon_ms",
    "mouth_to_ear_ms",
    "remote_direction",
    "remote_latency_ms",
    "peak_coefficient",
    "decode_error_rate",
    "trace_length",
    "warnings",
)


def format_report(report) -> str:
    """Stable key order; absent metrics are omitted rather than nulled."""
    lines = []
    for key in _REPORT_ORDER:
        value = getattr(report, key)
        if key == "warnings":
            lines.append(f"warnings = {','.join(value) if value else 'none'}")
            continue
        if value is None:
            continue
        if isinstance(value, float):
            lines.append(f"{key} = {value:.6f}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_report(path: str, report):
    atomic_write_text(path, format_report(report))


def format_batch_summary(rows: list, base_seed: int, failures: list) -> str:
    """rows: (metric_name, values) pairs aggregated across runs."""
    lines = [f"runs = {rows[0][1].size if rows else 0}", f"base_seed = {base_seed}"]
    for metric, values in rows:
        values = np.asarray(values, dtype=float)
        sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
        lines.append(
            f"{metric}: avg = {values.mean():.6f}, min = {values.min():.6f}, "
            f"max = {values.max():.6f}, sd = {sd:.6f}"
        )
    for run_index, message in failures:
        lines.append(f"run {run_index} failed: {message}")
    return "\n".join(lines) + "\n"
