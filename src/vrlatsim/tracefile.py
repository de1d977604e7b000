"""Trace and report file I/O.

Captures are stored as CSV with a small comment header so a trace file
is self-describing: station id, capture start in UTC microseconds, and
the sampling interval.  Values are written with 6 decimal places, which
is below sensor noise and keeps files byte-stable across rewrite.

Both directions work on whole arrays.  `format_trace` applies one row
template with a single `%` per chunk of rows: the same `%.6f` conversion
a per-row loop makes, so the bytes do not depend on the chunking, while
the chunks keep the argument tuple, and with it peak memory, small.
`parse_trace` sorts the lines in one pass (blank lines are skipped, `#`
lines are metadata wherever they stand, the column header is checked)
and converts every body row with one `np.loadtxt` call.  Only when that
call fails are the rows searched again, to name the file line of the
first bad one.

The reader is strict, because the estimator takes every row as one 1 ms
sample of sensors that read in [0, 1].  `interval_ms` must be 1.0,
`start_utc_us` an integer spelled as the writer spells it (ASCII digits,
an optional minus, no leading zeros, so a rewrite keeps the bytes), the
indices must run 0, 1, 2, ... and every sample must be finite and inside
[0, 1].  Anything else raises `TraceFormatError`.
"""
from __future__ import annotations

import os
import re
import tempfile
from itertools import chain

import numpy as np

from .errors import TraceFormatError
from .rig import RawCapture

VALUE_DECIMALS = 6
_PHOTO_COLUMNS = ("photo0", "photo1", "photo2", "photo3")
_HEADER_COLUMNS = ("interval_index", "pot_raw") + _PHOTO_COLUMNS
_HEADER_LINE = ",".join(_HEADER_COLUMNS)
_VALUE_COLUMNS = len(_HEADER_COLUMNS) - 1
_START_LITERAL = re.compile(r"0|-?[1-9][0-9]*")
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
        interval_ms=capture.interval_ms,
        pot=np.round(capture.pot, VALUE_DECIMALS),
        photo=np.round(capture.photo, VALUE_DECIMALS),
    )


def atomic_write_text(path: str, text: str):
    """Write via a temp file and rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def format_trace(capture: RawCapture) -> str:
    chunks = [
        f"# station_id = {capture.station_id}\n"
        f"# start_utc_us = {capture.start_utc_us!r}\n"
        f"# interval_ms = {capture.interval_ms!r}\n"
        f"{_HEADER_LINE}\n"
    ]
    n = len(capture)
    for lo in range(0, n, _FORMAT_CHUNK_ROWS):
        hi = min(lo + _FORMAT_CHUNK_ROWS, n)
        rows = zip(range(lo, hi), capture.pot[lo:hi].tolist(),
                   *capture.photo[lo:hi].T.tolist())
        chunks.append(_ROW_TEMPLATE * (hi - lo) % tuple(chain.from_iterable(rows)))
    return "".join(chunks)


def write_trace(path: str, capture: RawCapture):
    atomic_write_text(path, format_trace(capture))


def read_trace(path: str) -> RawCapture:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    return parse_trace(text, source=path)


def parse_trace(text: str, source: str = "<string>") -> RawCapture:
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
    if not rows:
        raise TraceFormatError(f"{source}: trace contains no samples")
    try:
        table = _load_rows(rows)
    except ValueError:
        _raise_first_bad_row(rows, linenos, source)
    _check_order(table["interval_index"], linenos, source)

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
    start_utc_us = int(meta["start_utc_us"])
    try:
        interval_ms = float(meta["interval_ms"])
    except ValueError as exc:
        raise TraceFormatError(f"{source}: bad header value: {exc}") from exc
    if interval_ms != 1.0:
        raise TraceFormatError(
            f"{source}: interval_ms must be 1.0, got {meta['interval_ms']!r}; "
            f"the estimator reads every row as one 1 ms sample"
        )
    values = table["values"]
    # nan and inf would decode into a plausible but meaningless capture
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        index = int(np.argmin(finite))
        raise TraceFormatError(
            f"{source}: interval_index {index} holds a non-finite sample"
        )
    # every sensor reads in [0, 1] and traces are written clipped
    outside = ((values < 0.0) | (values > 1.0)).any(axis=1)
    if outside.any():
        index = int(np.argmax(outside))
        raise TraceFormatError(
            f"{source}: interval_index {index} holds a sample outside [0, 1]"
        )
    return RawCapture(
        station_id=meta["station_id"],
        start_utc_us=start_utc_us,
        interval_ms=interval_ms,
        pot=np.ascontiguousarray(values[:, 0]),
        photo=np.ascontiguousarray(values[:, 1:]),
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
