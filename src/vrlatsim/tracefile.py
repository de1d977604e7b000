"""Trace and report file I/O.

Captures are stored as CSV with a small comment header so a trace file
is self-describing: station id, capture start in UTC microseconds, and
the sampling interval.  Values are written with 6 decimal places, which
is below sensor noise and keeps files byte-stable across rewrite.  A
trace is bytes in and bytes out: `format_trace` returns the file's UTF-8
bytes (ASCII for everything this package writes), which `write_trace`
writes in binary mode, so they do not depend on the platform's locale
or line separator, and `parse_trace` reads bytes, never a str.
`read_trace` maps the file read-only and parses the map in place, so it
makes no heap copy of the file; only a file that cannot be mapped (an
empty file, a FIFO, a file under /proc) is read with read().  A file
truncated by another process while it is mapped can end the process
with SIGBUS; this package's writers only ever replace a file by rename,
which leaves a mapped file as it was.

A trace has one spelling, and the reader accepts exactly what the writer
writes:

    # station_id = <any text but LF>
    # start_utc_us = <integer: ASCII digits, an optional minus, no leading zeros>
    # interval_ms = 1.0
    interval_index,pot_raw,photo0,photo1,photo2,photo3
    0,d.dddddd,d.dddddd,d.dddddd,d.dddddd,d.dddddd

with one fixed-width row per sample, indices 0, 1, 2, ... and every
value in [0, 1], each line ending in LF, up to the end of the file
(`tracebody`).  `format_trace` and `write_trace` round every capture to
the 1e-6 grid as they spell it, so they write `quantize_capture`'s
bytes, and raise ValueError for a sample that does not round into
[0, 1] or rounds to -0.0, a station id that holds LF or a start that
is not an integer strictly between -2**53 and 2**53.  `parse_trace`
raises `TraceFormatError` for anything else, CRLF line ends, blank or
comment lines, padded fields, metadata below the body and other
spellings of a number included, naming the file line of the first byte
off the template.  The reader is strict because the estimator takes
every row as one 1 ms sample of sensors that read in [0, 1], and because
every file it accepts then rewrites to the same bytes.
"""
from __future__ import annotations

import mmap
import operator
import os
import re
from dataclasses import fields

import numpy as np

from . import tracebody
from .errors import TraceFormatError
from .rig import RawCapture

VALUE_DECIMALS = tracebody.DECIMALS
_HEADER_COLUMNS = ("interval_index",) + tracebody.COLUMN_NAMES
_HEADER_LINE = ",".join(_HEADER_COLUMNS)
_HEADER_BYTES = (_HEADER_LINE + "\n").encode()
# the file line of row 0, below three metadata lines and the column header
_FIRST_ROW_LINE = 5
# int() would also take "1_000", "+5", "007" and non-ASCII digits, which a
# rewrite spells differently
_START_LITERAL = re.compile(rb"0|-?[1-9][0-9]*")
# a remote run counts true time in float us, exact only below 2**53; every
# start this package writes is at most 9e15
_START_LIMIT_US = 2 ** 53
# the only interval the estimator reads, spelled as the writer spells it
_INTERVAL_LITERAL = "1.0"
_ROW_PATTERN = ",".join(["{row}"] + ["d.dddddd"] * tracebody.COLUMNS)


def quantize_capture(capture: RawCapture) -> RawCapture:
    """Round sensor values to the on-disk precision.

    Running the estimator on a rounded capture guarantees the result
    matches what a later run computes from the written file.
    """
    return RawCapture(
        station_id=capture.station_id,
        start_utc_us=capture.start_utc_us,
        pot=capture.pot.round(VALUE_DECIMALS),
        photo=capture.photo.round(VALUE_DECIMALS),
    )


def atomic_write_text(path: str, text: str | bytes):
    """Write via a temp file and rename so readers never see partial output.

    `text` is a str, written as UTF-8, or bytes written as they are; either
    way in binary mode, so no newline translation takes place.
    """
    data = text.encode() if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    # created as open() creates a file, so the umask sets its mode (a
    # mkstemp file keeps 0600 through the rename); O_EXCL refuses a clash
    tmp_path = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def format_trace(capture: RawCapture) -> bytearray:
    """The trace file's bytes, or ValueError for a capture the reader
    would refuse."""
    return tracebody.format_rows(_header_text(capture).encode(),
                                 capture.pot, capture.photo)


def write_trace(path: str, capture: RawCapture):
    atomic_write_text(path, format_trace(capture))


def read_trace(path: str) -> RawCapture:
    try:
        with open(path, "rb") as handle:
            data = _file_data(handle)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
    try:
        return parse_trace(data, source=path)
    except TraceFormatError as exc:
        # the frames of exc's traceback hold views of the map; a new error
        # without them lets the map go as soon as `data` goes too, however
        # long the caller keeps the error.  close() instead would raise
        # BufferError while a view is alive, masking the error.
        error = TraceFormatError(*exc.args)
    del data
    raise error


def _file_data(handle):
    """The bytes of an open file: a read-only map of it, or for a file that
    cannot be mapped (an empty file, a FIFO, a file under /proc) what
    read() returns."""
    try:
        return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        return handle.read()


def parse_trace(data: bytes | bytearray | mmap.mmap,
                source: str = "<string>") -> RawCapture:
    """Read a trace from the file's bytes.

    The bytes may be bytes, a bytearray or a read-only mmap: the parser
    only finds, slices and views them.  Each line is checked in file
    order, so the error names the first bad one.
    """
    station_id, at = _meta_value(data, 0, 1, "station_id", source)
    try:
        station_id = station_id.decode()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{source}:1: not UTF-8 text: {exc}") from None
    start, at = _meta_value(data, at, 2, "start_utc_us", source)
    if not _START_LITERAL.fullmatch(start):
        raise TraceFormatError(
            f"{source}:2: bad header value: start_utc_us must be a plain "
            f"integer, got {_text(start[:100])!r}"
        )
    # checked by length first: int() refuses more than 4300 digits
    if len(start) > len(str(-_START_LIMIT_US)) or abs(int(start)) >= _START_LIMIT_US:
        raise TraceFormatError(
            f"{source}:2: bad header value: start_utc_us must lie strictly "
            f"between -2**53 and 2**53, got {_text(start[:100])!r}"
        )
    interval, at = _meta_value(data, at, 3, "interval_ms", source)
    if interval != _INTERVAL_LITERAL.encode():
        raise TraceFormatError(
            f"{source}:3: interval_ms must be 1.0, got {_text(interval)!r}; "
            f"the estimator reads every row as one 1 ms sample"
        )
    if data[at:at + len(_HEADER_BYTES)] != _HEADER_BYTES:
        raise TraceFormatError(f"{source}:4: expected column header "
                               f"{_HEADER_LINE!r}, got {_line_at(data, at)}")
    try:
        pot, photo = tracebody.parse_rows(data, at + len(_HEADER_BYTES))
    except tracebody.RowError as exc:
        row, at = exc.args
        raise TraceFormatError(
            f"{source}:{_FIRST_ROW_LINE + row}: expected row "
            f"'{_ROW_PATTERN.format(row=row)}' with every value in [0, 1], "
            f"got {_line_at(data, at)}"
        ) from None
    return RawCapture(station_id=station_id, start_utc_us=int(start),
                      pot=pot, photo=photo)


# ---------------------------------------------------------------------------
# the header


def _header_text(capture: RawCapture) -> str:
    """The four header lines, or ValueError for a value the reader refuses."""
    if "\n" in capture.station_id:
        raise ValueError(f"station_id {capture.station_id!r} holds a line feed, "
                         f"which would end its header line")
    try:
        start = operator.index(capture.start_utc_us)
    except TypeError:
        raise ValueError(f"start_utc_us must be an integer, "
                         f"got {capture.start_utc_us!r}") from None
    if abs(start) >= _START_LIMIT_US:
        # not spelled out: str() refuses an int of more than 4300 digits
        raise ValueError("start_utc_us must lie strictly between -2**53 and 2**53")
    return (
        f"# station_id = {capture.station_id}\n"
        f"# start_utc_us = {start}\n"
        f"# interval_ms = {_INTERVAL_LITERAL}\n"
        f"{_HEADER_LINE}\n"
    )


def _meta_value(data: bytes, at: int, lineno: int, key: str, source: str):
    """The value of the `# key = value` line at offset `at`, as bytes, and
    the offset of the next line."""
    prefix = f"# {key} = ".encode()
    end = data.find(b"\n", at)
    if end < 0 or data[at:at + len(prefix)] != prefix:
        raise TraceFormatError(f"{source}:{lineno}: expected '# {key} = ...', "
                               f"got {_line_at(data, at)}")
    return data[at + len(prefix):end], end + 1


def _text(data: bytes) -> str:
    return data.decode(errors="backslashreplace")


def _line_at(data: bytes, at: int) -> str:
    """The line of `data` from offset `at`, for a message."""
    if at >= len(data):
        return "the end of the file"
    end = data.find(b"\n", at)
    line = data[at:] if end < 0 else data[at:end + 1]
    return repr(_text(line[:100]))


# ---------------------------------------------------------------------------
# report files

def format_report(report) -> str:
    """Fields in their declared order; absent metrics are omitted, not nulled."""
    lines = []
    for field in fields(report):
        key = field.name
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


def format_batch_summary(reports: list, base_seed: int, failures: list) -> str:
    """The spread of each batch metric over the reports of the runs that
    succeeded, then one line per failed (run_index, message)."""
    lines = [f"runs = {len(reports)}", f"base_seed = {base_seed}"]
    for metric in ("motion_to_photon_ms", "remote_latency_ms",
                   "mouth_to_ear_ms", "peak_coefficient"):
        values = [getattr(r, metric) for r in reports
                  if getattr(r, metric) is not None]
        if not values:
            continue
        values = np.asarray(values, dtype=float)
        sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
        lines.append(
            f"{metric}: avg = {values.mean():.6f}, min = {values.min():.6f}, "
            f"max = {values.max():.6f}, sd = {sd:.6f}"
        )
    for run_index, message in failures:
        lines.append(f"run {run_index} failed: {message}")
    return "\n".join(lines) + "\n"
