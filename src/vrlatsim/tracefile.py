"""Trace and report file I/O.

Captures are stored as CSV with a small comment header so a trace file
is self-describing: station id, capture start in UTC microseconds, and
the sampling interval.  Values are written with 6 decimal places, which
is below sensor noise and keeps files byte-stable across rewrite.
"""
from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import TraceFormatError
from .rig import RawCapture

VALUE_DECIMALS = 6
_PHOTO_COLUMNS = ("photo0", "photo1", "photo2", "photo3")
_HEADER_COLUMNS = ("interval_index", "pot_raw") + _PHOTO_COLUMNS


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
    lines = [
        f"# station_id = {capture.station_id}",
        f"# start_utc_us = {capture.start_utc_us!r}",
        f"# interval_ms = {capture.interval_ms!r}",
        ",".join(_HEADER_COLUMNS),
    ]
    fmt = f"%.{VALUE_DECIMALS}f"
    for i in range(len(capture)):
        row = [str(i), fmt % capture.pot[i]]
        row.extend(fmt % v for v in capture.photo[i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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
    pot = []
    photo = []
    saw_header = False
    expected_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if not saw_header:
            if line != ",".join(_HEADER_COLUMNS):
                raise TraceFormatError(
                    f"{source}:{lineno}: expected column header "
                    f"{','.join(_HEADER_COLUMNS)!r}, got {line!r}"
                )
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != len(_HEADER_COLUMNS):
            raise TraceFormatError(
                f"{source}:{lineno}: expected {len(_HEADER_COLUMNS)} columns, "
                f"got {len(parts)}"
            )
        try:
            index = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise TraceFormatError(f"{source}:{lineno}: {exc}") from exc
        if index != expected_index:
            raise TraceFormatError(
                f"{source}:{lineno}: interval_index {index} out of order "
                f"(expected {expected_index})"
            )
        expected_index += 1
        pot.append(values[0])
        photo.append(values[1:])

    if not saw_header:
        raise TraceFormatError(f"{source}: missing column header line")
    if not pot:
        raise TraceFormatError(f"{source}: trace contains no samples")
    for key in ("station_id", "start_utc_us", "interval_ms"):
        if key not in meta:
            raise TraceFormatError(f"{source}: missing '# {key} = ...' header")
    try:
        raw_start = meta["start_utc_us"]
        # keep integer starts integral so a rewrite is byte-identical
        start_utc_us = float(raw_start) if "." in raw_start else int(raw_start)
        interval_ms = float(meta["interval_ms"])
    except ValueError as exc:
        raise TraceFormatError(f"{source}: bad header value: {exc}") from exc
    pot = np.asarray(pot, dtype=float)
    photo = np.asarray(photo, dtype=float)
    # float() accepts nan and inf, which would decode into a plausible
    # but meaningless capture
    finite = np.isfinite(pot) & np.isfinite(photo).all(axis=1)
    if not finite.all():
        index = int(np.argmin(finite))
        raise TraceFormatError(
            f"{source}: interval_index {index} holds a non-finite sample"
        )
    return RawCapture(
        station_id=meta["station_id"],
        start_utc_us=start_utc_us,
        interval_ms=interval_ms,
        pot=pot,
        photo=photo,
    )


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
