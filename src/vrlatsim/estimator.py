"""Trace decoding and cross-correlation latency estimation.

Both capture channels are reduced to code series on the common 1 ms
interval grid.  The potentiometer channel quantizes directly.  The
display channel sees light only during each frame's strobe, so decoding
groups consecutive lit intervals into bursts, classifies the most
settled sample of each burst (the one with the highest total luminance,
which rejects rise and decay transients of the sensor), and holds that
code until the next burst.  Dark intervals therefore repeat the last
valid code.  The decode is one whole-array pass: a segmented maximum
over the lit rows picks every burst's sample at once, and a single
classify/decode call turns all picked samples into codes.

Latency is the lag, in whole milliseconds, that maximizes the Pearson
correlation between the reference and the delayed series.  Both series
are centred once on their global means; the window sums and sums of
squares of every lag come from prefix sums, and only the cross product
is taken per lag.  Whether a window is constant is decided exactly, from
a prefix count of value changes, never from a floating-point variance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import codec
from .errors import (
    AlignmentError,
    CorrelationUndefinedError,
    DecodeError,
    EstimationError,
)
from .rig import RawCapture

DEFAULT_MAX_LAG_MS = 500
MIN_LENGTH_FACTOR = 10           # traces must be >= 10x the lag search range
BLACK_THRESHOLD = codec.LEVEL_STEP / 2.0
PEAK_WARNING_LEVEL = 0.9         # noiseless runs peak above 0.99; below this
                                 # the estimate should not be trusted


@dataclass(frozen=True)
class DecodedTrace:
    values: np.ndarray           # one code per 1 ms interval
    source: str                  # "potentiometer" or "display"
    start_utc_us: int
    held_fraction: float = 0.0   # fraction of intervals without fresh light

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class CorrelationResult:
    lags_ms: np.ndarray
    coefficients: np.ndarray
    best_lag_ms: int
    peak_coefficient: float
    trace_length: int            # intervals actually compared


@dataclass(frozen=True)
class LatencyReport:
    motion_to_photon_ms: int | None = None
    mouth_to_ear_ms: int | None = None
    remote_direction: str | None = None
    remote_latency_ms: int | None = None
    peak_coefficient: float | None = None
    decode_error_rate: float | None = None
    trace_length: int | None = None
    warnings: tuple = field(default_factory=tuple)


def decode_pot_trace(capture: RawCapture) -> DecodedTrace:
    """Quantize the normalized potentiometer channel to the code scale."""
    codes = codec.quantize_angle_clamped(np.asarray(capture.pot, dtype=float), 1.0)
    return DecodedTrace(
        values=codes,
        source="potentiometer",
        start_utc_us=capture.start_utc_us,
        held_fraction=0.0,
    )


def decode_display_trace(capture: RawCapture, *,
                         black_threshold: float = BLACK_THRESHOLD) -> DecodedTrace:
    """Decode the photosensor channels into a held code series.

    An interval is lit when any field exceeds the black threshold (half
    a level).  Each maximal run of lit intervals is one strobe burst;
    its code comes from the sample with the highest summed luminance,
    which is the most settled one because the sensor rises monotonically
    while lit and only decays afterwards.  Intervals before the first
    burst are backfilled with the first code so the trace keeps its
    length.
    """
    lum = np.asarray(capture.photo, dtype=float)
    n = lum.shape[0]
    lit = lum.max(axis=1) >= black_threshold
    if not lit.any():
        raise DecodeError(
            f"photosensor trace never exceeds {black_threshold:.4f} "
            f"in {n} intervals; the display looks permanently dark"
        )
    padded = np.concatenate(([False], lit, [False]))
    edges = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)

    # segmented argmax of summed luminance over the lit rows; the first
    # maximal row of a burst wins, as np.argmax would pick it, and so does
    # a NaN total (a lit row holding both inf and -inf)
    rows = np.flatnonzero(lit)
    totals = lum.sum(axis=1)[rows]
    offsets = np.concatenate(([0], np.cumsum(ends - starts)[:-1]))
    burst_of_row = np.repeat(np.arange(starts.shape[0]), ends - starts)
    peak = np.maximum.reduceat(totals, offsets)
    candidates = np.flatnonzero((totals == peak[burst_of_row]) | np.isnan(totals))
    first = np.concatenate(([True], np.diff(burst_of_row[candidates]) != 0))
    picks = rows[candidates[first]]
    burst_codes = codec.decode(codec.classify_luminance(lum[picks]))

    idx = np.searchsorted(starts, np.arange(n), side="right") - 1
    values = burst_codes[np.maximum(idx, 0)]
    return DecodedTrace(
        values=values,
        source="display",
        start_utc_us=capture.start_utc_us,
        held_fraction=float(1.0 - lit.mean()),
    )


def _window_sums(x: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Sum of x[lo:lo+length] for every (lo, length) pair, from one prefix sum."""
    prefix = np.concatenate(([0.0], np.cumsum(x)))
    return prefix[lo + length] - prefix[lo]


def _constant_windows(x: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """True where x[lo:lo+length] holds a single value, compared exactly."""
    changes = np.concatenate(([0], np.cumsum(x[1:] != x[:-1])))
    return changes[lo + length - 1] == changes[lo]


def cross_correlate(reference: DecodedTrace, delayed: DecodedTrace,
                    max_lag_ms: int = DEFAULT_MAX_LAG_MS,
                    allow_negative: bool = False) -> CorrelationResult:
    """Pearson correlation over integer-millisecond lags.

    A lag L >= 0 compares reference[0:N-L] against delayed[L:N]; negative
    lags (opt-in) shift the other way.  Ties resolve to the smallest lag.
    """
    if max_lag_ms <= 0:
        raise EstimationError("max_lag_ms must be positive")
    ref = np.asarray(reference.values, dtype=float)
    del_ = np.asarray(delayed.values, dtype=float)
    n = min(ref.shape[0], del_.shape[0])
    ref, del_ = ref[:n], del_[:n]
    if n < MIN_LENGTH_FACTOR * max_lag_ms:
        raise EstimationError(
            f"traces of {n} intervals are too short for a lag search of "
            f"{max_lag_ms} ms (need at least {MIN_LENGTH_FACTOR * max_lag_ms})"
        )
    if np.ptp(ref) == 0 or np.ptp(del_) == 0:
        raise CorrelationUndefinedError(
            "correlation is undefined for a constant trace"
        )
    first = -max_lag_ms if allow_negative else 0
    lags = np.arange(first, max_lag_ms + 1)
    # lag L compares ref[lo_ref:lo_ref+m] with del_[lo_del:lo_del+m]
    lo_ref = np.maximum(-lags, 0)
    lo_del = np.maximum(lags, 0)
    m = n - np.abs(lags)
    a = ref - ref.mean()
    b = del_ - del_.mean()
    sum_a = _window_sums(a, lo_ref, m)
    sum_b = _window_sums(b, lo_del, m)
    var_a = _window_sums(a * a, lo_ref, m) - sum_a * sum_a / m
    var_b = _window_sums(b * b, lo_del, m) - sum_b * sum_b / m
    sum_ab = np.array([np.dot(a[i:i + k], b[j:j + k])
                       for i, j, k in zip(lo_ref, lo_del, m)])
    cov = sum_ab - sum_a * sum_b / m
    # a constant window carries no alignment information and scores 0
    scored = ~(_constant_windows(ref, lo_ref, m) | _constant_windows(del_, lo_del, m))
    coeffs = np.zeros(lags.shape[0])
    coeffs[scored] = cov[scored] / np.sqrt(var_a[scored] * var_b[scored])
    coeffs = np.clip(coeffs, -1.0, 1.0)
    best = int(np.argmax(coeffs))  # first occurrence, i.e. the smallest lag
    return CorrelationResult(
        lags_ms=lags,
        coefficients=coeffs,
        best_lag_ms=int(lags[best]),
        peak_coefficient=float(coeffs[best]),
        trace_length=n,
    )


def estimate_remote(sender_pot: DecodedTrace, receiver_display: DecodedTrace,
                    max_lag_ms: int = DEFAULT_MAX_LAG_MS,
                    allow_negative: bool = False) -> CorrelationResult:
    """Cross-correlate traces from two stations on a common UTC grid.

    Start timestamps are aligned by integer-millisecond re-indexing: the
    earlier trace drops its head so both begin at the same UTC interval.
    """
    shift_ms = int(round(
        (receiver_display.start_utc_us - sender_pot.start_utc_us) / 1000.0
    ))
    ref_vals = np.asarray(sender_pot.values)
    del_vals = np.asarray(receiver_display.values)
    if shift_ms >= 0:
        ref_vals = ref_vals[shift_ms:]
    else:
        del_vals = del_vals[-shift_ms:]
    overlap = min(ref_vals.shape[0], del_vals.shape[0])
    if overlap < MIN_LENGTH_FACTOR * max_lag_ms:
        raise AlignmentError(
            f"traces overlap for only {overlap} intervals after alignment; "
            f"a lag search of {max_lag_ms} ms needs "
            f"{MIN_LENGTH_FACTOR * max_lag_ms}"
        )
    common_start = max(sender_pot.start_utc_us, receiver_display.start_utc_us)
    ref = DecodedTrace(ref_vals[:overlap], sender_pot.source, common_start,
                       sender_pot.held_fraction)
    dly = DecodedTrace(del_vals[:overlap], receiver_display.source, common_start,
                       receiver_display.held_fraction)
    return cross_correlate(ref, dly, max_lag_ms, allow_negative)


def build_report(*, local: CorrelationResult | None = None,
                 mouth_to_ear=None,
                 remote: CorrelationResult | None = None,
                 remote_direction: str | None = None,
                 display_trace: DecodedTrace | None = None) -> LatencyReport:
    """Assemble the consolidated latency report for one run.

    Diagnostics (peak coefficient, decode error rate, trace length) come
    from the primary estimate: the remote one when present, the local
    loop otherwise.
    """
    primary = remote if remote is not None else local
    warnings = []
    if primary is not None:
        if primary.peak_coefficient < PEAK_WARNING_LEVEL:
            warnings.append("low_peak_coefficient")
        if primary.best_lag_ms < 0:
            warnings.append("negative_lag")
    return LatencyReport(
        motion_to_photon_ms=None if local is None else local.best_lag_ms,
        mouth_to_ear_ms=None if mouth_to_ear is None else mouth_to_ear.intervals,
        remote_direction=remote_direction if remote is not None else None,
        remote_latency_ms=None if remote is None else remote.best_lag_ms,
        peak_coefficient=None if primary is None else primary.peak_coefficient,
        decode_error_rate=(
            None if display_trace is None else display_trace.held_fraction
        ),
        trace_length=None if primary is None else primary.trace_length,
        warnings=tuple(warnings),
    )
