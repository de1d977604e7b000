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
are integer codes, centred once on their global means rounded to the
nearest integer, so that every sum below is exact and its bits do not
depend on the BLAS kernel.  Every window misses at most the
largest lag's samples at either end, so its sum and sum of squares are
the whole series' total less a short prefix sum of the cut head and a
short suffix sum of the cut tail.  The cross products of all lags come
from blocked matrix products: both series are cut into rows of
`_LAG_BLOCK` samples, and the product of x's rows with y's rows
shifted by k rows sums the pairs of samples k rows apart, give or take
one row, so one matmul over a strided stack of the shifted rows serves
all lags and each block reads the series once instead of once per lag.
On integer codes every entry and every sum is an integer below 2**53,
so the blocking changes no bit.  Whether a window is constant is
decided exactly, by counting the value changes inside it, never from a
floating-point variance.
"""
from __future__ import annotations

import functools
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

# default lag search window; generous for every preset (the deepest
# frame queue preset sits near 117 ms) while keeping the 10x trace
# length requirement satisfiable with the default 5 s capture
DEFAULT_MAX_LAG_MS = 200
MIN_LENGTH_FACTOR = 10           # traces must be >= 10x the lag search range
BLACK_THRESHOLD = codec.LEVEL_STEP / 2.0
PEAK_WARNING_LEVEL = 0.9         # noiseless runs peak above 0.99; below this
                                 # the estimate should not be trusted


@dataclass(frozen=True)
class DecodedTrace:
    values: np.ndarray           # one code per 1 ms interval
    start_utc_us: int
    held_fraction: float = 0.0   # fraction of intervals without fresh light


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
    return DecodedTrace(values=codes, start_utc_us=capture.start_utc_us)


def decode_display_trace(capture: RawCapture) -> DecodedTrace:
    """Decode the photosensor channels into a held code series.

    An interval is lit when any field exceeds the black threshold (half
    a level).  Each maximal run of lit intervals is one strobe burst;
    its code comes from the sample with the highest summed luminance,
    which is the most settled one because the sensor rises monotonically
    while lit and only decays afterwards.  Intervals before the first
    burst are filled with the first code so the trace keeps its
    length.
    """
    lum = np.asarray(capture.photo, dtype=float)
    n = lum.shape[0]
    # row reductions over the 4 fields, column by column: numpy is slow
    # at reducing an axis this short, and the same operations in the same
    # order give bitwise the same maxima and sums
    c0, c1, c2, c3 = lum.T
    lit = np.maximum(np.maximum(c0, c1), np.maximum(c2, c3)) >= BLACK_THRESHOLD
    if not lit.any():
        raise DecodeError(
            f"photosensor trace never exceeds {BLACK_THRESHOLD:.4f} "
            f"in {n} intervals; the display looks permanently dark"
        )
    padded = np.concatenate(([False], lit, [False])).astype(np.int8)
    edges = padded[1:] - padded[:-1]
    starts = (edges == 1).nonzero()[0]
    ends = (edges == -1).nonzero()[0]
    lengths = ends - starts

    # segmented argmax of summed luminance over the lit rows; the first
    # maximal row of a burst wins, as np.argmax would pick it, and so does
    # a NaN total (a lit row holding both inf and -inf)
    rows = lit.nonzero()[0]
    totals = ((c0[rows] + c1[rows]) + c2[rows]) + c3[rows]
    offsets = np.concatenate(([0], lengths.cumsum()[:-1]))
    burst_of_row = np.arange(starts.shape[0]).repeat(lengths)
    peak = np.maximum.reduceat(totals, offsets)
    candidates = ((totals == peak[burst_of_row]) | np.isnan(totals)).nonzero()[0]
    burst = burst_of_row[candidates]
    first = np.concatenate(([True], burst[1:] != burst[:-1]))
    picks = rows[candidates[first]]
    burst_codes = codec.decode(codec.classify_luminance(lum[picks]))

    # each code holds from its burst's start to the next one; the first
    # also covers the intervals before it
    bounds = np.concatenate(([0], starts[1:], [n]))
    values = burst_codes.repeat(bounds[1:] - bounds[:-1])
    return DecodedTrace(
        values=values,
        start_utc_us=capture.start_utc_us,
        held_fraction=float(1.0 - np.count_nonzero(lit) / n),
    )


def _window_sums(x: np.ndarray, lo: np.ndarray, length: np.ndarray,
                 squares: bool = False) -> np.ndarray:
    """Sum of x[lo:lo+length] (of its squares if `squares`) for every
    (lo, length) pair, from the edges.

    Each window is the whole series less a cut head x[:lo] and a cut
    tail x[lo+length:], and neither is longer than the largest lag, so
    the sums need the total plus a prefix sum of the first and a suffix
    sum of the last max(lo) and max(n - lo - length) values only.  With
    `squares`, only those cut values are squared and the total is
    `np.dot(x, x)`, whose summation order is the BLAS kernel's: callers
    pass integer values, whose sums of squares are exact below 2**53.
    """
    cut = x.shape[0] - lo - length
    head = x[:lo.max()]
    tail = x[::-1][:cut.max()]
    if squares:
        total, head, tail = np.dot(x, x), head * head, tail * tail
    else:
        total = x.sum()
    head = np.concatenate(([0.0], head.cumsum()))
    tail = np.concatenate(([0.0], tail.cumsum()))
    return total - head[lo] - tail[cut]


def _constant_windows(x: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
    """True where x[lo:lo+length] holds a single value, compared exactly.

    A window is constant when no change position p, where x[p + 1] !=
    x[p], falls in lo <= p < lo + length - 1; two binary searches over
    the sorted change positions count them.
    """
    changes = (x[1:] != x[:-1]).nonzero()[0]
    return changes.searchsorted(lo + length - 1) == changes.searchsorted(lo)


# samples per row of the blocked lag products, chosen by measurement: at
# 200 lags, 16 beat 8, 32 and 64 on 3 s, 20 s and 60 s traces (at 60 s,
# 32 took 40% longer)
_LAG_BLOCK = 16


@functools.lru_cache(maxsize=8)
def _lag_index(max_lag: int) -> np.ndarray:
    """Lag of every entry of the blocked products, max_lag + 1 if unused.

    Entry (r, s) of block k pairs samples k * _LAG_BLOCK + s - r apart;
    the lags outside 0..max_lag all go to the one spare bin max_lag + 1.
    The array is shared between calls, so it is read-only.
    """
    k, r, s = np.ogrid[:max_lag // _LAG_BLOCK + 2, :_LAG_BLOCK, :_LAG_BLOCK]
    lag = k * _LAG_BLOCK + s - r
    index = np.where((lag >= 0) & (lag <= max_lag), lag, max_lag + 1).ravel()
    index.flags.writeable = False
    return index


def _lagged_dots(x: np.ndarray, y: np.ndarray, max_lag: int) -> np.ndarray:
    """sum(x[i] * y[i + L] for i < n - L) for every L in 0..max_lag.

    Both series, zero-padded, are cut into rows of _LAG_BLOCK samples.
    With X the rows of x and Y_k those of y from row k on, entry (r, s)
    of the matrix product X.T @ Y_k sums every pair of samples
    k * _LAG_BLOCK + s - r apart, and blocks k = 0 .. max_lag //
    _LAG_BLOCK + 1 hold every pair of every lag exactly once.  Each
    block streams both series once for _LAG_BLOCK**2 outputs, where one
    dot product per lag streams them once per lag.  A `np.bincount`
    over the cached `_lag_index` adds up each lag's entries.

    On integer codes centred on an integer, |x|, |y| <= 4095, every
    block entry and every partial sum of the bincount is an integer no
    larger than sum(|x| |y|) <= n * 4095**2, which is below 2**53 for
    any trace shorter than 5e8 samples (an hour is 3.6e6).  So each is
    exact, and the bits depend neither on the BLAS kernel nor on the
    block width or the summation order.
    """
    n = x.shape[0]
    blocks = max_lag // _LAG_BLOCK + 2
    rows = -(-n // _LAG_BLOCK)
    xr = np.zeros(rows * _LAG_BLOCK)
    xr[:n] = x
    xr = xr.reshape(rows, _LAG_BLOCK).T
    yr = np.zeros((rows + blocks - 1) * _LAG_BLOCK)
    yr[:n] = y
    # block k is y's rows k .. k + rows - 1: a strided view of yr stacks
    # every block without copying, and one matmul makes all the products.
    # np.ndarray makes the view in one call; sliding_window_view's Python
    # checks took about 0.25 ms per search with cold caches (3 s traces)
    step = _LAG_BLOCK * yr.itemsize
    stack = np.ndarray((blocks, rows, _LAG_BLOCK), yr.dtype, yr, 0,
                       (step, step, yr.itemsize))
    products = np.matmul(xr, stack)
    return np.bincount(_lag_index(max_lag), weights=products.ravel(),
                       minlength=max_lag + 2)[:max_lag + 1]


def cross_correlate(reference: DecodedTrace, delayed: DecodedTrace,
                    max_lag_ms: int = DEFAULT_MAX_LAG_MS,
                    allow_negative: bool = False) -> CorrelationResult:
    """Pearson correlation of two code series over integer-millisecond lags.

    Both traces hold integer codes; any other dtype raises TypeError.  A
    lag L >= 0 compares reference[0:N-L] against delayed[L:N]; negative
    lags (opt-in) shift the other way.  Ties resolve to the smallest lag.
    """
    ref = np.asarray(reference.values)
    dly = np.asarray(delayed.values)
    if ref.dtype.kind not in "iu" or dly.dtype.kind not in "iu":
        raise TypeError(f"cross_correlate takes integer codes, got {ref.dtype} "
                        f"and {dly.dtype}")
    if max_lag_ms <= 0:
        raise EstimationError("max_lag_ms must be positive")
    n = min(ref.shape[0], dly.shape[0])
    # float copies, centred in place below
    a = np.array(ref[:n], dtype=float)
    b = np.array(dly[:n], dtype=float)
    del ref, dly
    if n < MIN_LENGTH_FACTOR * max_lag_ms:
        raise EstimationError(
            f"traces of {n} intervals are too short for a lag search of "
            f"{max_lag_ms} ms (need at least {MIN_LENGTH_FACTOR * max_lag_ms})"
        )
    first = -max_lag_ms if allow_negative else 0
    lags = np.arange(first, max_lag_ms + 1)
    # lag L compares a[lo_ref:lo_ref+m] with b[lo_del:lo_del+m]
    lo_ref = np.maximum(-lags, 0)
    lo_del = np.maximum(lags, 0)
    m = n - np.abs(lags)
    # a constant window carries no alignment information and scores 0;
    # lag 0's windows are the whole traces
    constant_a = _constant_windows(a, lo_ref, m)
    constant_b = _constant_windows(b, lo_del, m)
    if constant_a[-first] or constant_b[-first]:
        raise CorrelationUndefinedError(
            "correlation is undefined for a constant trace"
        )
    scored = ~(constant_a | constant_b)
    # centred on integers, every product and every window and lag sum
    # is an exact integer below 2**53 (4095**2 x 3.6e6 samples = 6.0e13),
    # so any summation order, i.e. any BLAS kernel, gives the same bits,
    # and squaring only the cut edges gives the bits of squaring the
    # whole series
    a -= np.rint(a.sum() / n)
    b -= np.rint(b.sum() / n)
    sum_a = _window_sums(a, lo_ref, m)
    sum_b = _window_sums(b, lo_del, m)
    var_a = _window_sums(a, lo_ref, m, squares=True) - sum_a * sum_a / m
    var_b = _window_sums(b, lo_del, m, squares=True) - sum_b * sum_b / m
    sum_ab = _lagged_dots(a, b, max_lag_ms)
    if allow_negative:
        # lag -L is lag L with the roles swapped
        sum_ab = np.concatenate((_lagged_dots(b, a, max_lag_ms)[:0:-1], sum_ab))
    cov = sum_ab - sum_a * sum_b / m
    coeffs = np.zeros(lags.shape[0])
    coeffs[scored] = cov[scored] / np.sqrt(var_a[scored] * var_b[scored])
    coeffs = np.clip(coeffs, -1.0, 1.0)
    best = int(coeffs.argmax())  # first occurrence, i.e. the smallest lag
    return CorrelationResult(
        lags_ms=lags,
        coefficients=coeffs,
        best_lag_ms=int(lags[best]),
        peak_coefficient=float(coeffs[best]),
        trace_length=n,
    )


def align_on_utc(reference: DecodedTrace, delayed: DecodedTrace):
    """Both value series from their common UTC start, cut to their overlap.

    Start timestamps are aligned by integer-millisecond re-indexing: the
    earlier trace drops its head so both begin at the same UTC interval.
    """
    shift_ms = int(round((delayed.start_utc_us - reference.start_utc_us) / 1000.0))
    ref_vals = np.asarray(reference.values)[max(shift_ms, 0):]
    del_vals = np.asarray(delayed.values)[max(-shift_ms, 0):]
    overlap = min(ref_vals.shape[0], del_vals.shape[0])
    return ref_vals[:overlap], del_vals[:overlap]


def estimate_remote(sender_pot: DecodedTrace, receiver_display: DecodedTrace,
                    max_lag_ms: int = DEFAULT_MAX_LAG_MS,
                    allow_negative: bool = False) -> CorrelationResult:
    """Cross-correlate traces from two stations on a common UTC grid.

    The traces are aligned by `align_on_utc`.
    """
    ref_vals, del_vals = align_on_utc(sender_pot, receiver_display)
    overlap = ref_vals.shape[0]
    if overlap < MIN_LENGTH_FACTOR * max_lag_ms:
        raise AlignmentError(
            f"traces overlap for only {overlap} intervals after alignment; "
            f"a lag search of {max_lag_ms} ms needs "
            f"{MIN_LENGTH_FACTOR * max_lag_ms}"
        )
    common_start = max(sender_pot.start_utc_us, receiver_display.start_utc_us)
    return cross_correlate(DecodedTrace(ref_vals, common_start),
                           DecodedTrace(del_vals, common_start),
                           max_lag_ms, allow_negative)


def build_report(*, local: CorrelationResult,
                 mouth_to_ear_ms: int | None = None,
                 remote: CorrelationResult | None = None,
                 remote_direction: str | None = None,
                 display_trace: DecodedTrace | None = None) -> LatencyReport:
    """Assemble the consolidated latency report for one run.

    Diagnostics (peak coefficient, decode error rate, trace length) come
    from the primary estimate: the remote one when present, the local
    loop otherwise.  Raises EstimationError when either best lag is an
    edge of its lag window, the last lag or a negative first one: the
    peak may lie beyond what was searched.
    """
    for what, result in (("local", local), ("remote", remote)):
        if result is not None and (result.best_lag_ms == result.lags_ms[-1]
                                   or result.best_lag_ms == result.lags_ms[0] < 0):
            raise EstimationError(
                f"{what} best lag {result.best_lag_ms} ms is on the edge of the "
                f"lag window [{result.lags_ms[0]}, {result.lags_ms[-1]}] ms, so "
                "the peak may lie beyond it; widen --max-lag")
    primary = remote if remote is not None else local
    warnings = []
    if primary.peak_coefficient < PEAK_WARNING_LEVEL:
        warnings.append("low_peak_coefficient")
    if primary.best_lag_ms < 0:
        warnings.append("negative_lag")
    return LatencyReport(
        motion_to_photon_ms=local.best_lag_ms,
        mouth_to_ear_ms=mouth_to_ear_ms,
        remote_direction=remote_direction if remote is not None else None,
        remote_latency_ms=None if remote is None else remote.best_lag_ms,
        peak_coefficient=primary.peak_coefficient,
        decode_error_rate=(
            None if display_trace is None else display_trace.held_fraction
        ),
        trace_length=primary.trace_length,
        warnings=tuple(warnings),
    )
