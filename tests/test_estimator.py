"""Decoding and cross-correlation tests.

scipy.stats.pearsonr and np.corrcoef serve as independent correlation
oracles; a plain per-burst loop serves as the burst-decode oracle.
"""
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats

from vrlatsim import codec, estimator
from vrlatsim.errors import (
    AlignmentError,
    CorrelationUndefinedError,
    DecodeError,
    EstimationError,
)
from vrlatsim.estimator import DecodedTrace
from vrlatsim.rig import RawCapture


def make_capture(pot=None, photo=None, start_utc_us=0, station="A"):
    if pot is None:
        pot = np.zeros(photo.shape[0])
    if photo is None:
        photo = np.zeros((pot.shape[0], 4))
    return RawCapture(station_id=station, start_utc_us=start_utc_us,
                      interval_ms=1.0, pot=np.asarray(pot, dtype=float),
                      photo=np.asarray(photo, dtype=float))


def make_trace(values, start_utc_us=0, source="potentiometer"):
    return DecodedTrace(values=np.asarray(values), source=source,
                        start_utc_us=start_utc_us)


def random_walk_codes(rng, n):
    walk = 2000 + np.cumsum(rng.integers(-3, 4, size=n))
    return np.clip(walk, 0, codec.CODE_MAX)


def delay_by(values, lag):
    if lag == 0:
        return values.copy()
    return np.concatenate([np.full(lag, values[0]), values[:-lag]])


def test_pot_trace_quantizes_to_the_code_scale():
    capture = make_capture(pot=np.array([0.0, 0.5, 0.9999]))
    trace = estimator.decode_pot_trace(capture)
    assert list(trace.values) == [0, 2048, 4095]
    assert trace.source == "potentiometer"
    assert trace.held_fraction == 0.0


def _photo_rows_for(code, n_lit, n_dark, repeats, settled=1.0):
    lum = codec.digits_to_luminance(codec.encode(code)).astype(float)
    block = np.vstack([
        np.tile(lum * settled, (n_lit, 1)),
        np.zeros((n_dark, 4)),
    ])
    return np.tile(block, (repeats, 1))


def test_display_trace_decodes_a_constant_code():
    photo = _photo_rows_for(1234, n_lit=2, n_dark=9, repeats=20)
    trace = estimator.decode_display_trace(make_capture(photo=photo))
    assert np.all(trace.values == 1234)
    assert trace.source == "display"
    assert trace.held_fraction == pytest.approx(9 / 11)


def test_burst_decode_prefers_the_most_settled_sample():
    # within one burst the first sample is only 60% risen; taking it
    # would misread every digit, taking the brightest one cannot
    code = codec.decode([5, 2, 7, 1])
    lum = codec.digits_to_luminance(codec.encode(code)).astype(float)
    burst = np.vstack([lum * 0.6, lum * 0.99])
    frame = np.vstack([burst, np.zeros((9, 4))])
    photo = np.tile(frame, (15, 1))
    trace = estimator.decode_display_trace(make_capture(photo=photo))
    assert np.all(trace.values == code)


def test_intervals_before_the_first_burst_are_backfilled():
    photo = np.vstack([
        np.zeros((5, 4)),
        _photo_rows_for(777, n_lit=2, n_dark=9, repeats=10),
    ])
    trace = estimator.decode_display_trace(make_capture(photo=photo))
    assert np.all(trace.values[:5] == 777)


def _per_burst_decode(lum, black_threshold=estimator.BLACK_THRESHOLD):
    """Reference decode: one burst at a time, argmax within each burst."""
    n = lum.shape[0]
    lit = lum.max(axis=1) >= black_threshold
    padded = np.concatenate(([False], lit, [False]))
    edges = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    burst_codes = np.empty(starts.shape[0], dtype=np.int64)
    for i, (s, e) in enumerate(zip(starts, ends)):
        pick = s + int(np.argmax(lum[s:e].sum(axis=1)))
        burst_codes[i] = codec.decode(codec.classify_luminance(lum[pick]))
    idx = np.searchsorted(starts, np.arange(n), side="right") - 1
    return burst_codes[np.maximum(idx, 0)], float(1.0 - lit.mean())


# a small pool of rows, so that bursts often hold identical rows (exact
# ties in summed luminance) and rows with equal sums but different digits
_ROW_POOL = [
    [0.0, 0.0, 0.0, 0.0],               # dark
    [0.05, 0.0, 0.02, 0.0],             # dark, below half a level
    [0.0, 0.0, 0.0, 1 / 7],             # dim, lit on one field
    [1 / 7, 0.0, 0.0, 0.0],             # same sum, other digits
    [2 / 7, 3 / 7, 5 / 7, 1.0],
    [1.0, 5 / 7, 3 / 7, 2 / 7],         # same sum, other digits
    [0.6 * 2 / 7, 0.6 * 3 / 7, 0.6 * 5 / 7, 0.6],   # partly risen
    [0.5, 0.5, 0.5, 0.5],
    [0.25, 0.9, 0.1, 0.75],
]


@given(st.lists(st.sampled_from(range(len(_ROW_POOL))), min_size=1, max_size=80))
@example([4])                       # one one-sample burst spanning the trace
@example([4, 5, 0, 2, 0, 3])        # burst at index 0; one-sample bursts
@example([0, 0, 7, 7, 7])           # exact tie, burst runs to the last row
@example([1, 4, 5, 6, 5, 4])        # equal sums, different digits
def test_burst_decode_matches_the_per_burst_oracle(row_ids):
    lum = np.array([_ROW_POOL[i] for i in row_ids], dtype=float)
    if not (lum.max(axis=1) >= estimator.BLACK_THRESHOLD).any():
        with pytest.raises(DecodeError):
            estimator.decode_display_trace(make_capture(photo=lum))
        return
    want_values, want_held = _per_burst_decode(lum)
    trace = estimator.decode_display_trace(make_capture(photo=lum))
    assert trace.values.dtype == want_values.dtype
    assert np.array_equal(trace.values, want_values)
    assert trace.held_fraction == want_held


@given(st.integers(0, 2**32 - 1), st.integers(1, 400))
def test_burst_decode_matches_the_oracle_on_noisy_strobes(seed, n):
    rng = np.random.default_rng(seed)
    lit = rng.random(n) < 0.3
    lum = np.where(lit[:, None], rng.random((n, 4)), 0.02 * rng.random((n, 4)))
    # duplicate some rows so exact ties occur inside bursts
    dup = rng.random(n) < 0.2
    lum[1:][dup[1:]] = lum[:-1][dup[1:]]
    if not (lum.max(axis=1) >= estimator.BLACK_THRESHOLD).any():
        return
    want_values, want_held = _per_burst_decode(lum)
    trace = estimator.decode_display_trace(make_capture(photo=lum))
    assert np.array_equal(trace.values, want_values)
    assert trace.held_fraction == want_held


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_burst_decode_matches_the_oracle_on_infinite_samples():
    # inf + -inf sums to NaN, which np.argmax takes as the maximum
    lum = np.array([
        [0.5, 0.5, 0.5, 0.5],
        [np.inf, -np.inf, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [np.inf, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
    ])
    want_values, want_held = _per_burst_decode(lum)
    trace = estimator.decode_display_trace(make_capture(photo=lum))
    assert np.array_equal(trace.values, want_values)
    assert trace.held_fraction == want_held


def test_burst_decode_makes_one_codec_call_per_trace(monkeypatch):
    calls = []
    for name in ("classify_luminance", "decode"):
        real = getattr(codec, name)

        def counting(values, name=name, real=real):
            calls.append((name, np.shape(values)))
            return real(values)

        monkeypatch.setattr(codec, name, counting)
    photo = _photo_rows_for(1234, n_lit=2, n_dark=9, repeats=20)
    trace = estimator.decode_display_trace(make_capture(photo=photo))
    assert calls == [("classify_luminance", (20, 4)), ("decode", (20, 4))]
    assert np.all(trace.values == 1234)


def test_all_black_trace_is_a_decode_error():
    with pytest.raises(DecodeError):
        estimator.decode_display_trace(make_capture(photo=np.zeros((50, 4))))


def test_recovers_a_known_shift_exactly():
    rng = np.random.default_rng(7)
    ref = random_walk_codes(rng, 4000)
    for lag in (0, 1, 8, 137, 399):
        result = estimator.cross_correlate(
            make_trace(ref), make_trace(delay_by(ref, lag)), max_lag_ms=400
        )
        assert result.best_lag_ms == lag
        assert result.peak_coefficient == pytest.approx(1.0, abs=1e-12)
        assert result.trace_length == 4000


def test_coefficients_match_the_scipy_oracle():
    rng = np.random.default_rng(21)
    ref = random_walk_codes(rng, 2000).astype(float)
    delayed = delay_by(ref, 55) + rng.normal(0.0, 5.0, size=2000)
    result = estimator.cross_correlate(
        make_trace(ref), make_trace(delayed), max_lag_ms=120
    )
    n = 2000
    for lag, got in zip(result.lags_ms, result.coefficients):
        want = stats.pearsonr(ref[: n - lag] if lag else ref, delayed[lag:])[0]
        assert got == pytest.approx(want, abs=1e-12)


def test_correlation_is_scale_and_offset_invariant():
    rng = np.random.default_rng(3)
    ref = random_walk_codes(rng, 3000)
    delayed = 0.25 * delay_by(ref, 42) + 600.0
    result = estimator.cross_correlate(
        make_trace(ref), make_trace(delayed), max_lag_ms=100
    )
    assert result.best_lag_ms == 42
    assert result.peak_coefficient == pytest.approx(1.0, abs=1e-12)


def test_negative_lags_are_opt_in():
    rng = np.random.default_rng(9)
    ref = random_walk_codes(rng, 3000)
    leading = np.concatenate([ref[25:], np.full(25, ref[-1])])
    both = estimator.cross_correlate(
        make_trace(ref), make_trace(leading), max_lag_ms=100,
        allow_negative=True
    )
    assert both.best_lag_ms == -25
    only_forward = estimator.cross_correlate(
        make_trace(ref), make_trace(leading), max_lag_ms=100
    )
    assert only_forward.best_lag_ms >= 0
    assert only_forward.peak_coefficient < both.peak_coefficient


def test_tied_peaks_resolve_to_the_smallest_lag():
    pattern = np.array([0, 500, 1500, 3000, 1500, 500, 100, 900, 2500, 700])
    ref = np.tile(pattern, 120)
    result = estimator.cross_correlate(
        make_trace(ref), make_trace(ref.copy()), max_lag_ms=25
    )
    # the series is 10-periodic, so lags 0, 10 and 20 all correlate
    # perfectly; the smallest must win
    assert result.coefficients[10] == pytest.approx(1.0, abs=1e-12)
    assert result.coefficients[20] == pytest.approx(1.0, abs=1e-12)
    assert result.best_lag_ms == 0


def test_constant_trace_has_no_correlation():
    const = np.full(2000, 1234)
    varying = random_walk_codes(np.random.default_rng(0), 2000)
    with pytest.raises(CorrelationUndefinedError):
        estimator.cross_correlate(make_trace(const), make_trace(varying),
                                  max_lag_ms=50)
    with pytest.raises(CorrelationUndefinedError):
        estimator.cross_correlate(make_trace(varying), make_trace(const),
                                  max_lag_ms=50)


def test_constant_window_is_scored_zero_not_undefined():
    # only the last element varies, so every positive lag compares a
    # constant reference window; those lags must score 0, not blow up
    ref = np.full(1000, 100)
    ref[-1] = 4000
    result = estimator.cross_correlate(
        make_trace(ref), make_trace(ref.copy()), max_lag_ms=20
    )
    assert result.best_lag_ms == 0
    assert result.peak_coefficient == pytest.approx(1.0)
    assert np.all(result.coefficients[1:] == 0.0)


def test_negative_lags_match_the_corrcoef_oracle():
    rng = np.random.default_rng(31)
    n, max_lag = 3000, 150
    ref = random_walk_codes(rng, n).astype(float)
    delayed = np.roll(ref, -40) + rng.normal(0.0, 3.0, size=n)
    result = estimator.cross_correlate(
        make_trace(ref), make_trace(delayed), max_lag_ms=max_lag,
        allow_negative=True
    )
    assert list(result.lags_ms) == list(range(-max_lag, max_lag + 1))
    want = np.empty(2 * max_lag + 1)
    for i, lag in enumerate(result.lags_ms):
        if lag >= 0:
            want[i] = np.corrcoef(ref[: n - lag], delayed[lag:])[0, 1]
        else:
            want[i] = np.corrcoef(ref[-lag:], delayed[:lag])[0, 1]
    assert np.max(np.abs(result.coefficients - want)) <= 1e-12
    assert result.best_lag_ms == -40


def test_windows_constant_at_some_lags_score_exactly_zero():
    # the reference varies only in its first 5 samples, so every lag at
    # or below -5 compares a constant reference window; the values are
    # not exactly representable, so variances from prefix sums would
    # not cancel to 0 and constancy has to be decided exactly
    n, max_lag = 2000, 40
    ref = np.full(n, 0.1)
    ref[:5] = [0.7, 0.3, 0.9, 0.2, 0.6]
    delayed = random_walk_codes(np.random.default_rng(4), n) / 7.0
    result = estimator.cross_correlate(
        make_trace(ref), make_trace(delayed), max_lag_ms=max_lag,
        allow_negative=True
    )
    constant = result.lags_ms <= -5
    assert np.all(result.coefficients[constant] == 0.0)
    assert np.all(np.isfinite(result.coefficients))
    assert np.all(result.coefficients[~constant] != 0.0)
    for lag, got in zip(result.lags_ms[~constant], result.coefficients[~constant]):
        if lag >= 0:
            want = np.corrcoef(ref[: n - lag], delayed[lag:])[0, 1]
        else:
            want = np.corrcoef(ref[-lag:], delayed[:lag])[0, 1]
        assert got == pytest.approx(want, abs=1e-12)


def test_short_traces_are_rejected():
    short = random_walk_codes(np.random.default_rng(1), 400)
    with pytest.raises(EstimationError):
        estimator.cross_correlate(make_trace(short), make_trace(short),
                                  max_lag_ms=50)
    with pytest.raises(EstimationError):
        estimator.cross_correlate(make_trace(short), make_trace(short),
                                  max_lag_ms=0)


@pytest.mark.parametrize("start_gap_ms", [-7, 0, 13])
def test_remote_alignment_cancels_start_time_differences(start_gap_ms):
    rng = np.random.default_rng(17)
    true_delay = 25
    base = random_walk_codes(rng, 6000)
    sender_start_us = 1_000_000
    receiver_start_us = sender_start_us + start_gap_ms * 1000
    # receiver interval i holds the sender code from absolute interval
    # (start_gap + i - true_delay)
    shift = true_delay - start_gap_ms
    receiver_vals = delay_by(base, shift) if shift >= 0 else \
        np.concatenate([base[-shift:], np.full(-shift, base[-1])])
    result = estimator.estimate_remote(
        make_trace(base[:5000], start_utc_us=sender_start_us),
        make_trace(receiver_vals[:5000], start_utc_us=receiver_start_us,
                   source="display"),
        max_lag_ms=100,
    )
    assert result.best_lag_ms == true_delay


def test_misaligned_traces_without_overlap_raise():
    vals = random_walk_codes(np.random.default_rng(2), 2000)
    with pytest.raises(AlignmentError):
        estimator.estimate_remote(
            make_trace(vals, start_utc_us=0),
            make_trace(vals, start_utc_us=1_900_000, source="display"),
            max_lag_ms=50,
        )


def test_report_collects_warnings_and_diagnostics():
    rng = np.random.default_rng(5)
    ref = random_walk_codes(rng, 3000)
    noisy = delay_by(ref, 10) + rng.normal(0, 2000, size=3000)
    weak = estimator.cross_correlate(make_trace(ref), make_trace(noisy),
                                     max_lag_ms=60)
    display = make_trace(delay_by(ref, 10), source="display")
    display = DecodedTrace(display.values, "display", 0, held_fraction=0.85)
    report = estimator.build_report(local=weak, display_trace=display)
    assert report.peak_coefficient < 0.9
    assert "low_peak_coefficient" in report.warnings
    assert report.decode_error_rate == 0.85
    assert report.trace_length == 3000
    assert report.remote_latency_ms is None


def test_report_flags_negative_lags():
    rng = np.random.default_rng(6)
    ref = random_walk_codes(rng, 3000)
    leading = np.concatenate([ref[15:], np.full(15, ref[-1])])
    corr = estimator.cross_correlate(make_trace(ref), make_trace(leading),
                                     max_lag_ms=60, allow_negative=True)
    report = estimator.build_report(local=corr)
    assert report.motion_to_photon_ms == -15
    assert "negative_lag" in report.warnings


def test_report_keeps_remote_and_local_estimates_separate():
    rng = np.random.default_rng(8)
    ref = random_walk_codes(rng, 3000)
    local = estimator.cross_correlate(make_trace(ref),
                                      make_trace(delay_by(ref, 6)),
                                      max_lag_ms=60)
    remote = estimator.cross_correlate(make_trace(ref),
                                       make_trace(delay_by(ref, 29)),
                                       max_lag_ms=60)
    report = estimator.build_report(local=local, remote=remote,
                                    remote_direction="A->B")
    assert report.motion_to_photon_ms == 6
    assert report.remote_latency_ms == 29
    assert report.remote_direction == "A->B"
    # diagnostics follow the remote estimate when it exists
    assert report.peak_coefficient == remote.peak_coefficient
