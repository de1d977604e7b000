"""Decoding and cross-correlation tests.

scipy.stats.pearsonr and np.corrcoef serve as independent correlation
oracles; a plain per-burst loop serves as the burst-decode oracle, one
np.dot per lag as the lag-product oracle, and full-length prefix sums
as the window-sum and constant-window oracles.
"""
import hashlib
import itertools
import json
import operator
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats

import vrlatsim
from vrlatsim import cli, codec, estimator, netsim, rig, tracefile
from vrlatsim import scenario as scenario_mod
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
                      pot=np.asarray(pot, dtype=float),
                      photo=np.asarray(photo, dtype=float))


def make_trace(values, start_utc_us=0):
    return DecodedTrace(values=np.asarray(values), start_utc_us=start_utc_us)


def random_walk_codes(rng, n):
    walk = 2000 + np.cumsum(rng.integers(-3, 4, size=n))
    return np.clip(walk, 0, codec.CODE_MAX)


def noisy_codes(codes, rng, sigma):
    """codes plus Gaussian noise of sigma codes, rounded to whole codes."""
    return np.rint(codes + rng.normal(0.0, sigma, codes.shape[0])).astype(np.int64)


def delay_by(values, lag):
    if lag == 0:
        return values.copy()
    return np.concatenate([np.full(lag, values[0]), values[:-lag]])


def test_pot_trace_quantizes_to_the_code_scale():
    capture = make_capture(pot=np.array([0.0, 0.5, 0.9999]))
    trace = estimator.decode_pot_trace(capture)
    assert list(trace.values) == [0, 2048, 4095]
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
@example([0, 0, 7, 7, 7])           # exact tie, burst runs to the last row;
                                    # 3 lit of 5, held 0.4 inexact in binary
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


def test_burst_decode_breaks_rounding_ties_as_the_row_sum_does():
    # two-row bursts whose rows hold the same levels in another order:
    # their exact sums are equal, so which one is brighter, or whether
    # they tie, depends only on the rounding of the float additions, and
    # the decoder must add the fields in the order sum(axis=1) does
    levels = [1 / 7, 2 / 7, 3 / 7, 4 / 7]
    rows = np.array(list(itertools.product(levels, repeat=4)))
    groups = {}
    for row in rows:
        groups.setdefault(round(float(row.sum()), 9), []).append(row)
    bursts = [np.vstack([first, second, np.zeros(4)])
              for group in groups.values()
              for first, second in itertools.combinations(group, 2)]
    lum = np.vstack(bursts)
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


def test_column_wise_reductions_equal_the_row_reductions_bitwise():
    # every row of 4 fields drawn from these values, NaN and both
    # infinities included; the decoder takes maxima on every row and
    # totals on the lit rows, and both must equal numpy's row reductions
    # bit for bit.  (Summing four -0.0 gives -0.0 column-wise and 0.0
    # with sum(axis=1), but such a row is dark, so no total is taken.)
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 0.01, 0.5, 1.0, -1.0]
    lum = np.array(list(itertools.product(values, repeat=4)))
    c0, c1, c2, c3 = lum.T
    with np.errstate(invalid="ignore"):
        peak = np.maximum(np.maximum(c0, c1), np.maximum(c2, c3))
        lit = peak >= estimator.BLACK_THRESHOLD
        rows = np.flatnonzero(lit)
        totals = ((c0[rows] + c1[rows]) + c2[rows]) + c3[rows]
        want_peak = lum.max(axis=1)
        want_totals = lum.sum(axis=1)[rows]
    assert peak.tobytes() == want_peak.tobytes()
    assert np.array_equal(lit, want_peak >= estimator.BLACK_THRESHOLD)
    assert totals.tobytes() == want_totals.tobytes()
    assert np.isnan(totals).any() and np.isinf(totals).any()


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
    ref = random_walk_codes(rng, 2000)
    delayed = noisy_codes(delay_by(ref, 55), rng, 5.0)
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
    delayed = 3 * delay_by(ref, 42) + 600
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


@pytest.mark.parametrize("preset", scenario_mod.preset_names())
def test_every_trace_a_run_correlates_holds_integer_codes(preset, monkeypatch):
    # the decoders' traces, and those estimate_remote aligns and hands on
    made, correlated = [], []

    def recording(name, into):
        real = getattr(estimator, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            into.extend(t for t in (result, *args) if isinstance(t, DecodedTrace))
            return result
        monkeypatch.setattr(estimator, name, wrapper)

    recording("decode_pot_trace", made)
    recording("decode_display_trace", made)
    recording("cross_correlate", correlated)
    sc = cli.load_scenario(preset, seed=1, duration_ms=2000.0)
    cli.estimate_run(cli.capture_run(sc))
    remote = sc.net is not None
    assert (len(made), len(correlated)) == ((3, 4) if remote else (2, 2))
    assert all(np.asarray(t.values).dtype.kind in "iu" for t in made + correlated)


def test_constant_trace_has_no_correlation():
    const = np.full(2000, 1234)
    varying = random_walk_codes(np.random.default_rng(0), 2000)
    with pytest.raises(CorrelationUndefinedError):
        estimator.cross_correlate(make_trace(const), make_trace(varying),
                                  max_lag_ms=50)
    with pytest.raises(CorrelationUndefinedError):
        estimator.cross_correlate(make_trace(varying), make_trace(const),
                                  max_lag_ms=50)


@pytest.mark.parametrize("dtype", [float, np.float32, bool])
def test_a_trace_of_anything_but_integer_codes_is_refused(dtype):
    codes = random_walk_codes(np.random.default_rng(0), 2000)
    other = make_trace(codes.astype(dtype))
    for pair in ((make_trace(codes), other), (other, make_trace(codes))):
        with pytest.raises(TypeError) as err:
            estimator.cross_correlate(*pair, max_lag_ms=50)
        dtypes = [str(np.asarray(t.values).dtype) for t in pair]
        assert str(err.value) == (f"cross_correlate takes integer codes, got "
                                  f"{dtypes[0]} and {dtypes[1]}")


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
    ref = random_walk_codes(rng, n)
    delayed = noisy_codes(np.roll(ref, -40), rng, 3.0)
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
    # or below -5 compares a constant reference window, whose variance
    # is 0: it must score 0, not 0 / 0
    n, max_lag = 2000, 40
    ref = np.full(n, 100)
    ref[:5] = [700, 300, 900, 200, 600]
    delayed = random_walk_codes(np.random.default_rng(4), n)
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


def _per_lag_dots(x, y, lags):
    """Reference lag products: one np.dot per lag, lag L >= 0 pairing
    x[0:n-L] with y[L:n] and a negative lag the other way round."""
    n = x.shape[0]
    lo_x = np.maximum(-lags, 0)
    lo_y = np.maximum(lags, 0)
    m = n - np.abs(lags)
    return np.array([np.dot(x[i:i + k], y[j:j + k])
                     for i, j, k in zip(lo_x, lo_y, m)])


def _prefix_window_sums(x, lo, length):
    """Reference window sums: differences of one full-length prefix sum."""
    prefix = np.concatenate(([0.0], np.cumsum(x)))
    return prefix[lo + length] - prefix[lo]


def _prefix_constant_windows(x, lo, length):
    """Reference constancy test: a full-length prefix count of changes."""
    changes = np.concatenate(([0], np.cumsum(x[1:] != x[:-1])))
    return changes[lo + length - 1] == changes[lo]


def _lag_windows(n, max_lag):
    """(lo_ref, lo_del, m) for the lags -max_lag..max_lag, as
    `cross_correlate` cuts its windows."""
    lags = np.arange(-max_lag, max_lag + 1)
    return np.maximum(-lags, 0), np.maximum(lags, 0), n - np.abs(lags)


def _window_test_series(kind):
    """A series and a lag range for the window oracles."""
    if kind == "constant-tail":
        # the reference of test_windows_constant_at_some_lags_score_exactly_zero
        ref = np.full(2000, 100.0)
        ref[:5] = [700, 300, 900, 200, 600]
        return ref, 40
    _, delayed = _lag_test_series(kind, 2777, seed=11)
    return delayed.astype(float), 200


@pytest.mark.parametrize("kind", ["codes", "noisy", "constant-tail"])
def test_edge_window_sums_match_the_prefix_sum_oracle(kind):
    x, max_lag = _window_test_series(kind)
    lo_ref, lo_del, m = _lag_windows(x.shape[0], max_lag)
    centred = x - np.rint(x.mean())
    for series in (x, centred, centred * centred):
        for lo in (lo_ref, lo_del):
            # integer sums below 2**53 are exact in any order
            assert np.array_equal(estimator._window_sums(series, lo, m),
                                  _prefix_window_sums(series, lo, m))


@pytest.mark.parametrize("kind", ["codes", "noisy", "constant-tail"])
def test_constant_windows_match_the_prefix_count_oracle(kind):
    x, max_lag = _window_test_series(kind)
    lo_ref, lo_del, m = _lag_windows(x.shape[0], max_lag)
    for lo in (lo_ref, lo_del):
        assert np.array_equal(estimator._constant_windows(x, lo, m),
                              _prefix_constant_windows(x, lo, m))
    if kind == "constant-tail":
        # lags -40..-5 cut the varying head off the reference window
        assert np.array_equal(estimator._constant_windows(x, lo_ref, m),
                              np.arange(-max_lag, max_lag + 1) <= -5)


@given(st.lists(st.integers(-codec.CODE_MAX, codec.CODE_MAX), min_size=2,
                max_size=300), st.data())
def test_edge_window_sums_are_exact_on_integers(values, data):
    x = np.array(values, dtype=float)
    max_lag = data.draw(st.integers(1, x.shape[0] - 1))
    lo_ref, lo_del, m = _lag_windows(x.shape[0], max_lag)
    for series in (x, x * x):
        for lo in (lo_ref, lo_del):
            assert np.array_equal(estimator._window_sums(series, lo, m),
                                  _prefix_window_sums(series, lo, m))
    for lo in (lo_ref, lo_del):
        assert np.array_equal(estimator._window_sums(x, lo, m, squares=True),
                              _prefix_window_sums(x * x, lo, m))


@given(st.lists(st.sampled_from([0, 1, codec.CODE_MAX]), min_size=2,
                max_size=60), st.data())
def test_constant_windows_match_the_oracle_on_runs(values, data):
    x = np.array(values, dtype=float)
    max_lag = data.draw(st.integers(1, x.shape[0] - 1))
    lo_ref, lo_del, m = _lag_windows(x.shape[0], max_lag)
    for lo in (lo_ref, lo_del):
        assert np.array_equal(estimator._constant_windows(x, lo, m),
                              _prefix_constant_windows(x, lo, m))


def _per_lag_cross_correlate(ref, delayed, max_lag, allow_negative):
    """Reference coefficients with the lag products taken one lag at a time."""
    ref = np.asarray(ref, dtype=float)
    delayed = np.asarray(delayed, dtype=float)
    n = ref.shape[0]
    lags = np.arange(-max_lag if allow_negative else 0, max_lag + 1)
    lo_ref = np.maximum(-lags, 0)
    lo_del = np.maximum(lags, 0)
    m = n - np.abs(lags)
    a = ref - ref.mean()
    b = delayed - delayed.mean()
    sum_a = _prefix_window_sums(a, lo_ref, m)
    sum_b = _prefix_window_sums(b, lo_del, m)
    var_a = _prefix_window_sums(a * a, lo_ref, m) - sum_a * sum_a / m
    var_b = _prefix_window_sums(b * b, lo_del, m) - sum_b * sum_b / m
    cov = _per_lag_dots(a, b, lags) - sum_a * sum_b / m
    scored = ~(_prefix_constant_windows(ref, lo_ref, m)
               | _prefix_constant_windows(delayed, lo_del, m))
    coeffs = np.zeros(lags.shape[0])
    coeffs[scored] = cov[scored] / np.sqrt(var_a[scored] * var_b[scored])
    coeffs = np.clip(coeffs, -1.0, 1.0)
    return lags, coeffs, int(lags[np.argmax(coeffs)])


def _lag_test_series(kind, n, seed):
    rng = np.random.default_rng(seed)
    ref = random_walk_codes(rng, n)
    if kind == "codes":
        return ref, delay_by(ref, 7)
    return ref, noisy_codes(delay_by(ref, 7), rng, 0.01 * codec.CODE_MAX)


def _lag_search_lengths():
    """(extra, max_lag) pairs: a trace of the shortest length a search of
    max_lag accepts, plus extra samples.  Past a grid of plain cases, the
    pairs sit at the edges of the blocked lag products: lag ranges ending
    next to one or two `_LAG_BLOCK` rows, and traces one sample short of,
    at, or one past a whole number of double rows (n % (2 * _LAG_BLOCK)
    in 0, 1 and 2 * _LAG_BLOCK - 1, i.e. n % 32 in 0, 1 and 31)."""
    pairs = [(extra, max_lag) for max_lag in (1, 80, 200)
             for extra in (0, 1, 4321)]
    block = estimator._LAG_BLOCK
    width = 2 * block
    for max_lag in (1, block - 1, block, block + 1,
                    width - 1, width, width + 1, 200):
        shortest = estimator.MIN_LENGTH_FACTOR * max_lag
        for remainder in (0, 1, width - 1):
            pair = ((remainder - shortest) % width, max_lag)
            if pair not in pairs:
                pairs.append(pair)
    return pairs


@pytest.mark.parametrize("kind", ["codes", "noisy"])
@pytest.mark.parametrize("extra,max_lag", _lag_search_lengths())
def test_lag_products_match_the_per_lag_oracle(kind, max_lag, extra):
    n = estimator.MIN_LENGTH_FACTOR * max_lag + extra
    x, y = _lag_test_series(kind, n, seed=max_lag + extra)
    x = x - x.mean()
    y = y - y.mean()
    got = estimator._lagged_dots(x, y, max_lag)
    lags = np.arange(max_lag + 1)
    want = _per_lag_dots(x, y, lags)
    # the two differ only in the order of the additions
    scale = _per_lag_dots(np.abs(x), np.abs(y), lags)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("allow_negative", [False, True])
@pytest.mark.parametrize("kind", ["codes", "noisy"])
@pytest.mark.parametrize("max_lag", [1, 80, 200])
@pytest.mark.parametrize("extra", [0, 2345])
def test_coefficients_match_the_per_lag_oracle(allow_negative, kind, max_lag,
                                               extra):
    # extra 0 is the shortest trace a lag search accepts
    n = estimator.MIN_LENGTH_FACTOR * max_lag + extra
    ref, delayed = _lag_test_series(kind, n, seed=3 * max_lag + extra)
    result = estimator.cross_correlate(
        make_trace(ref), make_trace(delayed), max_lag_ms=max_lag,
        allow_negative=allow_negative
    )
    lags, want, best = _per_lag_cross_correlate(ref, delayed, max_lag,
                                                allow_negative)
    assert np.array_equal(result.lags_ms, lags)
    assert np.max(np.abs(result.coefficients - want)) <= 1e-12
    assert result.best_lag_ms == best


def _python_sum_dots(x, y, max_lag):
    """Lag products of integer-valued series, summed exactly in Python ints."""
    xs = [int(v) for v in x]
    ys = [int(v) for v in y]
    n = len(xs)
    return np.array([float(sum(map(operator.mul, xs[:n - lag], ys[lag:])))
                     for lag in range(max_lag + 1)])


def _integer_code_series(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "full-scale":
        # the largest products the code range allows
        ref = rng.choice([0, codec.CODE_MAX], size=n)
        return ref, rng.integers(0, codec.CODE_COUNT, size=n)
    return _lag_test_series("codes", n, seed)


@pytest.mark.parametrize("kind", ["walk", "full-scale"])
@pytest.mark.parametrize("extra,max_lag", _lag_search_lengths())
def test_integer_centred_lag_products_equal_the_python_sum_bitwise(kind, max_lag,
                                                                   extra):
    n = estimator.MIN_LENGTH_FACTOR * max_lag + extra
    ref, delayed = _integer_code_series(kind, n, seed=max_lag + extra)
    x = ref - np.rint(ref.mean())
    y = delayed - np.rint(delayed.mean())
    got = estimator._lagged_dots(x, y, max_lag)
    assert np.array_equal(got, _python_sum_dots(x, y, max_lag))


def _loop_lagged_dots(x, y, max_lag):
    """Blocked lag products, one matmul call per block."""
    block = estimator._LAG_BLOCK
    n = x.shape[0]
    blocks = max_lag // block + 2
    rows = -(-n // block)
    xr = np.zeros(rows * block)
    xr[:n] = x
    xr = xr.reshape(rows, block).T
    yr = np.zeros((rows + blocks - 1) * block)
    yr[:n] = y
    yr = yr.reshape(-1, block)
    products = np.empty((blocks, block, block))
    for k in range(blocks):
        np.matmul(xr, yr[k:k + rows], out=products[k])
    return np.bincount(estimator._lag_index(max_lag), weights=products.ravel(),
                       minlength=max_lag + 2)[:max_lag + 1]


def _edge_series(kind, n, seed):
    """Code series where a lag search meets constant windows."""
    ref, _ = _lag_test_series("noisy", n, seed)
    delayed = np.full(n, 100)
    if kind == "constant-tail":
        # varies only in its first 5 samples, so every lag from 5 on
        # compares a constant delayed window
        delayed[:5] = [700, 300, 900, 200, 600]
    else:
        # varies only in its last 5 samples, so every lag from -5 down
        # compares a constant delayed window
        delayed[-5:] = [700, 300, 900, 200, 600]
    return ref, delayed


def _loop_cross_correlate(reference, delayed, max_lag_ms, allow_negative):
    """The lag search before it centred float copies of the series in place
    and took its lag products from one matmul call: the reference for
    bitwise equality."""
    ref = np.asarray(reference.values, dtype=float)
    del_ = np.asarray(delayed.values, dtype=float)
    n = min(ref.shape[0], del_.shape[0])
    ref, del_ = ref[:n], del_[:n]
    first = -max_lag_ms if allow_negative else 0
    lags = np.arange(first, max_lag_ms + 1)
    lo_ref = np.maximum(-lags, 0)
    lo_del = np.maximum(lags, 0)
    m = n - np.abs(lags)
    a = ref - np.rint(ref.mean())
    b = del_ - np.rint(del_.mean())
    sum_a = estimator._window_sums(a, lo_ref, m)
    sum_b = estimator._window_sums(b, lo_del, m)
    var_a = estimator._window_sums(a * a, lo_ref, m) - sum_a * sum_a / m
    var_b = estimator._window_sums(b * b, lo_del, m) - sum_b * sum_b / m
    sum_ab = _loop_lagged_dots(a, b, max_lag_ms)
    if allow_negative:
        sum_ab = np.concatenate((_loop_lagged_dots(b, a, max_lag_ms)[:0:-1],
                                 sum_ab))
    cov = sum_ab - sum_a * sum_b / m
    scored = ~(estimator._constant_windows(ref, lo_ref, m)
               | estimator._constant_windows(del_, lo_del, m))
    coeffs = np.zeros(lags.shape[0])
    coeffs[scored] = cov[scored] / np.sqrt(var_a[scored] * var_b[scored])
    coeffs = np.clip(coeffs, -1.0, 1.0)
    best = int(np.argmax(coeffs))
    return estimator.CorrelationResult(
        lags_ms=lags,
        coefficients=coeffs,
        best_lag_ms=int(lags[best]),
        peak_coefficient=float(coeffs[best]),
        trace_length=n,
    )


@pytest.mark.parametrize("allow_negative", [False, True])
@pytest.mark.parametrize("kind", ["walk", "full-scale", "noisy",
                                  "constant-tail", "constant-head", "nan"])
@pytest.mark.parametrize("extra,max_lag", _lag_search_lengths())
def test_lag_search_gives_the_bits_of_the_loop_search(kind, max_lag, extra,
                                                      allow_negative):
    # exact integer sums give the same bits in any order, and so do the
    # zeros of constant windows
    n = estimator.MIN_LENGTH_FACTOR * max_lag + extra
    if kind == "nan":
        # a float series, here one holding a NaN, is refused before any
        # work instead of scored
        ref, delayed = _lag_test_series("noisy", n, seed=max_lag + extra)
        delayed = delayed.astype(float)
        delayed[n // 3] = np.nan
        with pytest.raises(TypeError):
            estimator.cross_correlate(make_trace(ref), make_trace(delayed),
                                      max_lag, allow_negative)
        return
    if kind == "noisy":
        ref, delayed = _lag_test_series(kind, n, seed=max_lag + extra)
    elif kind.startswith("constant-"):
        ref, delayed = _edge_series(kind, n, seed=max_lag + extra)
    else:
        ref, delayed = _integer_code_series(kind, n, seed=max_lag + extra)
    traces = make_trace(ref), make_trace(delayed)
    got = estimator.cross_correlate(*traces, max_lag, allow_negative)
    want = _loop_cross_correlate(*traces, max_lag, allow_negative)
    assert got.lags_ms.tobytes() == want.lags_ms.tobytes()
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert (got.best_lag_ms, got.trace_length) == (want.best_lag_ms,
                                                    want.trace_length)
    assert np.float64(got.peak_coefficient).tobytes() == \
        np.float64(want.peak_coefficient).tobytes()


def test_lag_index_is_cached_and_read_only():
    index = estimator._lag_index(200)
    assert estimator._lag_index(200) is index
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0] = 0


@pytest.mark.parametrize("allow_negative", [False, True])
@pytest.mark.parametrize("kind", ["walk", "full-scale"])
def test_integer_codes_correlate_to_the_same_bits_in_any_summation_order(
        allow_negative, kind, monkeypatch):
    max_lag = 80
    ref, delayed = _integer_code_series(kind, 10 * max_lag + 777, seed=5)
    assert ref.dtype.kind == delayed.dtype.kind == "i"
    want = estimator.cross_correlate(make_trace(ref), make_trace(delayed),
                                     max_lag, allow_negative)
    monkeypatch.setattr(estimator, "_lagged_dots", _python_sum_dots)
    got = estimator.cross_correlate(make_trace(ref), make_trace(delayed),
                                    max_lag, allow_negative)
    assert np.array_equal(got.coefficients, want.coefficients)
    assert got.best_lag_ms == want.best_lag_ms


def _kernel_digests():
    """SHA-256 of a float `np.correlate` probe, whose bits follow the BLAS
    kernel, and of the `estimate_remote` coefficients of four presets."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 20_000))
    probe = np.correlate(y, x[:19_800], "valid")
    coefficients = hashlib.sha256()
    for name in ("vive-baseline", "frame-delay-5", "zero-delay", "remote-default"):
        sc = replace(scenario_mod.get_preset(name), duration_ms=20_000.0, seed=1)
        if sc.net is None:
            sender = receiver = rig.run_capture(sc)
        else:
            sender, receiver = netsim.remote_capture(sc)
        result = estimator.estimate_remote(
            estimator.decode_pot_trace(tracefile.quantize_capture(sender)),
            estimator.decode_display_trace(tracefile.quantize_capture(receiver)),
            allow_negative=True)
        coefficients.update(result.coefficients.tobytes())
    return {"probe": hashlib.sha256(probe.tobytes()).hexdigest(),
            "coefficients": coefficients.hexdigest()}


@pytest.mark.parametrize("setting", [
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_ENABLE_CPU_FEATURES": "X86_V2", "OPENBLAS_CORETYPE": "Nehalem"},
], ids=["prescott", "x86-v2-nehalem"])
def test_coefficient_bits_do_not_depend_on_the_blas_kernel(setting):
    # the setting goes to the child process only
    paths = [os.path.dirname(os.path.dirname(vrlatsim.__file__)),
             os.path.dirname(__file__), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **setting,
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = ("import json, test_estimator; "
            "print(json.dumps(test_estimator._kernel_digests()))")
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout.splitlines()[-1])
    want = _kernel_digests()
    if got["probe"] == want["probe"]:
        pytest.skip(f"{setting} selects no other kernel on this machine")
    assert got["coefficients"] == want["coefficients"]


@pytest.mark.parametrize("search", ["positive", "both-signs", "self"])
def test_long_lag_search_peak_memory_stays_small(search):
    # a 60 s trace is 0.48 MB per float series; full-length prefix sums
    # and change counts peaked at 3.37 MB here, edge-only sums at 2.96 MB,
    # and a copy of the sliding windows of every lag would add 1.9 MB
    sc = replace(scenario_mod.get_preset("vive-baseline"), duration_ms=60_000.0)
    capture = tracefile.quantize_capture(rig.run_capture(sc))
    pot = estimator.decode_pot_trace(capture)
    other = pot if search == "self" else estimator.decode_display_trace(capture)
    allow_negative = search == "both-signs"
    # the first search fills the lag index cache
    estimator.cross_correlate(pot, other, 200, allow_negative)
    tracemalloc.start()
    try:
        estimator.cross_correlate(pot, other, 200, allow_negative)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2e6, f"{search} search peaked at {peak / 1e6:.2f} MB"


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
        make_trace(receiver_vals[:5000], start_utc_us=receiver_start_us),
        max_lag_ms=100,
    )
    assert result.best_lag_ms == true_delay


@pytest.mark.parametrize("gap_us,ref_head,del_head", [
    (0, 0, 0), (499, 0, 0), (1499, 1, 0), (1500, 2, 0), (2500, 2, 0),
    (7000, 7, 0), (-7000, 0, 7), (-1500, 0, 2),
])
def test_utc_alignment_drops_the_earlier_head(gap_us, ref_head, del_head):
    # a 1 ms grid on both stations; the gap rounds to whole intervals,
    # half to even, and both series are cut to their overlap
    ref = np.arange(100)
    delayed = np.arange(1000, 1090)
    got_ref, got_del = estimator.align_on_utc(
        make_trace(ref, start_utc_us=5_000_000),
        make_trace(delayed, start_utc_us=5_000_000 + gap_us),
    )
    overlap = min(100 - ref_head, 90 - del_head)
    assert np.array_equal(got_ref, ref[ref_head:ref_head + overlap])
    assert np.array_equal(got_del, delayed[del_head:del_head + overlap])


def test_misaligned_traces_without_overlap_raise():
    vals = random_walk_codes(np.random.default_rng(2), 2000)
    with pytest.raises(AlignmentError):
        estimator.estimate_remote(
            make_trace(vals, start_utc_us=0),
            make_trace(vals, start_utc_us=1_900_000),
            max_lag_ms=50,
        )


def test_report_collects_warnings_and_diagnostics():
    rng = np.random.default_rng(5)
    ref = random_walk_codes(rng, 3000)
    noisy = noisy_codes(delay_by(ref, 10), rng, 2000)
    weak = estimator.cross_correlate(make_trace(ref), make_trace(noisy),
                                     max_lag_ms=60)
    display = DecodedTrace(delay_by(ref, 10), 0, held_fraction=0.85)
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


def test_a_best_lag_on_an_edge_of_the_window_is_an_estimation_failure():
    rng = np.random.default_rng(10)
    ref = random_walk_codes(rng, 3000)
    inside = estimator.cross_correlate(make_trace(ref), make_trace(delay_by(ref, 6)),
                                       max_lag_ms=40, allow_negative=True)
    leading = np.concatenate([ref[60:], np.full(60, ref[-1])])
    early = estimator.cross_correlate(make_trace(ref), make_trace(leading),
                                      max_lag_ms=40, allow_negative=True)
    late = estimator.cross_correlate(make_trace(ref), make_trace(delay_by(ref, 60)),
                                     max_lag_ms=40)
    assert (inside.best_lag_ms, early.best_lag_ms, late.best_lag_ms) == (6, -40, 40)
    for what, lags, estimates in (
            ("local", "[-40, 40]", {"local": early}),
            ("local", "[0, 40]", {"local": late}),
            ("remote", "[-40, 40]", {"local": inside, "remote": early}),
            ("remote", "[0, 40]", {"local": inside, "remote": late})):
        best = estimates[what].best_lag_ms
        with pytest.raises(EstimationError) as err:
            estimator.build_report(**estimates)
        assert str(err.value) == (
            f"{what} best lag {best} ms is on the edge of the lag window "
            f"{lags} ms, so the peak may lie beyond it; widen --max-lag")
    # lag 0 is an edge only when no negative lag was searched, and there it
    # is an answer: nothing lies below it
    same = estimator.cross_correlate(make_trace(ref), make_trace(ref), max_lag_ms=40)
    assert estimator.build_report(local=same).motion_to_photon_ms == 0
