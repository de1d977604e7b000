"""Clock, timepulse and synchronization tests.

The drift oracle is exact rational arithmetic via fractions.Fraction,
so the float implementation is checked against a different number
system entirely.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vrlatsim import clock
from vrlatsim.clock import SimClock


def test_drift_offset_exact_at_five_seconds():
    t = 5_000_000.0
    assert clock.local_now(SimClock(drift_ppm=100.0), t) - t == 500.0
    assert clock.local_now(SimClock(drift_ppm=-100.0), t) - t == -500.0
    assert clock.local_now(SimClock(drift_ppm=0.0), t) == t


@given(st.integers(min_value=0, max_value=10_000_000),
       st.integers(min_value=-100, max_value=100))
def test_drift_matches_rational_arithmetic(t_us, ppm):
    c = SimClock(drift_ppm=float(ppm))
    want = Fraction(t_us) + Fraction(t_us * ppm, 10**6)
    assert clock.local_now(c, float(t_us)) == pytest.approx(float(want), abs=1e-6)


@given(st.floats(min_value=0.0, max_value=1e10,
                 allow_nan=False, allow_infinity=False),
       st.integers(min_value=-500, max_value=500),
       st.integers(min_value=1, max_value=3600))
def test_true_time_inverts_local_now(edge_us, ppm, seconds):
    # the start is the true time at which the local counter reads the
    # edge reading plus the seconds counted
    c = SimClock(drift_ppm=float(ppm))
    start = clock.synced_start_us(c, edge_us, 0, seconds)
    want = clock.local_now(c, edge_us) + seconds * 1e6
    assert clock.local_now(c, start) == pytest.approx(want, abs=1e-3)


def test_timepulses_land_near_second_boundaries():
    seconds = np.arange(50, 10_050)
    edges = np.array([clock.timepulse_edge_us((7, int(s)), int(s)) for s in seconds])
    jitter = edges - seconds * 1_000_000
    assert abs(jitter.mean()) < 1.5
    assert 28.5 < jitter.std() < 31.5


def test_sync_latches_the_local_reading_at_the_edge():
    # the seconds are counted from the latched edge, wherever it rose
    base = SimClock(drift_ppm=250.0)
    counted = 2e6 / (1.0 + 250e-6)
    for jitter in (12.5, -40.0):
        edge = 40e6 + jitter
        start = clock.synced_start_us(base, edge, 40, 42)
        assert start - edge == pytest.approx(counted, abs=1e-6)


def test_utc_estimate_error_is_pulse_jitter_plus_drift():
    # a station starts when its UTC estimate reads the start second.  The
    # estimate anchors on the jittered edge, so a late pulse makes the
    # start late, and uncorrected drift accumulates on top
    jitter = 25.0
    drift = 100.0
    base = SimClock(drift_ppm=drift)
    edge = 40e6 + jitter
    for counted_s in (1, 2, 5):
        start = clock.synced_start_us(base, edge, 40, 40 + counted_s)
        want_error = jitter - counted_s * 1e6 * drift * 1e-6 / (1.0 + drift * 1e-6)
        assert start - (40 + counted_s) * 1e6 == pytest.approx(want_error, abs=1e-6)


def test_scheduled_start_inherits_pulse_jitter():
    jitter = 40.0
    start = clock.synced_start_us(SimClock(), 100e6 + jitter, 100, 102)
    assert start == pytest.approx(102 * 1e6 + jitter, abs=1e-9)


def test_scheduled_start_shifts_with_drift():
    # a fast oscillator reaches the target count early, a slow one late
    for drift in (100.0, -100.0):
        start = clock.synced_start_us(SimClock(drift_ppm=drift), 100e6, 100, 102)
        want = 100e6 + 2e6 / (1.0 + drift * 1e-6)
        assert start == pytest.approx(want, abs=1e-6)
        if drift > 0:
            assert start < 102e6
        else:
            assert start > 102e6


def _synced_start(seed, drift_ppm=0.0, sync_second=100, start_second=102):
    edge = clock.timepulse_edge_us(seed, sync_second)
    return clock.synced_start_us(SimClock(drift_ppm=drift_ppm), edge,
                                 sync_second, start_second)


def test_two_station_start_offset_rms_matches_pulse_jitter():
    # each station's start error is one independent 30 us pulse jitter,
    # so the pairwise offset is Gaussian with sigma 30*sqrt(2) = 42.4 us
    trials = 2000
    diffs = np.array([
        _synced_start((t, 0)) - _synced_start((t, 1)) for t in range(trials)
    ])
    rms = float(np.sqrt(np.mean(diffs**2)))
    assert 38.0 < rms < 47.0


def test_start_offset_from_drift_alone_is_deterministic():
    a = _synced_start(seed=0, drift_ppm=100.0, start_second=105)
    b = _synced_start(seed=0, drift_ppm=-100.0, start_second=105)
    # seed is shared so the pulse jitter cancels; 5 scheduled seconds at
    # 200 ppm relative rate put the two starts about 1 ms apart
    assert a - b == pytest.approx(-1000.0, abs=0.2)


def test_timestamp_disagreement_bounded_over_a_capture():
    # two stations latched at one edge read each later second at
    # instants that drift apart by 200 ppm of the seconds counted
    gap = np.array([
        abs(_synced_start(99, 100.0, start_second=s)
            - _synced_start(99, -100.0, start_second=s))
        for s in range(101, 108)
    ])
    assert float(gap.max()) < 1600.0
    assert np.all(np.diff(gap) > 0)
