"""Mouth-to-ear measurement tests.

The governing property: interval counting can never report early, and
overshoots the true path delay by less than one polling interval.
"""
import bisect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vrlatsim import audio
from vrlatsim.audio import AudioPathConfig
from vrlatsim.errors import DetectionTimeoutError
from vrlatsim.rig import ADC_SAMPLE_HZ


@pytest.mark.parametrize("delay_ms", [0.0, 50.0, 100.0, 144.1, 168.3])
def test_known_delays_measure_within_one_interval(delay_ms):
    cfg = AudioPathConfig(path_delay_ms=delay_ms)
    intervals = audio.measure_mouth_to_ear(cfg)
    assert intervals >= delay_ms
    assert intervals < delay_ms + 1.0


@given(st.floats(min_value=0.0, max_value=audio.DEFAULT_HORIZON_MS,
                 allow_nan=False, allow_infinity=False))
def test_measurement_is_never_early_and_overshoots_below_one_interval(delay_ms):
    # [0, 10 000] ms is every delay a valid scenario holds
    cfg = AudioPathConfig(path_delay_ms=delay_ms)
    intervals = audio.measure_mouth_to_ear(cfg)
    assert delay_ms <= intervals <= delay_ms + 1.0


def test_silence_past_the_horizon_times_out():
    # the last poll is at the horizon itself, so a tone arriving at it
    # counts and one a poll later does not
    horizon = audio.DEFAULT_HORIZON_MS
    intervals = audio.measure_mouth_to_ear(AudioPathConfig(path_delay_ms=horizon))
    assert intervals == int(horizon)
    cfg = AudioPathConfig(path_delay_ms=horizon + 0.5)
    with pytest.raises(DetectionTimeoutError, match="within 10000.0 ms"):
        audio.measure_mouth_to_ear(cfg)


def test_the_detector_polls_on_the_capture_grid():
    # one poll per capture sample, from onset to the horizon inclusive
    assert audio.POLL_US == 1e6 / ADC_SAMPLE_HZ == 1000.0
    assert audio.POLLS == 10_001
    assert audio.LAST_POLL_US == audio.DEFAULT_HORIZON_MS * 1000.0


# poll k at k * 1000.0 us, written out in Python floats: the count is the
# first poll at or after the arrival, and none after the last times out
_GRID_US = [k * 1000.0 for k in range(audio.POLLS)]


@pytest.mark.parametrize("side", [-1, 0, 1], ids=["ulp-below", "whole", "ulp-above"])
def test_every_whole_ms_and_its_ulp_neighbours_count_as_the_grid_says(side):
    whole = np.arange(int(audio.DEFAULT_HORIZON_MS) + 1, dtype=float)
    delays = whole if side == 0 else np.nextafter(whole, side * np.inf)
    for delay_ms in delays.tolist():
        k = bisect.bisect_left(_GRID_US, delay_ms * 1000.0)
        cfg = AudioPathConfig(path_delay_ms=delay_ms)
        if k == len(_GRID_US):
            with pytest.raises(DetectionTimeoutError):
                audio.measure_mouth_to_ear(cfg)
        else:
            assert audio.measure_mouth_to_ear(cfg) == k, delay_ms


def test_interval_count_is_the_ceiling_of_the_crossing():
    intervals = audio.measure_mouth_to_ear(AudioPathConfig(path_delay_ms=42.5))
    assert intervals == 43
    assert type(intervals) is int


@pytest.mark.parametrize("whole_ms", [0, 1, 42, 144, 9999, 10_000])
def test_a_delay_one_ulp_past_a_whole_interval_waits_for_the_next_poll(whole_ms):
    below, above = (float(d) for d in np.nextafter(float(whole_ms), [-np.inf, np.inf]))
    assert audio.measure_mouth_to_ear(AudioPathConfig(path_delay_ms=below)) == whole_ms
    assert audio.measure_mouth_to_ear(AudioPathConfig(path_delay_ms=whole_ms)) == whole_ms
    if whole_ms < audio.DEFAULT_HORIZON_MS:
        assert audio.measure_mouth_to_ear(AudioPathConfig(path_delay_ms=above)) == whole_ms + 1
    else:
        with pytest.raises(DetectionTimeoutError):
            audio.measure_mouth_to_ear(AudioPathConfig(path_delay_ms=above))


@pytest.mark.parametrize("delay_ms,count", [
    (-1.0, 0), (-0.0, 0), (-np.inf, 0), (1e308, None), (np.inf, None), (np.nan, None)])
def test_a_delay_outside_the_valid_range_counts_as_the_poll_grid_says(delay_ms, count):
    # validate refuses each of these, but a direct call gets the grid's
    # answer: a tone that arrives before onset is heard at the first poll,
    # and one that never arrives is not heard
    cfg = AudioPathConfig(path_delay_ms=delay_ms)
    if count is None:
        with pytest.raises(DetectionTimeoutError):
            audio.measure_mouth_to_ear(cfg)
    else:
        assert audio.measure_mouth_to_ear(cfg) == count
