"""Mouth-to-ear measurement tests.

The governing property: interval counting can never report early, and
overshoots the true path delay by less than one polling interval.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vrlatsim import audio
from vrlatsim.audio import AudioPathConfig
from vrlatsim.errors import DetectionTimeoutError


def test_square_wave_alternates_half_periods():
    cfg = AudioPathConfig(tone_hz=4000.0)
    # 4 kHz -> 250 us period, so the wave flips every 125 us
    assert audio.buzzer_waveform(cfg, 0.0) == 1.0
    assert audio.buzzer_waveform(cfg, 124.9) == 1.0
    assert audio.buzzer_waveform(cfg, 125.0) == -1.0
    assert audio.buzzer_waveform(cfg, 250.0) == 1.0


def test_square_wave_is_always_full_scale():
    cfg = AudioPathConfig(tone_hz=333.0)
    t = np.linspace(0.0, 50_000.0, 10_001)
    assert np.all(np.abs(audio.buzzer_waveform(cfg, t)) == 1.0)


@pytest.mark.parametrize("delay_ms", [0.0, 50.0, 100.0, 144.1, 168.3])
def test_known_delays_measure_within_one_interval(delay_ms):
    cfg = AudioPathConfig(path_delay_ms=delay_ms)
    intervals = audio.measure_mouth_to_ear(cfg)
    assert intervals >= delay_ms
    assert intervals < delay_ms + 1.0


@given(st.floats(min_value=0.0, max_value=2000.0,
                 allow_nan=False, allow_infinity=False))
def test_measurement_is_never_early_and_overshoots_below_one_interval(delay_ms):
    cfg = AudioPathConfig(path_delay_ms=delay_ms)
    intervals = audio.measure_mouth_to_ear(cfg)
    assert delay_ms <= intervals <= delay_ms + 1.0


@given(st.floats(min_value=100.0, max_value=20_000.0,
                 allow_nan=False, allow_infinity=False))
def test_tone_frequency_does_not_change_the_count(tone_hz):
    # the detector rectifies, so any full-scale square wave crosses the
    # threshold at the first poll after arrival
    base = audio.measure_mouth_to_ear(AudioPathConfig(path_delay_ms=77.4))
    other = audio.measure_mouth_to_ear(
        AudioPathConfig(tone_hz=tone_hz, path_delay_ms=77.4)
    )
    assert other == base


def test_attenuated_signal_below_threshold_times_out():
    cfg = AudioPathConfig(path_delay_ms=5.0, attenuation=0.4, threshold=0.5)
    with pytest.raises(DetectionTimeoutError):
        audio.measure_mouth_to_ear(cfg)


def test_silence_past_the_horizon_times_out():
    # the last poll is at the horizon itself, so a tone arriving at it
    # counts and one a poll later does not
    horizon = audio.DEFAULT_HORIZON_MS
    intervals = audio.measure_mouth_to_ear(AudioPathConfig(path_delay_ms=horizon))
    assert intervals == int(horizon)
    cfg = AudioPathConfig(path_delay_ms=horizon + 0.5)
    with pytest.raises(DetectionTimeoutError, match="within 10000.0 ms"):
        audio.measure_mouth_to_ear(cfg)


def test_noisy_measurement_is_seed_deterministic():
    cfg = AudioPathConfig(path_delay_ms=60.0, noise_sigma=0.05)
    a = audio.measure_mouth_to_ear(cfg, seed=42)
    b = audio.measure_mouth_to_ear(cfg, seed=42)
    assert a == b


def test_detector_polls_on_its_own_grid():
    # a coarser detector can only answer in its own interval multiples
    cfg = AudioPathConfig(path_delay_ms=3.0, sample_hz=100.0)
    assert audio.measure_mouth_to_ear(cfg) == 10


def test_interval_count_is_the_ceiling_of_the_crossing():
    intervals = audio.measure_mouth_to_ear(AudioPathConfig(path_delay_ms=42.5))
    assert intervals == 43
    assert type(intervals) is int
