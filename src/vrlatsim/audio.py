"""Mouth-to-ear latency measurement.

A buzzer plays a square-wave tone; a rectifying threshold detector on the
far side of a configurable delay path reports the first polling interval
in which sound is present.  Latency is counted in whole 1 ms intervals,
so a measurement can never be early and exceeds the true path delay by
less than one interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DetectionTimeoutError
from .rig import gaussian_noise

DEFAULT_HORIZON_MS = 10_000.0


@dataclass(frozen=True)
class AudioPathConfig:
    tone_hz: float = 4000.0
    path_delay_ms: float = 0.0
    threshold: float = 0.5
    sample_hz: float = 1000.0      # detector polling rate, matches the capture loop
    attenuation: float = 1.0
    noise_sigma: float = 0.0


def buzzer_waveform(cfg: AudioPathConfig, t_us):
    """Square wave: +1 in the first half period, -1 in the second."""
    period_us = 1e6 / cfg.tone_hz
    phase = np.mod(np.asarray(t_us, dtype=float), period_us)
    return np.where(phase < period_us / 2.0, 1.0, -1.0)


def detector_polls(sample_hz: float) -> tuple:
    """(interval in us, count) of the detector's polls, one at each whole
    interval from 0 to the last within DEFAULT_HORIZON_MS."""
    step_us = 1e6 / sample_hz
    return step_us, math.floor(DEFAULT_HORIZON_MS * 1000.0 / step_us) + 1


def measure_mouth_to_ear(cfg: AudioPathConfig, seed=0) -> int:
    """Count whole 1 ms polling intervals until the tone is detected.

    The detector hears attenuation * buzzer_waveform(t - path_delay),
    silence before the sound arrives, plus optional Gaussian noise per
    poll, and answers at the first poll within DEFAULT_HORIZON_MS at
    which the rectified signal reaches the threshold.
    """
    step_us, n = detector_polls(cfg.sample_hz)
    delay_us = cfg.path_delay_ms * 1000.0
    times = np.arange(n) * step_us
    heard = np.zeros(n)
    arrived = times >= delay_us
    if arrived.any():
        heard[arrived] = cfg.attenuation * buzzer_waveform(
            cfg, times[arrived] - delay_us)
    if cfg.noise_sigma > 0:
        # tagged, so the detector noise is not the capture's stream:
        # SeedSequence((seed, 0)) and a plain seed give the same one
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA0D1)))
        heard += gaussian_noise(rng, cfg.noise_sigma, n)
    hits = (np.abs(heard) >= cfg.threshold).nonzero()[0]
    if hits.size == 0:
        raise DetectionTimeoutError(
            f"no threshold crossing within {DEFAULT_HORIZON_MS} ms"
        )
    return int(np.ceil(float(times[hits[0]]) / 1000.0))
