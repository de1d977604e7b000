"""Mouth-to-ear latency measurement.

A buzzer plays a full-scale tone that reaches a detector at the far side
of a configurable delay path.  The detector is polled on the capture's
1 kHz grid (`rig.ADC_SAMPLE_HZ`) up to DEFAULT_HORIZON_MS and hears the
tone from the first poll at or after its arrival.  Latency is counted in
whole 1 ms polling intervals, so a measurement can never be early and
exceeds the true path delay by less than one interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DetectionTimeoutError
from .rig import ADC_SAMPLE_HZ

DEFAULT_HORIZON_MS = 10_000.0
# the detector's polls: one every POLL_US from 0, the last at LAST_POLL_US,
# the last whole interval within the horizon
POLL_US = 1e6 / ADC_SAMPLE_HZ
POLLS = math.floor(DEFAULT_HORIZON_MS * 1000.0 / POLL_US) + 1
LAST_POLL_US = (POLLS - 1) * POLL_US


@dataclass(frozen=True)
class AudioPathConfig:
    path_delay_ms: float = 0.0


def measure_mouth_to_ear(cfg: AudioPathConfig) -> int:
    """Count whole 1 ms polling intervals until the tone is detected.

    Poll k comes k * POLL_US after onset and hears the tone once
    k * POLL_US >= path_delay_ms * 1000; the count is the first such k.
    """
    heard = np.arange(POLLS) * POLL_US >= cfg.path_delay_ms * 1000.0
    # the polls are in time order, so the last hears it if any does;
    # a nan delay is heard by none
    if not heard[-1]:
        raise DetectionTimeoutError(f"tone not heard within {DEFAULT_HORIZON_MS} ms")
    return int(heard.argmax())
