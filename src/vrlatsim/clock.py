"""Drifting local clocks and pulse-per-second synchronization.

Each measurement station runs on a free crystal oscillator with a fixed
frequency offset (drift, in ppm).  A GPS receiver raises a hardware
timepulse on every full UTC second, and a serial message names that
second.  A station latches its local counter at one pulse edge and
starts measuring once the counter has advanced by the whole seconds up
to the start second.  Drift is deliberately not corrected, only the
offset is, so the start inherits the edge jitter plus drift times the
seconds counted.

True time throughout the package is the UTC microsecond axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PULSE_SIGMA_US = 30.0  # timepulse edge jitter, RMS
US_PER_SECOND = 1_000_000


@dataclass(frozen=True)
class SimClock:
    drift_ppm: float = 0.0


def local_now(clock: SimClock, true_time_us):
    """Local oscillator reading at the given true time.

    Computed as t + t*ppm/1e6 with the multiply before the divide, so
    integer-friendly inputs stay exact in float64.
    """
    t = np.asarray(true_time_us, dtype=float)
    return t + (t * clock.drift_ppm) / 1e6


def timepulse_edge_us(seed, utc_second: int) -> float:
    """True instant at which the timepulse of utc_second rises: the
    nominal second boundary plus Gaussian jitter.  `seed` may be anything
    numpy's default_rng accepts."""
    jitter = np.random.default_rng(seed).standard_normal() * PULSE_SIGMA_US
    return utc_second * US_PER_SECOND + float(jitter)


def synced_start_us(clock: SimClock, edge_us: float, sync_second: int,
                    start_second: int) -> float:
    """True instant at which a clock latched at the edge of sync_second
    has counted its way to start_second."""
    target_local = (float(local_now(clock, edge_us))
                    + (start_second - sync_second) * US_PER_SECOND)
    return target_local / (1.0 + clock.drift_ppm * 1e-6)
