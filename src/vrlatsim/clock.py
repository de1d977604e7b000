"""Drifting local clocks and pulse-per-second synchronization.

Each measurement station runs on a free crystal oscillator with a fixed
frequency offset (drift, in ppm).  A GPS receiver provides a hardware
timepulse on every full UTC second plus a slower serial message naming
that second.  Synchronization records the local-clock reading at one
pulse edge; later UTC estimates count local microseconds from that
anchor.  Drift is deliberately not corrected, only the offset is, which
bounds timestamp error by drift times the elapsed time since sync.

True time throughout the package is the UTC microsecond axis.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ClockStateError, ClockSyncError

PULSE_SIGMA_US = 30.0          # timepulse edge jitter, RMS
UTC_MESSAGE_LAG_US = 100_000.0  # serial timestamp trails its pulse edge
US_PER_SECOND = 1_000_000


@dataclass(frozen=True)
class SyncState:
    """Anchor recorded at a timepulse edge: which second it was and the
    local-clock reading when the edge arrived."""

    utc_second: int
    local_edge_us: float


@dataclass(frozen=True)
class SimClock:
    drift_ppm: float = 0.0
    epoch_offset_us: float = 0.0
    seed: int = 0
    sync_state: SyncState | None = None

    def __post_init__(self):
        if abs(self.drift_ppm) >= 1e6:
            raise ValueError("drift_ppm must keep the oscillator rate positive")


@dataclass(frozen=True)
class TimepulseEvent:
    utc_second: int
    true_time_us: int        # nominal full-second boundary
    jittered_time_us: float  # when the edge physically rises


@dataclass(frozen=True)
class UtcMessage:
    utc_second: int
    arrival_true_time_us: float


def local_now(clock: SimClock, true_time_us):
    """Local oscillator reading at the given true time.

    Computed as offset + t + t*ppm/1e6 with the multiply before the
    divide, so integer-friendly inputs stay exact in float64.
    """
    t = np.asarray(true_time_us, dtype=float)
    return clock.epoch_offset_us + t + (t * clock.drift_ppm) / 1e6


def true_time_of_local(clock: SimClock, local_us):
    """Invert local_now: the true time at which the clock reads local_us."""
    rate = 1.0 + clock.drift_ppm * 1e-6
    return (np.asarray(local_us, dtype=float) - clock.epoch_offset_us) / rate


def generate_timepulses(seed, start_utc_second, count, sigma_us=PULSE_SIGMA_US):
    """Timepulse edges for consecutive UTC seconds.

    Each edge rises at the nominal second boundary plus independent
    Gaussian jitter.  `seed` may be anything numpy's default_rng accepts.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if sigma_us < 0:
        raise ValueError("sigma_us must be >= 0")
    rng = np.random.default_rng(seed)
    jitter = rng.normal(0.0, sigma_us, size=count) if sigma_us > 0 else np.zeros(count)
    pulses = []
    for k in range(count):
        second = start_utc_second + k
        nominal = second * US_PER_SECOND
        pulses.append(
            TimepulseEvent(
                utc_second=second,
                true_time_us=nominal,
                jittered_time_us=nominal + float(jitter[k]),
            )
        )
    return pulses


def utc_messages_for(pulses, lag_us=UTC_MESSAGE_LAG_US):
    """Serial UTC messages matching a pulse train, arriving lag_us later."""
    return [
        UtcMessage(
            utc_second=p.utc_second,
            arrival_true_time_us=p.jittered_time_us + lag_us,
        )
        for p in pulses
    ]


def sync_to_gps(clock: SimClock, pulse: TimepulseEvent, message: UtcMessage) -> SimClock:
    """Anchor the clock's UTC estimate at a timepulse edge.

    The microcontroller latches its local counter on the pulse interrupt
    and later learns from the serial message which second that was.  The
    message must belong to the pulse: same second, and it must arrive
    after the edge but before the next one.  Re-synchronizing with the
    same pulse is idempotent.
    """
    if message.utc_second != pulse.utc_second:
        raise ClockSyncError(
            f"UTC message names second {message.utc_second}, "
            f"pulse is second {pulse.utc_second}"
        )
    window_end = pulse.jittered_time_us + US_PER_SECOND
    if not (pulse.jittered_time_us < message.arrival_true_time_us < window_end):
        raise ClockSyncError(
            "UTC message must arrive after its pulse edge and before the next second"
        )
    state = SyncState(
        utc_second=pulse.utc_second,
        local_edge_us=float(local_now(clock, pulse.jittered_time_us)),
    )
    return replace(clock, sync_state=state)


def utc_now(clock: SimClock, true_time_us):
    """The station's UTC estimate in microseconds at a true time.

    Estimate = anchor_second*1e6 + (local reading - local reading at the
    anchor edge).  Drift is not corrected, so the estimate degrades by
    drift_ppm microseconds per second since sync.
    """
    if clock.sync_state is None:
        raise ClockStateError("clock has never been synced to GPS")
    s = clock.sync_state
    return (s.utc_second * US_PER_SECOND
            + (local_now(clock, true_time_us) - s.local_edge_us))


def schedule_start(clock: SimClock, utc_start_second: int) -> float:
    """True time at which this station believes utc_start_second begins.

    The station starts measuring when its UTC estimate reaches the target
    second, so the returned instant inherits the pulse jitter of the sync
    anchor and the drift accumulated since the anchor second.
    """
    if clock.sync_state is None:
        raise ClockStateError("cannot schedule a start on a clock never synced to GPS")
    s = clock.sync_state
    if utc_start_second <= s.utc_second:
        raise ClockStateError(
            f"start second {utc_start_second} is not after sync second {s.utc_second}"
        )
    target_local = s.local_edge_us + (utc_start_second - s.utc_second) * US_PER_SECOND
    return float(true_time_of_local(clock, target_local))
