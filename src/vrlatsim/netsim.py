"""Two-station networked measurement.

The sender transmits its tracked platform angle at a fixed update rate
over a link with constant one-way delay and optional jitter.  Updates
are delivered in order; the receiver holds the last delivered value and
renders it through its own pipeline.  Latency added by the network path
is therefore the one-way delay plus the staleness of the zero-order
hold, on average half an update interval.

Both stations schedule their capture start for the same UTC second via
GPS-synced clocks; the residual disagreement of those starts is
exactly the clock-sync error, far below the 1 ms lag resolution at the
start.  Drift is never corrected after it, so the two sample clocks
separate by |drift_a - drift_b| ppm over the capture: 50 us per second
on remote-default, a whole lag step after 20 s.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clock import SimClock, synced_start_us, timepulse_edge_us
from .errors import SimulationError
from .rig import (SteppedAngleHistory, _signal_key, gaussian_noise,
                  platform_angle, simulate_station, station_signal)

SEND_WARMUP_MS = 300.0  # transmit this long before capture so the hold is warm


@dataclass(frozen=True)
class NetworkConfig:
    send_rate_hz: float = 29.0
    one_way_delay_ms: float = 0.5
    jitter_ms: float = 0.0


def sample_and_send(angle_fn, net: NetworkConfig, t_start_us, t_end_us, rng):
    """Sample an angle stream at the send rate and deliver it over the link.

    Returns (delivery_times_us, angles).  The first send falls a phase
    after t_start_us, drawn uniformly from one send interval as rng's
    first draw.  Jitter is Gaussian, clipped at zero, and deliveries are
    forced monotonic so packets never overtake each other.
    """
    interval_us = 1e6 / net.send_rate_hz
    phase_us = float(rng.uniform(0.0, interval_us))
    count = int(np.floor((t_end_us - t_start_us - phase_us) / interval_us)) + 1
    if count <= 0:
        raise SimulationError("send window too short for a single update")
    send_times = t_start_us + phase_us + np.arange(count) * interval_us
    delays_us = np.full(count, net.one_way_delay_ms * 1000.0)
    if net.jitter_ms > 0:
        delays_us = delays_us + np.maximum(
            0.0, gaussian_noise(rng, net.jitter_ms * 1000.0, count)
        )
    deliveries = np.maximum.accumulate(send_times + delays_us)
    return deliveries, np.asarray(angle_fn(send_times), dtype=float)


def _synced_start_us(clock: SimClock, tag: int, scenario) -> float:
    """True instant at which a station starts: its clock is latched at the
    timepulse sync_lead_s seconds before the start second; tag (1 for A,
    2 for B) seeds the station's own edge jitter."""
    sync_second = scenario.start_utc_second - scenario.sync_lead_s
    pulse_seed = np.random.SeedSequence((scenario.seed, tag, 0xC10C))
    edge_us = timepulse_edge_us(pulse_seed, sync_second)
    return synced_start_us(clock, edge_us, sync_second, scenario.start_utc_second)


def remote_capture(scenario):
    """Run the sender and receiver stations of a networked scenario.

    Returns (sender_capture, receiver_capture).  The sender's display
    shows its own local render loop, the same frames for every seed, so
    its frame train is held across seeds (`rig.station_signal`); the
    receiver's display shows the angle stream arriving over the network,
    rendered through the receiver pipeline.  The receiver platform is
    parked at the motion center so its potentiometer channel carries no
    signal.
    """
    from .scenario import raise_if_invalid, receiver_pipeline  # import cycle

    flat = raise_if_invalid(scenario)
    if scenario.net is None:
        raise SimulationError("scenario has no network configuration")

    seed_root = np.random.SeedSequence(scenario.seed)
    rng_a, rng_b, rng_net = [np.random.default_rng(s) for s in seed_root.spawn(3)]

    start_true_a = _synced_start_us(scenario.clock_a, 1, scenario)
    start_true_b = _synced_start_us(scenario.clock_b, 2, scenario)
    nominal_start_us = scenario.start_utc_second * 1_000_000

    def sender_platform(t_us):
        return platform_angle(
            scenario.motion,
            (np.asarray(t_us, dtype=float) - nominal_start_us) / 1000.0,
        )

    # the sender transmits its tracked angle, i.e. the platform as seen
    # through its tracking delay
    tracking_us = scenario.pipeline.tracking_delay_ms * 1000.0

    def sender_tracked(t_us):
        return sender_platform(np.asarray(t_us, dtype=float) - tracking_us)

    send_start = min(start_true_a, start_true_b) - SEND_WARMUP_MS * 1000.0
    send_end = max(start_true_a, start_true_b) + scenario.duration_ms * 1000.0 + 1e5
    deliveries, values = sample_and_send(
        sender_tracked, scenario.net, send_start, send_end, rng_net
    )
    received = SteppedAngleHistory(deliveries, values)

    sender = simulate_station(
        station_id="A",
        start_utc_us=nominal_start_us,
        signal=station_signal(
            platform_fn=sender_platform, display_source=sender_platform,
            pipeline=scenario.pipeline, sensors=scenario.sensors,
            angle_range_deg=scenario.angle_range_deg, clock=scenario.clock_a,
            true_start_us=start_true_a, duration_ms=scenario.duration_ms,
            hold_key=_signal_key(flat)),
        sensors=scenario.sensors,
        rng=rng_a,
    )

    center = scenario.motion.center_deg

    def receiver_platform(t_us):
        return np.full(np.shape(np.asarray(t_us, dtype=float)), center)

    receiver = simulate_station(
        station_id="B",
        start_utc_us=nominal_start_us,
        signal=station_signal(
            platform_fn=receiver_platform, display_source=received,
            pipeline=receiver_pipeline(scenario), sensors=scenario.sensors,
            angle_range_deg=scenario.angle_range_deg, clock=scenario.clock_b,
            true_start_us=start_true_b, duration_ms=scenario.duration_ms),
        sensors=scenario.sensors,
        rng=rng_b,
    )
    return sender, receiver
