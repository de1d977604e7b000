"""Network path and two-station measurement tests."""
import copy
from dataclasses import replace

import numpy as np
import pytest

from vrlatsim import cli, estimator, netsim
from vrlatsim.errors import SimulationError
from vrlatsim.netsim import NetworkConfig
from vrlatsim.rig import SteppedAngleHistory, station_signal
from vrlatsim.scenario import get_preset


def _ramp(t_us):
    return np.asarray(t_us, dtype=float) / 1000.0


def _phase_us(rng, rate_hz=29.0):
    """The send-grid phase sample_and_send draws first from rng, read from
    a copy so that rng itself is left as it is."""
    return float(copy.deepcopy(rng).uniform(0.0, 1e6 / rate_hz))


def test_send_grid_spacing_matches_the_update_rate():
    net = NetworkConfig(send_rate_hz=29.0, one_way_delay_ms=0.5)
    rng = np.random.default_rng(0)
    phase_us = _phase_us(rng)
    deliveries, values = netsim.sample_and_send(_ramp, net, 0.0, 1_000_000.0, rng)
    spacing = np.diff(deliveries)
    assert np.allclose(spacing, 1e6 / 29.0)
    assert deliveries[0] == pytest.approx(phase_us + 500.0)
    # the transmitted values carry the send-time ramp
    assert values[0] == pytest.approx(phase_us / 1000.0)
    assert values[1] == pytest.approx(phase_us / 1000.0 + 1000.0 / 29.0)


def test_the_drawn_phase_offsets_the_grid():
    rng = np.random.default_rng(3)
    phase_us = _phase_us(rng)
    deliveries, _ = netsim.sample_and_send(_ramp, NetworkConfig(), 10_000.0, 510_000.0, rng)
    assert deliveries[0] == pytest.approx(10_000.0 + phase_us + 500.0)


def test_random_phase_is_drawn_from_one_update_interval():
    net = NetworkConfig()
    firsts = []
    for seed in range(50):
        deliveries, _ = netsim.sample_and_send(
            _ramp, net, 0.0, 500_000.0, np.random.default_rng(seed)
        )
        firsts.append(deliveries[0] - 500.0)
    firsts = np.asarray(firsts)
    assert np.all(firsts >= 0.0)
    assert np.all(firsts < 1e6 / 29.0)
    assert firsts.std() > 1000.0


def test_jittered_deliveries_stay_ordered_and_never_undershoot():
    net = NetworkConfig(one_way_delay_ms=0.5, jitter_ms=20.0)
    rng = np.random.default_rng(11)
    phase_us = _phase_us(rng)
    deliveries, _ = netsim.sample_and_send(_ramp, net, 0.0, 2_000_000.0, rng)
    sends = phase_us + np.arange(deliveries.shape[0]) * (1e6 / 29.0)
    assert np.all(np.diff(deliveries) >= 0.0)
    assert np.all(deliveries >= sends + 500.0)


def test_too_short_send_window_is_an_error():
    # seed 0 draws a phase past the 10 ms window, so no update is sent
    rng = np.random.default_rng(0)
    assert _phase_us(rng) > 10_000.0
    with pytest.raises(SimulationError):
        netsim.sample_and_send(_ramp, NetworkConfig(), 0.0, 10_000.0, rng)


def test_receiver_hold_staleness_averages_half_an_interval():
    # transmit a ramp that encodes its own send time; the hold's error
    # is then exactly the staleness of the last delivered update
    net = NetworkConfig(send_rate_hz=29.0, one_way_delay_ms=0.5)
    deliveries, values = netsim.sample_and_send(_ramp, net, 0.0, 10_000_000.0,
                                                np.random.default_rng(0))
    held = SteppedAngleHistory(deliveries, values)
    t = np.arange(1_000_000.0, 9_000_000.0, 250.0)
    staleness_ms = t / 1000.0 - held(t)
    # half of 34.48 ms plus the 0.5 ms wire delay
    assert staleness_ms.mean() == pytest.approx(17.74, abs=0.8)
    assert staleness_ms.min() >= 0.5 - 1e-9


def test_remote_capture_requires_a_network_config():
    with pytest.raises(SimulationError):
        netsim.remote_capture(get_preset("vive-baseline"))


def test_remote_capture_station_roles():
    sender, receiver = netsim.remote_capture(
        replace(get_preset("remote-default"), duration_ms=1500.0))
    assert sender.station_id == "A"
    assert receiver.station_id == "B"
    assert len(sender) == 1500
    assert len(receiver) == 1500
    assert sender.start_utc_us == receiver.start_utc_us
    # the receiver platform is parked, so its reference channel is flat
    # up to sensor noise while the sender's sweeps widely
    assert receiver.pot.std() < 0.01
    assert sender.pot.std() > 0.05


def test_remote_capture_is_deterministic():
    sc = replace(get_preset("remote-default"), duration_ms=1200.0)
    a1, b1 = netsim.remote_capture(sc)
    a2, b2 = netsim.remote_capture(sc)
    assert np.array_equal(a1.pot, a2.pot)
    assert np.array_equal(b1.photo, b2.photo)


# each station's true start at seed 1 and 2, written with float.hex: the
# trace rounds times to 1e-6 us, so golden digests cannot see a 1-ulp move
_PINNED_STARTS = {
    1: ("0x1.74876e819fb8dp+36", "0x1.74876e839801ep+36"),
    2: ("0x1.74876e7d10e15p+36", "0x1.74876e849a695p+36"),
}


@pytest.mark.parametrize("preset", ["remote-default", "remote-asymmetric"])
@pytest.mark.parametrize("seed", sorted(_PINNED_STARTS))
def test_remote_station_starts_are_pinned_to_the_bit(preset, seed, monkeypatch):
    starts = []

    def recording_signal(**kwargs):
        starts.append(kwargs["true_start_us"])
        return station_signal(**kwargs)

    monkeypatch.setattr(netsim, "station_signal", recording_signal)
    netsim.remote_capture(replace(get_preset(preset), seed=seed, duration_ms=50.0))
    assert tuple(float(s).hex() for s in starts) == _PINNED_STARTS[seed]


def test_remote_latency_exceeds_the_receiver_local_chain():
    sc = replace(get_preset("remote-default"), duration_ms=3000.0)
    sender, receiver = netsim.remote_capture(sc)
    pot = estimator.decode_pot_trace(sender)
    remote = estimator.estimate_remote(
        pot, estimator.decode_display_trace(receiver), max_lag_ms=80
    )
    # receiver chain alone: 2 ms tracking + 3 ms render + half a frame
    # plus hold; the network adds its wire delay and hold staleness
    assert remote.best_lag_ms >= 12
    assert 20 <= remote.best_lag_ms <= 40
    assert remote.peak_coefficient > 0.95


def test_receiver_extrapolation_shortens_the_remote_path():
    base = netsim.remote_capture(replace(get_preset("remote-default"), duration_ms=3000.0))
    pred = netsim.remote_capture(replace(get_preset("remote-asymmetric"), duration_ms=3000.0))
    lag_base = estimator.estimate_remote(
        estimator.decode_pot_trace(base[0]),
        estimator.decode_display_trace(base[1]), max_lag_ms=80
    ).best_lag_ms
    lag_pred = estimator.estimate_remote(
        estimator.decode_pot_trace(pred[0]),
        estimator.decode_display_trace(pred[1]), max_lag_ms=80
    ).best_lag_ms
    assert lag_pred < lag_base


def test_cli_report_composes_local_and_remote(tmp_path):
    result = cli.simulate_scenario(get_preset("remote-default"))
    report = result.report
    assert report.remote_direction == "A->B"
    assert report.remote_latency_ms is not None
    assert report.motion_to_photon_ms is not None
    assert report.remote_latency_ms > report.motion_to_photon_ms
