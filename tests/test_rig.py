"""Measurement-station tests: motion, pipeline timing, sensor response
and the end-to-end capture loop."""
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vrlatsim import codec, estimator, netsim, rig
from vrlatsim import scenario as scenario_mod
from vrlatsim.clock import SimClock
from vrlatsim.errors import SimulationError
from vrlatsim.rig import (
    MotionProfile,
    PipelineConfig,
    RawCapture,
    SensorConfig,
    SteppedAngleHistory,
)
from vrlatsim.scenario import get_preset, preset_names


@pytest.fixture(autouse=True)
def no_held_signal(monkeypatch):
    """Each test starts without a held local signal, as a fresh process
    does; the entry in place before the test is put back after it."""
    monkeypatch.setattr(rig, "_held_signal", None)


def test_platform_angle_hits_the_quarter_points():
    profile = MotionProfile(amplitude_deg=40.0, period_ms=1000.0, center_deg=180.0)
    assert rig.platform_angle(profile, 0.0) == pytest.approx(180.0)
    assert rig.platform_angle(profile, 250.0) == pytest.approx(220.0)
    assert rig.platform_angle(profile, 500.0) == pytest.approx(180.0)
    assert rig.platform_angle(profile, 750.0) == pytest.approx(140.0)


def test_potentiometer_normalizes_and_clamps():
    def parked(t_us):
        return np.full(np.shape(t_us), 180.0)

    pot, _ = rig.station_signal(
        platform_fn=parked, display_source=parked, pipeline=PipelineConfig(),
        sensors=SensorConfig(), angle_range_deg=360.0, clock=SimClock(),
        true_start_us=0.0, duration_ms=10.0)
    assert np.array_equal(pot, np.full(10, 0.5))
    rng = np.random.default_rng(0)
    reads = rig.sensor_reading(np.array([0.5, -10.0 / 360.0, 1.25]), 0.0, rng)
    assert np.array_equal(reads, [0.5, 0.0, 1.0])


def test_potentiometer_noise_statistics():
    rng = np.random.default_rng(5)
    reads = rig.sensor_reading(np.full(20_000, 0.5), 0.01, rng)
    assert abs(reads.mean() - 0.5) < 3 * 0.01 / math.sqrt(20_000)
    assert 0.0095 < reads.std() < 0.0105


def test_pipeline_samples_the_history_before_the_frame():
    queried = []

    def recorder(t_us):
        t = np.asarray(t_us, dtype=float)
        queried.append(t.copy())
        return np.full(t.shape, 100.0)

    pipeline = PipelineConfig(tracking_delay_ms=2.0, render_compute_ms=3.0)
    frames = np.array([0.0, 11111.11])
    rig.run_pipeline(pipeline, recorder, 360.0, frames)
    assert np.allclose(queried[0], frames - 5000.0)


def test_pipeline_static_angle_gives_constant_code():
    pipeline = PipelineConfig()
    codes = rig.run_pipeline(pipeline, lambda t: np.full(np.shape(t), 90.0), 360.0,
                             np.arange(10) * pipeline.frame_ms * 1000.0)
    assert np.all(codes == 1024)   # a quarter of the 4096-code scale


def test_frame_delay_queue_shifts_codes_by_whole_frames():
    def history(t):
        return 10.0 + t / 1e6

    pipeline = PipelineConfig(frame_delay_queue_len=3)
    frames = np.arange(20) * pipeline.frame_ms * 1000.0
    delayed = rig.run_pipeline(pipeline, history, 360.0, frames)
    fresh = rig.run_pipeline(PipelineConfig(), history, 360.0, frames)
    assert np.array_equal(delayed[3:], fresh[:-3])
    assert np.all(delayed[:3] == fresh[0])


def test_extrapolation_is_exact_on_linear_motion():
    # on a linear ramp the two-sample slope is the true derivative, so
    # predicting e ms ahead must reproduce the ramp exactly
    slope_deg_per_ms = 0.01

    def history(t):
        return 50.0 + slope_deg_per_ms * t / 1000.0

    frames = np.arange(5, 50, dtype=float) * 11111.11
    plain = PipelineConfig(extrapolation_ms=0.0)
    ahead = PipelineConfig(extrapolation_ms=25.0)
    shifted = rig.run_pipeline(ahead, history, 360.0, frames)
    want = rig.run_pipeline(plain, history, 360.0, frames + 25_000.0)
    assert np.array_equal(shifted, want)


def test_extrapolation_overshoots_sinusoidal_peaks():
    profile = MotionProfile()

    def history(t):
        return rig.platform_angle(profile, t / 1000.0)

    frames = np.arange(0.0, 2_000_000.0, 11111.11)
    plain = rig.run_pipeline(PipelineConfig(), history, 360.0, frames)
    predicted = rig.run_pipeline(PipelineConfig(extrapolation_ms=35.0),
                                 history, 360.0, frames)
    assert predicted.max() > plain.max()
    assert predicted.min() < plain.min()


TAU_260 = 260.0 / math.log(9.0)


def _read(sample_us, frame_lum, *, rise_time_us=260.0, first_frame_us=0.0):
    pipeline, sensors = PipelineConfig(), SensorConfig(rise_time_us=rise_time_us)
    return rig.photosensor_read(sample_us, frame_lum, first_frame_us, pipeline,
                                sensors, rig.start_gaps(frame_lum, pipeline, sensors))


def _per_frame_reference(sample_us, frame_lum, first_frame_us, frame_us,
                         persist_us, tau):
    """Carry the sensor state frame by frame, then apply the closed form."""
    out = []
    for t in sample_us:
        state = np.zeros(codec.DIGIT_COUNT)
        k = 0
        while first_frame_us + (k + 1) * frame_us <= t:
            lum = frame_lum[k]
            end_of_strobe = lum + (state - lum) * math.exp(-persist_us / tau)
            state = end_of_strobe * math.exp(-(frame_us - persist_us) / tau)
            k += 1
        lum = frame_lum[k]
        offset = t - (first_frame_us + k * frame_us)
        if offset < persist_us:
            out.append(lum + (state - lum) * math.exp(-offset / tau))
        else:
            end_of_strobe = lum + (state - lum) * math.exp(-persist_us / tau)
            out.append(end_of_strobe * math.exp(-(offset - persist_us) / tau))
    return np.array(out)


def test_strobe_is_black_outside_the_persistence_window():
    frame_us = PipelineConfig().frame_ms * 1000.0
    lum = np.ones((3, 4))
    times = frame_us + np.array([-0.1, 0.0, 700.0, 1499.9, 1500.0, 5000.0])
    y = _read(times, lum, rise_time_us=0.0)
    assert np.array_equal(y[:, 0], [0.0, 1.0, 1.0, 1.0, 0.0, 0.0])


def test_strobe_shows_the_digit_levels():
    code = codec.decode([1, 4, 0, 7])
    lum = codec.digits_to_luminance(codec.encode(np.array([code, code])))
    y = _read([500.0], lum, rise_time_us=0.0)
    assert np.allclose(y, [[1 / 7, 4 / 7, 0.0, 1.0]])


def test_step_response_matches_the_closed_form():
    # offsets off any fixed grid, including both sides of the strobe end
    offsets = np.array([0.0, 7.0, 33.3, 1499.9, 1500.0, 1500.1])
    y = _read(offsets, np.ones((1, 4)))[:, 0]
    want = np.where(offsets < 1500.0,
                    1.0 - np.exp(-offsets / TAU_260),
                    (1.0 - math.exp(-1500.0 / TAU_260))
                    * np.exp(-(offsets - 1500.0) / TAU_260))
    assert np.max(np.abs(y - want)) <= 1e-12


def test_measured_rise_time_is_the_configured_one():
    times = np.arange(0.0, 1500.0, 1.0)
    y = _read(times, np.ones((1, 4)))[:, 0]
    t10 = times[np.argmax(y >= 0.1)]
    t90 = times[np.argmax(y >= 0.9)]
    assert t90 - t10 == pytest.approx(260.0, abs=1.0)


def test_zero_rise_time_is_a_passthrough():
    pipeline = PipelineConfig()
    frame_us = pipeline.frame_ms * 1000.0
    rng = np.random.default_rng(3)
    lum = rng.integers(0, 8, size=(6, 4)) / 7.0
    times = 20.0 + np.arange(60) * 1000.0 / (1.0 + 150e-6)
    y = _read(times, lum, rise_time_us=0.0)
    k = np.floor(times / frame_us).astype(int)
    lit = (times - k * frame_us) < 1500.0
    assert np.array_equal(y, np.where(lit[:, None], lum[k], 0.0))


def test_non_uniform_steps_use_the_exact_exponential():
    # drifted 1 ms samples plus samples exactly at every frame start and
    # strobe end, against a loop that carries the state frame by frame; a
    # 20 ms rise carries a large state across frame boundaries
    pipeline = PipelineConfig()
    frame_us = pipeline.frame_ms * 1000.0
    first = -25_000.0
    rng = np.random.default_rng(11)
    lum = rng.integers(0, 8, size=(8, 4)) / 7.0
    drifted = first + 13.7 + np.arange(80) * 1000.0 / (1.0 - 80e-6)
    edges = first + np.arange(7) * frame_us
    times = np.concatenate([drifted, edges, edges + 1500.0])
    for rise_time_us in (260.0, 20_000.0):
        y = _read(times, lum, rise_time_us=rise_time_us, first_frame_us=first)
        want = _per_frame_reference(times, lum, first, frame_us, 1500.0,
                                    rise_time_us / math.log(9.0))
        assert np.max(np.abs(y - want)) <= 1e-12


_PIPELINES = {
    "90hz": PipelineConfig(),
    "360hz": PipelineConfig(refresh_hz=360.0, display_persistence_ms=1.4),
}
_RISE_TIMES_US = (1.0, 260.0, 20_000.0, 200_000.0, 1_000_000.0)


def _recursion_coefficients(pipeline, rise_time_us):
    """a and b of s_{k+1} = a * s_k + b * L_k, as photosensor_read sets them."""
    frame_us = pipeline.frame_ms * 1000.0
    persist_us = pipeline.display_persistence_ms * 1000.0
    tau = rise_time_us / math.log(9.0)
    a = math.exp(-frame_us / tau)
    b = math.exp(-(frame_us - persist_us) / tau) * -math.expm1(-persist_us / tau)
    return a, b


@pytest.mark.parametrize("pipeline", _PIPELINES.values(), ids=_PIPELINES.keys())
@pytest.mark.parametrize("rise_time_us", _RISE_TIMES_US)
def test_frame_start_states_match_a_linear_filter(pipeline, rise_time_us):
    from scipy.signal import lfilter  # oracle only; the package needs no scipy

    rng = np.random.default_rng(int(rise_time_us) + int(pipeline.refresh_hz))
    levels = rng.integers(0, 8, size=(2500, codec.DIGIT_COUNT)) / 7.0
    a, b = _recursion_coefficients(pipeline, rise_time_us)
    want = lfilter([0.0, b], [1.0, -a], levels, axis=0,
                   zi=np.zeros((1, codec.DIGIT_COUNT)))[0]
    got = rig.frame_start_states(levels, a, b)
    assert got.shape == levels.shape
    assert np.all(got[0] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_frame_start_states_handle_one_frame_and_an_instant_sensor():
    one = rig.frame_start_states(np.ones((1, 4)), 0.5, 0.25)
    assert np.array_equal(one, np.zeros((1, 4)))
    # a = 0: each state is the previous frame's level scaled by b alone
    levels = np.arange(12.0).reshape(3, 4)
    got = rig.frame_start_states(levels, 0.0, 0.5)
    assert np.array_equal(got, np.vstack([np.zeros(4), 0.5 * levels[:-1]]))


@pytest.mark.parametrize("pipeline", _PIPELINES.values(), ids=_PIPELINES.keys())
@pytest.mark.parametrize("rise_time_us", _RISE_TIMES_US)
def test_sensor_matches_the_per_frame_loop_on_a_short_schedule(pipeline,
                                                               rise_time_us):
    frame_us = pipeline.frame_ms * 1000.0
    persist_us = pipeline.display_persistence_ms * 1000.0
    first = -3 * frame_us
    rng = np.random.default_rng(29)
    lum = rng.integers(0, 8, size=(14, 4)) / 7.0
    times = first + 5.3 + np.arange(0.0, 12 * frame_us, 397.0)
    sensors = SensorConfig(rise_time_us=rise_time_us)
    y = rig.photosensor_read(times, lum, first, pipeline, sensors,
                             rig.start_gaps(lum, pipeline, sensors))
    want = _per_frame_reference(times, lum, first, frame_us, persist_us,
                                rise_time_us / math.log(9.0))
    assert np.max(np.abs(y - want)) <= 1e-12


def _expression_reference(sample_us, frame_lum, first_frame_us, pipeline,
                          sensors):
    """photosensor_read as one out-of-place expression over fancy-indexed rows."""
    t = np.asarray(sample_us, dtype=float)
    levels = np.asarray(frame_lum, dtype=float)
    frame_us = pipeline.frame_ms * 1000.0
    persist_us = pipeline.display_persistence_ms * 1000.0
    k = np.floor((t - first_frame_us) / frame_us).astype(np.int64)
    offset = (t - (first_frame_us + k * frame_us))[:, None]
    level = levels[k]
    tau = sensors.rise_time_us / math.log(9.0)
    if tau == 0.0:
        return np.where(offset < persist_us, level, 0.0)
    a, b = _recursion_coefficients(pipeline, sensors.rise_time_us)
    start_state = rig.frame_start_states(levels, a, b)
    lit_part = np.exp(-np.minimum(offset, persist_us) / tau)
    dark_part = np.exp(-np.maximum(offset - persist_us, 0.0) / tau)
    return (level + (start_state[k] - level) * lit_part) * dark_part


@pytest.mark.parametrize("pipeline", _PIPELINES.values(), ids=_PIPELINES.keys())
@pytest.mark.parametrize("rise_time_us", (0.0, 1.0, 260.0, 20_000.0))
def test_in_place_sensor_equals_the_expression_bitwise(pipeline, rise_time_us):
    # 3000 samples on a grid drifted by -80 ppm, starting off any frame edge
    frame_us = pipeline.frame_ms * 1000.0
    first = -4 * frame_us
    frames = int(3000 * 1000.0 / frame_us) + 8
    rng = np.random.default_rng(int(rise_time_us) + 7)
    lum = rng.integers(0, 8, size=(frames, codec.DIGIT_COUNT)) / 7.0
    lum_before = lum.copy()
    times = 13.7 + np.arange(3000) * 1000.0 / (1.0 - 80e-6)
    sensors = SensorConfig(rise_time_us=rise_time_us)
    got = rig.photosensor_read(times, lum, first, pipeline, sensors,
                               rig.start_gaps(lum, pipeline, sensors))
    want = _expression_reference(times, lum, first, pipeline, sensors)
    assert got.shape == (3000, codec.DIGIT_COUNT)
    assert np.array_equal(got, want)
    assert np.array_equal(lum, lum_before)


def test_sensor_decay_between_strobes():
    offsets = np.array([1500.0, 1600.0, 2500.0, 4321.5, 11_000.0])
    y = _read(offsets, np.ones((1, 4)))[:, 0]
    level_at_1500 = 1.0 - math.exp(-1500.0 / TAU_260)
    want = level_at_1500 * np.exp(-(offsets - 1500.0) / TAU_260)
    assert np.max(np.abs(y - want)) <= 1e-12
    assert np.all(np.diff(y) < 0)


def test_microsecond_rise_time_stays_finite_without_warnings():
    frame_us = PipelineConfig().frame_ms * 1000.0
    lum = np.full((4, 4), 0.5)
    times = np.arange(0.0, 3 * frame_us, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = _read(times, lum, rise_time_us=1.0)
    offset = times % frame_us
    settled = (offset >= 20.0) & ((offset < 1480.0) | (offset >= 1520.0))
    want = np.where(offset < 1500.0, 0.5, 0.0)
    assert np.all(np.isfinite(y))
    assert np.max(np.abs(y[settled, 0] - want[settled])) < 1e-12


@pytest.mark.parametrize("preset", ["zero-delay", "vive-baseline"])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_vanishing_rise_time_keeps_samples_in_the_unit_range(preset, seed):
    # a sample on a frame boundary rounds to an offset near -1e-10 us,
    # whose exp(-offset/tau) overflowed at this rise time
    sc = replace(get_preset(preset), seed=seed, duration_ms=2000.0,
                 sensors=SensorConfig(rise_time_us=1e-300))
    photo = rig.run_capture(sc).photo
    assert np.all((photo >= 0.0) & (photo <= 1.0))


def test_samples_outside_the_frame_schedule_are_rejected():
    with pytest.raises(SimulationError):
        _read([-1.0], np.ones((2, 4)))
    with pytest.raises(SimulationError):
        _read([3 * PipelineConfig().frame_ms * 1000.0], np.ones((2, 4)))


def test_stepped_history_holds_and_backfills():
    hist = SteppedAngleHistory([0.0, 10.0, 20.0], [1.0, 2.0, 3.0])
    assert hist(5.0) == 1.0
    assert hist(10.0) == 2.0
    assert hist(25.0) == 3.0
    assert hist(-1.0) == 1.0
    assert np.array_equal(hist(np.array([-0.5, 9.9, 20.0])), [1.0, 1.0, 3.0])


def test_stepped_history_rejects_unsorted_times():
    with pytest.raises(SimulationError):
        SteppedAngleHistory([0.0, 10.0, 5.0], [1.0, 2.0, 3.0])


def test_raw_capture_validates_channel_shapes():
    with pytest.raises(ValueError):
        RawCapture("A", 0, np.zeros(5), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        RawCapture("A", 0, np.zeros(5), np.zeros((5, 3)))


def test_run_capture_sample_count_and_metadata():
    capture = rig.run_capture(get_preset("vive-baseline"))
    assert len(capture) == 5000
    assert capture.station_id == "A"
    assert capture.start_utc_us == 100_000 * 1_000_000
    assert capture.photo.shape == (5000, 4)


def test_run_capture_is_deterministic():
    sc = get_preset("vive-baseline")
    first = rig.run_capture(sc)
    second = rig.run_capture(sc)
    assert np.array_equal(first.pot, second.pot)
    assert np.array_equal(first.photo, second.photo)


def test_strobe_duty_cycle_shows_up_in_the_capture():
    capture = rig.run_capture(get_preset("vive-baseline"))
    lit = (capture.photo.max(axis=1) >= estimator.BLACK_THRESHOLD).mean()
    # 1.5 ms persistence per 11.11 ms frame, widened a little by the
    # sensor decay tail
    assert 0.12 < lit < 0.20


def test_zero_delay_display_tracks_the_potentiometer():
    capture = rig.run_capture(replace(get_preset("zero-delay"), duration_ms=2000.0))
    pot = estimator.decode_pot_trace(capture).values
    disp = estimator.decode_display_trace(capture).values
    # a display interval shows a code rendered at most one frame plus
    # one hold interval earlier; with no configured delays it must sit
    # inside the recent potentiometer envelope (2 codes of slack covers
    # quantization of the sub-interval offsets)
    window = 4
    bad = 0
    for t in range(window + 10, len(pot)):
        lo = pot[t - window:t + 1].min() - 2
        hi = pot[t - window:t + 1].max() + 2
        if not (lo <= disp[t] <= hi):
            bad += 1
    assert bad == 0


def test_long_capture_peak_memory_stays_small():
    # the closed-form sensor keeps memory proportional to samples + frames;
    # the old 50 us integration grid peaked at 117.7 MB here, and the
    # out-of-place sensor expression at 9.9 MB
    sc = get_preset("vive-baseline")
    tracemalloc.start()
    try:
        rig.run_capture(replace(sc, duration_ms=60_000.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


LOCAL_PRESETS = [name for name in preset_names() if get_preset(name).net is None]


@pytest.fixture
def built(monkeypatch):
    """Arguments of every noiseless signal `run_capture` builds."""
    calls = []
    build = rig.station_signal

    def counting(**kwargs):
        calls.append(kwargs)
        return build(**kwargs)

    monkeypatch.setattr(rig, "station_signal", counting)
    return calls


@pytest.fixture
def station_calls(monkeypatch):
    """Every signal `station_signal` returns, and (station id, signal,
    capture) of every `simulate_station` call, through the names `rig` and
    `netsim` look up."""
    built, noised = [], []
    build, noise = rig.station_signal, rig.simulate_station

    def recording_build(**kwargs):
        built.append(build(**kwargs))
        return built[-1]

    def recording_noise(**kwargs):
        capture = noise(**kwargs)
        noised.append((kwargs["station_id"], kwargs["signal"], capture))
        return capture

    for module in (rig, netsim):
        monkeypatch.setattr(module, "station_signal", recording_build)
        monkeypatch.setattr(module, "simulate_station", recording_noise)
    return built, noised


_LOCAL_300MS = replace(get_preset("vive-baseline"), duration_ms=300.0)
_REMOTE_300MS = replace(get_preset("remote-default"), duration_ms=300.0)
_CAPTURE_KINDS = ["cold-local", "warm-local", "remote"]


def _noised_by(kind, station_calls):
    """The station ids of one capture of `kind` and its `simulate_station`
    calls; a warm capture's earlier cold one is left out."""
    noised = station_calls[1]
    if kind == "remote":
        netsim.remote_capture(_REMOTE_300MS)
        return "AB", noised
    if kind == "warm-local":
        rig.run_capture(_LOCAL_300MS)
        del noised[:]
    rig.run_capture(replace(_LOCAL_300MS, seed=1))
    return "A", noised


@pytest.mark.parametrize("kind", _CAPTURE_KINDS)
def test_every_capture_adds_noise_once_per_station(kind, station_calls):
    # perfbench counts rig.samples from what simulate_station returns
    stations, noised = _noised_by(kind, station_calls)
    assert [station_id for station_id, _, _ in noised] == list(stations)
    assert [len(capture) for _, _, capture in noised] == [300] * len(stations)


@pytest.mark.parametrize("kind", _CAPTURE_KINDS)
def test_every_signal_a_capture_noises_comes_from_station_signal(kind, station_calls):
    _, noised = _noised_by(kind, station_calls)
    built = station_calls[0]
    assert noised and all(any(signal is b for b in built)
                          for _, signal, _ in noised)


def _capture_bytes(capture):
    return (capture.station_id, capture.start_utc_us,
            capture.pot.dtype, capture.pot.shape, capture.pot.tobytes(),
            capture.photo.dtype, capture.photo.shape, capture.photo.tobytes())


def _assert_reuse_keeps_the_bytes(base, seeds, built):
    for seed in seeds:
        sc = replace(base, seed=seed)
        rig._held_signal = None
        fresh = rig.run_capture(sc)
        rig._held_signal = None
        rig.run_capture(replace(sc, seed=seed + 100))  # held from another seed
        before = len(built)
        warm = rig.run_capture(sc)
        assert len(built) == before, "the warm capture rebuilt its signal"
        assert _capture_bytes(warm) == _capture_bytes(fresh)


@pytest.mark.parametrize("preset", LOCAL_PRESETS)
def test_a_held_signal_gives_the_bytes_of_a_fresh_one(preset, built):
    base = replace(get_preset(preset), duration_ms=2000.0)
    _assert_reuse_keeps_the_bytes(base, [0, 1, 2], built)


def test_a_held_20s_signal_gives_the_bytes_of_a_fresh_one(built):
    base = replace(get_preset("vive-baseline"), duration_ms=20_000.0)
    _assert_reuse_keeps_the_bytes(base, [1, 7], built)


def _moved(flat: dict, key: str) -> dict:
    """flat with key set to another value that gives a valid scenario."""
    section, field, hint = scenario_mod._KEYS[key]
    if key in flat:
        value = flat[key]
    else:  # an unset optional section: start from its defaults
        value = getattr(scenario_mod._SECTIONS[section](), field)
    start = 1.0 if value is None else value
    for candidate in (start + 1, start * 2, start / 2, start - 1, 0.5, 0.25):
        if hint is int and candidate != int(candidate):
            continue
        trial = {**flat, key: int(candidate) if hint is int else float(candidate)}
        if trial[key] == value:
            continue
        try:
            sc = scenario_mod.scenario_from_flat(trial)
        except scenario_mod.ScenarioValidationError:
            continue
        if not scenario_mod.validate(sc):
            return trial
    raise AssertionError(f"no other valid value found for {key}")


def _every_section():
    """audio-local with the remote sections set too, so that every key of
    the key table has a value of its own to move."""
    return scenario_mod.scenario_from_flat(
        {**scenario_mod.PRESETS["remote-default"], **scenario_mod.PRESETS["audio-local"]})


@pytest.mark.parametrize("make", [lambda: get_preset("vive-baseline"),
                                  lambda: get_preset("audio-local"), _every_section],
                         ids=["vive-baseline", "audio-local", "every-section"])
def test_every_field_but_the_seed_rebuilds_the_signal(make, built):
    base = replace(make(), duration_ms=300.0)
    flat = scenario_mod.scenario_to_flat(base)
    for key in scenario_mod._KEYS:
        if key == "seed":
            continue
        rig.run_capture(base)
        before = len(built)
        rig.run_capture(replace(base, seed=base.seed + 1))
        assert len(built) == before
        rig.run_capture(scenario_mod.scenario_from_flat(_moved(flat, key)))
        assert len(built) == before + 1, f"moving {key} reused the held signal"


def test_an_invalid_scenario_leaves_the_held_signal_alone():
    sc = replace(get_preset("vive-baseline"), duration_ms=300.0)
    rig.run_capture(sc)
    held = rig._held_signal
    with pytest.raises(scenario_mod.ScenarioValidationError):
        rig.run_capture(replace(sc, duration_ms=-1.0))
    assert rig._held_signal is held


def test_a_warm_long_capture_peaks_at_its_own_output():
    # the two noisy channels of 60 s are 2.4 MB; rebuilding the signal
    # peaked at 6.68 MB here
    sc = replace(get_preset("vive-baseline"), duration_ms=60_000.0)
    rig.run_capture(sc)
    tracemalloc.start()
    try:
        rig.run_capture(replace(sc, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2e6


@pytest.mark.parametrize("preset", ["vive-baseline", "zero-delay"])
def test_writing_into_a_capture_leaves_the_next_one_alone(preset):
    sc = replace(get_preset(preset), duration_ms=2000.0)
    want = _capture_bytes(rig.run_capture(sc))
    first = rig.run_capture(sc)
    first.pot[:] = 0.25
    first.photo[:] = 0.75
    assert _capture_bytes(rig.run_capture(sc)) == want
    assert not any(array.flags.writeable for array in rig._held_signal[1])


REMOTE_PRESETS = [name for name in preset_names() if get_preset(name).net is not None]


class FrameBuilds(list):
    """(station, first frame start, last frame start) of every frame train
    `station_signal` builds: the sender's display shows its own platform,
    the receiver's the network stream."""

    def stations(self):
        return [station for station, _, _ in self]


@pytest.fixture
def frame_builds(monkeypatch):
    calls = FrameBuilds()
    build = rig.run_pipeline

    def counting(pipeline, history, angle_range_deg, frame_starts):
        station = "B" if isinstance(history, SteppedAngleHistory) else "A"
        calls.append((station, frame_starts[0], frame_starts[-1]))
        return build(pipeline, history, angle_range_deg, frame_starts)

    monkeypatch.setattr(rig, "run_pipeline", counting)
    return calls


def _remote_bytes(sc):
    return [_capture_bytes(c) for c in netsim.remote_capture(sc)]


def _frame_range(sc, frame_builds):
    """The frames the sender's schedule covers at sc's seed."""
    rig._held_signal = None
    del frame_builds[:]
    netsim.remote_capture(sc)
    return frame_builds[0][1:]


def _seed_with_range(base, seed, same: bool, frame_builds):
    """A seed other than `seed` whose sender covers (if `same`) or does not
    cover the frames of `seed`."""
    want = _frame_range(replace(base, seed=seed), frame_builds)
    for other in range(seed + 1, seed + 200):
        if (_frame_range(replace(base, seed=other), frame_builds) == want) == same:
            return other
    raise AssertionError("no such seed in 200")


@pytest.mark.parametrize("preset", REMOTE_PRESETS)
@pytest.mark.parametrize("seed", range(5))
def test_a_warm_remote_capture_equals_a_cold_one(preset, seed, frame_builds):
    base = replace(get_preset(preset), duration_ms=3000.0)
    sc = replace(base, seed=seed)
    rig._held_signal = None
    cold = _remote_bytes(sc)
    # held from another seed with the same frames: only the receiver's
    # frames are built
    rig._held_signal = None
    netsim.remote_capture(replace(base, seed=_seed_with_range(base, seed, True,
                                                              frame_builds)))
    del frame_builds[:]
    assert _remote_bytes(sc) == cold
    assert frame_builds.stations() == ["B"]
    # held from a seed whose schedule covers other frames: built again
    rig._held_signal = None
    netsim.remote_capture(replace(base, seed=_seed_with_range(base, seed, False,
                                                              frame_builds)))
    del frame_builds[:]
    assert _remote_bytes(sc) == cold
    assert frame_builds.stations() == ["A", "B"]


def test_every_field_but_the_seed_rebuilds_the_sender_frames(frame_builds):
    base = replace(_every_section(), duration_ms=300.0)
    flat = scenario_mod.scenario_to_flat(base)
    for key in scenario_mod._KEYS:
        if key == "seed":
            continue
        moved = scenario_mod.scenario_from_flat(_moved(flat, key))
        rig._held_signal = None
        cold = _remote_bytes(moved)
        netsim.remote_capture(base)
        del frame_builds[:]
        netsim.remote_capture(base)
        assert frame_builds.stations() == ["B"], \
            "the same scenario rebuilt its sender frames"
        assert _remote_bytes(moved) == cold, f"moving {key} changed the bytes"
        assert frame_builds.stations() == ["B", "A", "B"], \
            f"moving {key} reused the held frames"


def test_receiver_frames_are_never_held_and_held_frames_are_read_only(frame_builds):
    sc = replace(get_preset("remote-default"), duration_ms=300.0)
    for _ in range(3):
        netsim.remote_capture(sc)
    assert frame_builds.stations() == ["A", "B", "B", "B"]
    key, arrays = rig._held_signal
    assert key[0] == rig._signal_key(scenario_mod.scenario_to_flat(sc))
    assert len(arrays) == 2 and not any(a.flags.writeable for a in arrays)
    # 64 bytes per frame: four luminances and four start gaps
    assert all(a.dtype == np.float64 and a.shape[1] == codec.DIGIT_COUNT
               for a in arrays)
    # a local capture takes the slot over, and the next remote one builds
    rig.run_capture(replace(get_preset("vive-baseline"), duration_ms=300.0))
    del frame_builds[:]
    netsim.remote_capture(sc)
    assert frame_builds.stations() == ["A", "B"]
