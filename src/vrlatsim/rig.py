"""Single measurement-station simulation.

The simulated station reproduces the physical signal chain end to end:

  platform angle -> potentiometer -> 1 kHz ADC          (reference channel)
  platform angle -> render pipeline -> strobed display
                 -> photosensors -> 1 kHz ADC            (display channel)

The render pipeline samples the tracked angle a configurable time before
each frame's photons appear (tracking delay plus render compute), can
linearly extrapolate the motion, and can hold frames in a FIFO queue.
The display lights the four code fields only for the persistence window
at the start of each refresh interval and is black otherwise.  Each
photosensor is a first-order low-pass whose 10-90% rise time is
configurable.  The light it sees is piecewise constant, so its output
is evaluated in closed form at each sample instant: no integration grid.

The capture loop runs off the station's local clock, so oscillator drift
skews the true spacing of the 1 ms samples exactly as real hardware
would.

A capture is two steps, local or remote: `station_signal` builds both
channels without noise, and the noise step `simulate_station` draws the
pot noise and then the photo noise from the station's generator, adds
them and clips to [0, 1].  The seed enters a local capture only through
the noise step, so `run_capture` keeps the last local scenario's
noiseless signal and a further seed only draws, adds and clips.  A
remote station's sample instants follow the seed through its timepulse,
but the sender's display shows the same frames whatever the seed, so the
same slot holds the last remote sender's frame train instead, 64 bytes
per frame (at 90 Hz, about 18 kB at 3 s and 21 MB at the one-hour cap).
The receiver's frames follow each seed's network phase and are never
held.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .clock import SimClock
from .errors import SimulationError

# 10-90% rise of a first-order lag spans ln(9) time constants
RISE_LN9 = math.log(9.0)
ADC_SAMPLE_HZ = 1000.0  # both channels are read once per 1 ms interval


@dataclass(frozen=True)
class MotionProfile:
    """Sinusoidal platform motion around a center angle."""

    amplitude_deg: float = 40.0
    period_ms: float = 1000.0
    center_deg: float = 180.0


@dataclass(frozen=True)
class PipelineConfig:
    tracking_delay_ms: float = 0.0
    frame_delay_queue_len: int = 0
    refresh_hz: float = 90.0
    display_persistence_ms: float = 1.5
    extrapolation_ms: float = 0.0
    render_compute_ms: float = 0.0

    @property
    def frame_ms(self) -> float:
        return 1000.0 / self.refresh_hz


@dataclass(frozen=True)
class SensorConfig:
    rise_time_us: float = 260.0
    pot_noise_sigma: float = 0.0
    photo_noise_sigma: float = 0.0


@dataclass(frozen=True)
class RawCapture:
    """One station's capture of both channels, sampled together."""

    station_id: str
    start_utc_us: int
    pot: np.ndarray           # shape (n,), normalized potentiometer readings
    photo: np.ndarray         # shape (n, 4), one column per code field

    def __post_init__(self):
        if self.pot.shape[0] != self.photo.shape[0]:
            raise ValueError("pot and photo channels must have equal length")
        if self.photo.ndim != 2 or self.photo.shape[1] != codec.DIGIT_COUNT:
            raise ValueError(f"photo must have {codec.DIGIT_COUNT} columns")

    def __len__(self):
        return self.pot.shape[0]


class SteppedAngleHistory:
    """Zero-order hold over timestamped angle samples.

    Queries before the first sample return the first value: a network
    receiver's pipeline warm-up reaches back before the first delivery.
    """

    def __init__(self, times_us, angles_deg):
        self._times = np.asarray(times_us, dtype=float)
        self._angles = np.asarray(angles_deg, dtype=float)
        if self._times.size == 0:
            raise SimulationError("angle history needs at least one sample")
        if (self._times[1:] < self._times[:-1]).any():
            raise SimulationError("angle history timestamps must be sorted")

    def __call__(self, t_us):
        t = np.asarray(t_us, dtype=float)
        idx = self._times.searchsorted(t, side="right") - 1
        return self._angles[np.maximum(idx, 0)]


def gaussian_noise(rng, sigma: float, shape) -> np.ndarray:
    """Gaussian noise of deviation `sigma`: `rng.normal(0.0, sigma, shape)`'s
    bits, without its per-element loc/scale path.

    numpy's `normal` returns 0.0 + sigma * z for the z that
    `standard_normal` draws; this scales the standard fill in place.
    The two differ only where sigma * z is -0.0, which `normal` turns
    into 0.0, and every caller adds the noise to a signal or clips it
    at 0, where the sign of a zero changes nothing.
    """
    noise = rng.standard_normal(shape)
    noise *= sigma
    return noise


def platform_angle(profile: MotionProfile, t_ms):
    """Platform angle in degrees at time t_ms (defined for all t)."""
    t = np.asarray(t_ms, dtype=float)
    return profile.center_deg + profile.amplitude_deg * np.sin(
        2.0 * np.pi * t / profile.period_ms
    )


def sensor_reading(signal: np.ndarray, sigma: float, rng) -> np.ndarray:
    """A sensor's noiseless signal plus Gaussian noise of deviation sigma,
    clipped to [0, 1], as a new array; draws nothing when sigma is 0.

    The noise is the left operand of the sum, which changes no bit (IEEE
    addition commutes), so the fresh noise array can take the sum and the
    read-only signal that `run_capture` holds is only read.
    """
    if sigma > 0:
        out = gaussian_noise(rng, sigma, signal.shape)
        out += signal
        return np.clip(out, 0.0, 1.0, out=out)
    return np.clip(signal, 0.0, 1.0)


def run_pipeline(pipeline: PipelineConfig, history, angle_range_deg,
                 frame_starts_us):
    """Displayed code for each frame of a schedule.

    For a frame whose photons appear at frame start F, the angle is taken
    from the history at F - render_compute - tracking_delay.  With
    extrapolation enabled, the last two per-frame samples define a slope
    that predicts the angle extrapolation_ms ahead.  A frame-delay queue
    of length q shows each code q frames late; the queue is pre-filled
    with the first code, so callers should extend the schedule q frames
    into the past if that warm-up matters.
    """
    frames = np.asarray(frame_starts_us, dtype=float)
    sample_us = frames - (pipeline.render_compute_ms
                          + pipeline.tracking_delay_ms) * 1000.0
    ang = np.asarray(history(sample_us), dtype=float)
    if pipeline.extrapolation_ms > 0.0:
        frame_us = pipeline.frame_ms * 1000.0
        prev = np.asarray(history(sample_us - frame_us), dtype=float)
        slope_per_ms = (ang - prev) / pipeline.frame_ms
        ang = ang + slope_per_ms * pipeline.extrapolation_ms
    fresh = codec.quantize_angle_clamped(ang, angle_range_deg)
    q = int(pipeline.frame_delay_queue_len)
    if q == 0:
        return fresh
    displayed = np.empty_like(fresh)
    displayed[:q] = fresh[0]
    displayed[q:] = fresh[:-q]
    return displayed


def frame_start_states(levels, a: float, b: float):
    """States s_k of s_0 = 0, s_{k+1} = a * s_k + b * L_k, per column.

    A doubling scan: after the pass with stride d, each s_k holds the
    terms b * a**j * L_{k-1-j} for j < 2d.  It stops once a**d underflows
    to 0 (three passes at 90 Hz and a 260 us rise) or d covers every
    frame, so there are at most log2(frames) passes and no loop over
    frames.
    """
    states = np.zeros_like(levels)
    states[1:] = b * levels[:-1]
    frames = levels.shape[0]
    d = 1
    while d < frames:
        weight = a ** d
        if weight == 0.0:
            break
        states[d:] += weight * states[:-d]
        d *= 2
    return states


def start_gaps(frame_lum, pipeline: PipelineConfig, sensors: SensorConfig):
    """How far the photosensor starts each frame from the frame's levels,
    s_k - L_k, shape (frames, 4), or None for an instant sensor (a rise
    time of 0), which keeps none.

    A frame is lit for the persistence p and dark for the rest of the
    frame period T; the sensor is a first-order lag with tau =
    rise_time / ln(9), dark before the first frame.  Its state s_k at
    each frame start follows s_{k+1} = a * s_k + b * L_k with a =
    exp(-T/tau) and b = exp(-(T - p)/tau) * (1 - exp(-p/tau)), for all
    frames at once (`frame_start_states`).
    """
    tau = sensors.rise_time_us / RISE_LN9
    if tau == 0.0:
        return None
    frame_us = pipeline.frame_ms * 1000.0
    persist_us = pipeline.display_persistence_ms * 1000.0
    a = math.exp(-frame_us / tau)
    b = math.exp(-(frame_us - persist_us) / tau) * -math.expm1(-persist_us / tau)
    levels = np.asarray(frame_lum, dtype=float)
    gaps = frame_start_states(levels, a, b)
    gaps -= levels
    return gaps


def photosensor_read(sample_us, frame_lum, first_frame_us: float,
                     pipeline: PipelineConfig, sensors: SensorConfig, gaps):
    """Noise-free photosensor output at each sample instant, shape (n, 4).

    frame_lum holds the four levels L_k of each frame.  Frame k starts at
    F_k = first_frame_us + k * T, T the frame period, is lit during
    [F_k, F_k + p), p the persistence, and black until F_{k+1}.  The
    sensor starts frame k in state s_k, and gaps holds s_k - L_k of every
    frame, as `start_gaps` computes them (None for an instant sensor).  A
    sample at offset o into frame k reads L_k + (s_k - L_k) * exp(-o/tau)
    while lit and (L_k + (s_k - L_k) * exp(-p/tau)) * exp(-(o - p)/tau)
    once dark.  Both cases are one expression with clamped exponents,
    evaluated in place on the gathered gaps, so the only (n, 4) arrays
    are the gathered levels and the result.  The work scales with the
    samples alone.
    """
    t = np.asarray(sample_us, dtype=float)
    levels = np.asarray(frame_lum, dtype=float)
    frame_us = pipeline.frame_ms * 1000.0
    persist_us = pipeline.display_persistence_ms * 1000.0
    k = np.floor((t - first_frame_us) / frame_us).astype(np.int64)
    if k.min() < 0 or k.max() >= levels.shape[0]:
        raise SimulationError("frame schedule does not cover every sample")
    offset = (t - (first_frame_us + k * frame_us))[:, None]
    # a sample on a frame boundary can round to a tiny negative offset,
    # whose exp(-offset/tau) overflows at a tiny rise time
    np.maximum(offset, 0.0, out=offset)
    # take, not levels[k]: numpy's fancy-index gather of 2-D rows is
    # several times slower
    level = levels.take(k, axis=0)
    tau = sensors.rise_time_us / RISE_LN9
    if tau == 0.0:
        return np.where(offset < persist_us, level, 0.0)

    # clamping both exponents keeps each branch finite on the other's
    # rows.  Each is computed in its own buffer, the dark one in offset's;
    # x / -tau has the bits of -x / tau
    lit_part = np.minimum(offset, persist_us)
    lit_part /= -tau
    np.exp(lit_part, out=lit_part)
    dark_part = offset
    dark_part -= persist_us
    np.maximum(dark_part, 0.0, out=dark_part)
    dark_part /= -tau
    np.exp(dark_part, out=dark_part)
    # (level + (s_k - level) * lit_part) * dark_part, evaluated in place
    # on the gathered gaps: the same operations in the same order
    out = gaps.take(k, axis=0)
    out *= lit_part
    out += level
    out *= dark_part
    return out


def sample_count(duration_ms: float) -> int:
    """Number of ADC samples in a capture of duration_ms."""
    return int(round(duration_ms * ADC_SAMPLE_HZ / 1000.0))


# (key, read-only arrays) or None: the last local scenario's (pot, photo)
# from `run_capture`, or the last remote sender's (frame_lum, gaps)
# from `station_signal`; each replaces the other
_held_signal = None


def _hold(key, build):
    """The held arrays under key; on a miss, build() them, make them
    read-only and hold them in place of the old entry."""
    global _held_signal
    held = _held_signal
    if held is not None and held[0] == key:
        return held[1]
    # drop the old entry first, so a cold build holds only one
    _held_signal = None
    arrays = build()
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    _held_signal = (key, arrays)
    return arrays


def _signal_key(flat: dict) -> str:
    """Every config value of a scenario's flat view but the seed, spelled
    out: two scenarios share a held signal only when all of them print
    the same."""
    return repr({key: value for key, value in flat.items() if key != "seed"})


def station_signal(*, platform_fn, display_source, pipeline: PipelineConfig,
                   sensors: SensorConfig, angle_range_deg: float,
                   clock: SimClock, true_start_us: float, duration_ms: float,
                   hold_key=None):
    """Both channels of one station before noise and clipping.

    Returns (pot, photo): pot, shape (n,), is the platform angle over the
    angle range at each sample; photo, shape (n, 4), is the photosensors'
    noise-free response to the strobed display.  Neither depends on the
    seed.  platform_fn(t_us) is the physical angle driving the
    potentiometer; display_source is the angle history feeding the render
    pipeline (the same function for a local loop, a network stream for a
    remote one).  Sample instants follow the station's local clock, so
    drift stretches or compresses the true 1 ms grid.

    The frame train is the field luminances of the schedule's frames
    k_first .. k_last and how far the sensor starts each one from them
    (`start_gaps`).  With `hold_key`, the scenario's `_signal_key`, it is
    held under (hold_key, k_first, k_last), and a later call under the
    same key computes only the samples.
    """
    n = sample_count(duration_ms)
    if n <= 0:
        raise SimulationError("duration must cover at least one sample")
    rate = 1.0 + clock.drift_ppm * 1e-6
    local_step_us = 1e6 / ADC_SAMPLE_HZ
    sample_true = true_start_us + np.arange(n) * (local_step_us / rate)

    # reference channel: potentiometer riding the physical platform
    pot = np.asarray(platform_fn(sample_true), dtype=float) / angle_range_deg

    # frame schedule, extended backwards for warm-up and the delay queue
    frame_us = pipeline.frame_ms * 1000.0
    warm_start_us = sample_true[0] - max(3.0 * frame_us, 30_000.0)
    k_first = (int(math.floor(warm_start_us / frame_us))
               - (pipeline.frame_delay_queue_len + 2))
    k_last = int(math.ceil(sample_true[-1] / frame_us)) + 1

    def frame_train():
        frame_starts = np.arange(k_first, k_last + 1, dtype=float) * frame_us
        displayed = run_pipeline(pipeline, display_source, angle_range_deg,
                                 frame_starts)
        frame_lum = codec.digits_to_luminance(codec.encode(displayed))
        return frame_lum, start_gaps(frame_lum, pipeline, sensors)

    frame_lum, gaps = (frame_train() if hold_key is None
                       else _hold((hold_key, k_first, k_last), frame_train))
    # frame_starts[0] as np.arange makes it: float(k_first) * frame_us
    first_frame_us = k_first * frame_us
    photo = photosensor_read(sample_true, frame_lum, first_frame_us,
                             pipeline, sensors, gaps)
    return pot, photo


def simulate_station(*, station_id: str, start_utc_us: int, signal,
                     sensors: SensorConfig, rng) -> RawCapture:
    """The noise step: a station's capture is `station_signal`'s (pot,
    photo) plus the pot noise and then the photo noise drawn from rng,
    clipped to [0, 1], in new arrays."""
    pot = sensor_reading(signal[0], sensors.pot_noise_sigma, rng)
    photo = sensor_reading(signal[1], sensors.photo_noise_sigma, rng)
    return RawCapture(
        station_id=station_id,
        start_utc_us=int(start_utc_us),
        pot=pot,
        photo=photo,
    )


def run_capture(scenario) -> RawCapture:
    """Self-contained local measurement: station A observes its own
    platform on the potentiometer and its own display loop on the
    photosensors.

    The noiseless signal of the last scenario captured is held, so a
    capture that differs from it only in the seed skips straight to the
    noise step.  The held arrays are read-only and every capture returns
    new ones.
    """
    from .scenario import raise_if_invalid  # deferred, avoids an import cycle

    flat = raise_if_invalid(scenario)
    rng = np.random.default_rng(np.random.SeedSequence((scenario.seed, 0)))

    def platform_fn(t_us):
        return platform_angle(scenario.motion, np.asarray(t_us, dtype=float) / 1000.0)

    signal = _hold(_signal_key(flat), lambda: station_signal(
        platform_fn=platform_fn, display_source=platform_fn,
        pipeline=scenario.pipeline, sensors=scenario.sensors,
        angle_range_deg=scenario.angle_range_deg, clock=scenario.clock_a,
        true_start_us=0.0, duration_ms=scenario.duration_ms))
    return simulate_station(
        station_id="A",
        start_utc_us=scenario.start_utc_second * 1_000_000,
        signal=signal,
        sensors=scenario.sensors,
        rng=rng,
    )
