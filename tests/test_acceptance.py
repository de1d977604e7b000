"""Acceptance suite: one verdict line per guaranteed behavior.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL` before asserting, so
the verdict survives in the captured output either way.

Check 2b bounds the codec's misclassification rate by the Bayes floor of
the noise channel it is tested on.  Digits are independent and uniform
over eight levels and the luminance noise is i.i.d. Gaussian, so the
nearest-level rule is already the minimum-error decoder and no decoder
of four single readings does better than the floor P*(sigma).  At sigma
1/42 the level boundaries sit exactly 3 sigma from each level center and
P* is about 0.94%, so the check requires the decoder to reach that floor
within four binomial standard errors.  The 0.1% budget is required at
the largest photosensor noise any preset runs with, where it holds.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from vrlatsim import cli, clock as clock_mod, codec, estimator, rig
from vrlatsim import scenario as scenario_mod
from vrlatsim.audio import AudioPathConfig, measure_mouth_to_ear
from vrlatsim.clock import SimClock
from vrlatsim.estimator import DecodedTrace


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- 1: known added frame delays are recovered ------------------------------

def test_1_frame_delay_queue_recovery():
    t0 = time.perf_counter()
    base = replace(scenario_mod.get_preset("vive-baseline"), duration_ms=2500.0)
    configured_ms = (base.pipeline.tracking_delay_ms
                     + base.pipeline.render_compute_ms)
    frame_ms = base.pipeline.frame_ms

    means = {}
    for queue_len in (0, 1, 5, 10):
        pipeline = replace(base.pipeline, frame_delay_queue_len=queue_len)
        values = []
        for run in range(10):
            sc = replace(base, pipeline=pipeline, seed=100 + run)
            result = cli.simulate_scenario(sc, max_lag_ms=150)
            values.append(result.report.motion_to_photon_ms)
        means[queue_len] = float(np.mean(values))

    elapsed = time.perf_counter() - t0
    errors = {q: means[q] - (configured_ms + q * frame_ms) for q in means}
    deltas = {q: means[q] - means[0] - q * frame_ms for q in means}
    ok = (all(abs(e) <= 3.0 for e in errors.values())
          and all(abs(d) <= 3.0 for d in deltas.values())
          and elapsed < 10.0)
    _verdict(
        1, "frame-delay-recovery", ok,
        f"means={ {q: round(m, 2) for q, m in means.items()} }, "
        f"max error vs configured {max(abs(e) for e in errors.values()):.2f} ms, "
        f"max error vs measured baseline {max(abs(d) for d in deltas.values()):.2f} ms, "
        f"{elapsed:.1f}s",
    )


# -- 2: codec round trip and the noise budget -------------------------------

def test_2a_codec_exhaustive_round_trip():
    t0 = time.perf_counter()
    codes = np.arange(codec.CODE_COUNT)
    digits = codec.encode(codes)
    exact_digits = bool(np.array_equal(codec.decode(digits), codes))
    recovered = codec.decode(codec.classify_luminance(
        codec.digits_to_luminance(digits)
    ))
    exact_light = bool(np.array_equal(recovered, codes))
    elapsed = time.perf_counter() - t0
    _verdict(2, "codec-round-trip (a)",
             exact_digits and exact_light and elapsed < 5.0,
             f"{codec.CODE_COUNT} codes, {elapsed:.2f}s")


def _gaussian_floor(sigma):
    """Least achievable code misclassification rate at luminance noise sigma.

    An interior level is misread when the noise crosses either boundary,
    half a level step away; the two end levels have one neighbour each
    (clamping to [0, 1] changes no decision).  A code is wrong when any
    of its four independent digits is.
    """
    z = codec.LEVEL_STEP / 2.0 / sigma
    tail = 0.5 * math.erfc(z / math.sqrt(2.0))
    interior = codec.DIGIT_BASE - 2
    digit_error = (interior * 2.0 * tail + 2.0 * tail) / codec.DIGIT_BASE
    return 1.0 - (1.0 - digit_error) ** codec.DIGIT_COUNT


def _largest_sigma_within(budget):
    # the floor rises monotonically with sigma; bisect for where it meets
    # the budget
    lo, hi = 0.0, codec.LEVEL_STEP
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _gaussian_floor(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def _binomial_se(p, trials):
    return math.sqrt(p * (1.0 - p) / trials)


def _noisy_code_error_rate(sigma, trials, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, codec.CODE_COUNT, size=trials)
    lum = codec.digits_to_luminance(codec.encode(codes))
    noisy = lum + rng.normal(0.0, sigma, size=lum.shape)
    decoded = codec.decode(codec.classify_luminance(noisy))
    return float(np.mean(decoded != codes))


def test_2b_codec_noise_misclassification_budget():
    t0 = time.perf_counter()
    trials = 100_000
    seed = 20_240_817
    budget = 1e-3

    # at sigma = 1/42 the level boundaries sit exactly 3 sigma from each
    # center; the floor there is far above the budget, so the decoder is
    # held to the floor itself
    sigma = 1.0 / 42.0
    rate = _noisy_code_error_rate(sigma, trials, seed)
    floor = _gaussian_floor(sigma)
    bound = floor + 4.0 * _binomial_se(floor, trials)

    # the budget is required at the noise the rig actually runs with
    rig_sigma = max(scenario_mod.get_preset(n).sensors.photo_noise_sigma
                    for n in scenario_mod.preset_names())
    rig_floor = _gaussian_floor(rig_sigma)
    rig_rate = _noisy_code_error_rate(rig_sigma, trials, seed)
    elapsed = time.perf_counter() - t0

    ok = (rate <= bound and rig_floor <= budget and rig_rate < budget
          and elapsed < 5.0)
    _verdict(
        2, "codec-noise-budget (b)", ok,
        f"sigma 1/42: measured {rate:.4f} over {trials} trials vs floor "
        f"P* {floor:.6f}, bound <= {bound:.5f}; preset sigma {rig_sigma}: "
        f"measured {rig_rate:.4f} vs budget < {budget}, floor P* "
        f"{rig_floor:.1e}; budget holds for sigma <= "
        f"{_largest_sigma_within(budget):.5f}, {elapsed:.2f}s",
    )


def test_2b_measured_rate_matches_the_gaussian_floor():
    # companion check: an independent draw lands within four standard
    # errors of the floor on either side; a rate well below it would mean
    # the noise model, not the decoder, had changed
    trials = 100_000
    sigma = 1.0 / 42.0
    rate = _noisy_code_error_rate(sigma, trials, 77)
    floor = _gaussian_floor(sigma)
    assert abs(rate - floor) <= 4.0 * _binomial_se(floor, trials)


# -- 3: lag recovery against a naive per-lag reference ----------------------

def _random_walk_codes(rng, n):
    steps = rng.integers(-3, 4, size=n)
    return np.clip(2000 + np.cumsum(steps), 0, codec.CODE_MAX)


def _delay_codes(values, lag):
    if lag == 0:
        return values.copy()
    out = np.empty_like(values)
    out[:lag] = values[0]
    out[lag:] = values[:-lag]
    return out


def _naive_coefficients(ref, obs, max_lag):
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        a = ref[:ref.shape[0] - lag] if lag else ref
        out[lag] = np.corrcoef(a, obs[lag:])[0, 1]
    return out


def test_3_lag_recovery_against_naive_reference():
    n = 5600
    max_lag = 500
    exact = 0
    worst_gap = 0.0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        walk = _random_walk_codes(rng, n)
        walk = np.rint(walk + rng.normal(0.0, 2.0, size=n)).astype(np.int64)
        lag_true = int(rng.integers(0, max_lag + 1))
        ref = DecodedTrace(values=walk, start_utc_us=0)
        obs = DecodedTrace(values=_delay_codes(walk, lag_true),
                           start_utc_us=0)
        corr = estimator.cross_correlate(ref, obs, max_lag)
        if corr.best_lag_ms == lag_true:
            exact += 1
        if trial < 10:
            naive = _naive_coefficients(ref.values, obs.values, max_lag)
            worst_gap = max(worst_gap,
                            float(np.max(np.abs(corr.coefficients - naive))))
    _verdict(3, "lag-recovery-oracle",
             exact == 100 and worst_gap <= 1e-12,
             f"{exact}/100 exact, reference gap {worst_gap:.2e}")


# -- 4: drift formula and synchronized start spread -------------------------

def test_4_clock_drift_and_sync_spread():
    fast = clock_mod.local_now(SimClock(drift_ppm=100.0), 5_000_000.0) - 5_000_000.0
    slow = clock_mod.local_now(SimClock(drift_ppm=-100.0), 5_000_000.0) - 5_000_000.0
    formula_ok = fast == 500.0 and slow == -500.0

    trials = 10_000
    sync_second = 50_000
    diffs = np.empty(trials)
    for trial in range(trials):
        starts = []
        for station in (0, 1):
            edge = clock_mod.timepulse_edge_us((0xACCE, trial, station), sync_second)
            starts.append(clock_mod.synced_start_us(SimClock(), edge, sync_second,
                                                    sync_second + 2))
        diffs[trial] = starts[0] - starts[1]
    rms = float(np.sqrt(np.mean(diffs ** 2)))
    expected = 30.0 * np.sqrt(2.0)
    rms_ok = expected * 0.85 <= rms <= expected * 1.15
    _verdict(4, "clock-drift-and-sync", formula_ok and rms_ok,
             f"drift at 5s = +/-500us exact, start RMS {rms:.1f}us "
             f"vs {expected:.1f}us +/-15%")


# -- 5: audio interval counting ----------------------------------------------

def test_5_audio_interval_counting_never_early():
    results = {}
    ok = True
    for delay_ms in (0.0, 50.0, 100.0, 168.3):
        cfg = AudioPathConfig(path_delay_ms=delay_ms)
        measured = measure_mouth_to_ear(cfg)
        results[delay_ms] = measured
        if measured < delay_ms or measured - delay_ms > 1.0:
            ok = False
    ok = ok and results[0.0] <= 1.0
    _verdict(5, "audio-interval-counting", ok,
             f"measured {results}")


# -- 6: remote estimate matches the analytic composition --------------------

def test_6_remote_latency_composition():
    base = replace(scenario_mod.get_preset("remote-default"), duration_ms=3000.0)
    receiver = scenario_mod.receiver_pipeline(base)
    receiver_local = (receiver.tracking_delay_ms + receiver.render_compute_ms
                      + 0.5 * receiver.frame_ms + 0.5
                      - receiver.extrapolation_ms)
    analytic = (receiver_local
                + 0.5 * 1000.0 / base.net.send_rate_hz
                + base.net.one_way_delay_ms)

    estimates = []
    for seed in range(200):
        sc = replace(base, seed=seed)
        result = cli.simulate_scenario(sc, max_lag_ms=80)
        estimates.append(result.report.remote_latency_ms)
    estimates = np.asarray(estimates, dtype=float)
    mean = float(estimates.mean())
    floor_ok = bool(np.all(estimates >= receiver_local))
    _verdict(6, "remote-composition",
             abs(mean - analytic) <= 3.0 and floor_ok,
             f"mean {mean:.2f} ms vs analytic {analytic:.2f} ms, "
             f"min {estimates.min():.0f} ms vs receiver-local "
             f"{receiver_local:.2f} ms")


# -- 7: extrapolation overshoot at motion turning points --------------------

def _overshoot_count(base, extrapolation_ms):
    pipeline = replace(base.pipeline, extrapolation_ms=extrapolation_ms)
    hits = 0
    for seed in range(10):
        sc = replace(base, pipeline=pipeline, seed=seed)
        capture = rig.run_capture(sc)
        pot = estimator.decode_pot_trace(capture).values
        display = estimator.decode_display_trace(capture).values
        if display.max() > pot.max() and display.min() < pot.min():
            hits += 1
    return hits


def test_7_extrapolation_overshoot():
    base = scenario_mod.get_preset("vive-baseline")
    base = replace(
        base,
        duration_ms=2500.0,
        # keep pot noise small so the reference extrema stay near the true
        # turning points while remaining nonzero
        sensors=replace(base.sensors, pot_noise_sigma=0.0002,
                        photo_noise_sigma=0.005),
    )
    with_prediction = _overshoot_count(base, 35.0)
    without = _overshoot_count(base, 0.0)
    _verdict(7, "extrapolation-overshoot",
             with_prediction >= 9 and without == 0,
             f"{with_prediction}/10 with prediction, {without}/10 without")


# -- 8: scenario coverage ----------------------------------------------------

def test_8_preset_scenario_coverage():
    names = set(scenario_mod.preset_names())
    required = {
        "vive-baseline", "zero-delay",
        "frame-delay-1", "frame-delay-5", "frame-delay-10",
        "remote-default", "remote-asymmetric",
        "audio-local", "audio-remote",
    }
    all_valid = all(scenario_mod.validate(scenario_mod.get_preset(n)) == []
                    for n in names)
    queues = {n: scenario_mod.get_preset(f"frame-delay-{n}")
              .pipeline.frame_delay_queue_len for n in (1, 5, 10)}
    families = (
        scenario_mod.get_preset("remote-default").net is not None
        and scenario_mod.get_preset("remote-asymmetric").pipeline_b is not None
        and scenario_mod.get_preset("audio-local").audio is not None
        and scenario_mod.get_preset("audio-remote").audio is not None
    )
    _verdict(8, "preset-coverage",
             required <= names and all_valid and families
             and queues == {1: 1, 5: 5, 10: 10},
             f"{len(names)} presets, all valid")
