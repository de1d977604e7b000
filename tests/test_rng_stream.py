"""Canary for the random streams the golden digests depend on.

Trace and report bytes depend on `Generator.standard_normal` (sensor,
timepulse, network and audio noise, scaled by sigma as
`Generator.normal` would) and `Generator.uniform` (the send phase of a
remote run).  numpy keeps each bit generator's raw stream fixed across
versions but may change how the distribution methods turn it into
values.  If a numpy upgrade does, every digest in `test_golden.py`
fails at once; these digests fail with it and say that numpy, not
vrlatsim, moved the bytes.  Each stream is drawn through one of the
seed paths the package uses.  Only when the golden digests are
regenerated for a new numpy, print new digests here with

    python tests/test_rng_stream.py
"""
import hashlib

import numpy as np
import pytest

SEED = 20_180_917
DRAWS = 4096


def _sha256(values, dtype):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


def _capture_normal():
    # rig.run_capture: a local station's pot and photo noise
    rng = np.random.default_rng(np.random.SeedSequence((SEED, 0)))
    return _sha256(rng.standard_normal(DRAWS), "<f8")


def _spawned_normal():
    # netsim.remote_capture: both stations' noise and the network jitter
    children = np.random.SeedSequence(SEED).spawn(3)
    draws = [np.random.default_rng(s).standard_normal(DRAWS // 4)
             for s in children]
    return _sha256(np.concatenate(draws), "<f8")


def _spawned_uniform():
    # netsim.sample_and_send: the send phase, from the third child
    rng = np.random.default_rng(np.random.SeedSequence(SEED).spawn(3)[2])
    return _sha256(rng.uniform(0.0, 1.0, size=DRAWS), "<f8")


def _timepulse_normal():
    # netsim._synced_start_us: the timepulse jitter of one station's clock
    seed = np.random.SeedSequence((SEED, 1, 0xC10C))
    return _sha256(np.random.default_rng(seed).standard_normal(DRAWS), "<f8")


def _audio_normal():
    # audio.measure_mouth_to_ear: the detector noise, under its own tag.
    # SeedSequence pads its entropy with zero words, so a plain seed
    # would draw the capture's stream of SeedSequence((seed, 0))
    seed = np.random.SeedSequence((SEED, 0xA0D1))
    return _sha256(np.random.default_rng(seed).standard_normal(DRAWS), "<f8")


def _raw_stream():
    # the bit generator itself, under every distribution method
    bits = np.random.PCG64(np.random.SeedSequence((SEED, 0)))
    return _sha256(bits.random_raw(DRAWS), "<u8")


STREAMS = {
    "normal via SeedSequence((seed, 0))": (
        _capture_normal,
        "cfb93dce296a0a6d7ee43e49984eb18919875117ddc41f847d1f26096563fe01"),
    "normal via SeedSequence(seed).spawn(3)": (
        _spawned_normal,
        "6ed81f822948e9d1c05226ebb621a7b9e20d3a2f75aca1e77bfccfdaaa922181"),
    "uniform via SeedSequence(seed).spawn(3)": (
        _spawned_uniform,
        "403dfea7fa593a8b64b5d6952ccd05bf0352827ba3758198eb18583cd947812f"),
    "normal via SeedSequence((seed, clock seed, 0xC10C))": (
        _timepulse_normal,
        "cbd13cfc44b3dc1373dddb43a95862dde5be1deff72eaf82eb61be7d55dcde47"),
    "normal via SeedSequence((seed, 0xA0D1))": (
        _audio_normal,
        "2d177fe80228226d1fcda0d72aae60db999717daa7f4b74cea7553a1f6f1c312"),
    "PCG64.random_raw": (
        _raw_stream,
        "09fe140eb037b968ae7dc4ca68da157cb0ae09c2112d09c084bad3d01e2ce6d0"),
}


@pytest.mark.parametrize("name", STREAMS)
def test_random_stream_is_the_pinned_one(name):
    draw, want = STREAMS[name]
    assert draw() == want, (
        f"numpy {np.__version__} draws a different {name} stream than the "
        "one pinned here. The golden digests in tests/test_golden.py "
        "depend on these streams and fail for this reason, not because "
        "vrlatsim changed."
    )


@pytest.mark.parametrize("sigma", [1e-3, 0.01, 30.0, 2500.0])
def test_scaled_standard_normals_are_the_normal_stream(sigma):
    # the package draws normal(0, sigma) noise as standard_normal() * sigma,
    # which numpy's normal() computes as 0.0 + sigma * z from the same z
    draws = np.random.default_rng(np.random.SeedSequence((SEED, 0)))
    scaled = draws.standard_normal(DRAWS)
    scaled *= sigma
    normal = np.random.default_rng(np.random.SeedSequence((SEED, 0))).normal(
        0.0, sigma, DRAWS)
    assert scaled.tobytes() == normal.tobytes(), (
        f"numpy {np.__version__} no longer draws normal(0, {sigma}) as "
        f"standard_normal() * {sigma}. The sensor, network, timepulse and "
        "audio noise are drawn the second way, and the golden digests in "
        "tests/test_golden.py were made with the first."
    )


def test_every_seed_path_draws_its_own_stream():
    # two noise sources on one seed path would be one source, scaled
    digests = [draw() for draw, _ in STREAMS.values()]
    assert len(set(digests)) == len(digests), dict(zip(STREAMS, digests))


if __name__ == "__main__":
    for name, (draw, _) in STREAMS.items():
        print(f"{name}: {draw()}")
