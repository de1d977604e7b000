"""The golden bytes at each of numpy's CPU dispatch levels.

numpy picks the kernels of `np.exp` and `np.sin` by CPU at run time, and
their last bits may differ from one level to the next.  The photosensor
calls `np.exp` on every sample, so each test here reruns
`tests/test_golden.py` and `tests/test_rng_stream.py` in a child process
with NPY_DISABLE_CPU_FEATURES switching the higher levels off.  A level
whose top feature this CPU or numpy build lacks is skipped; the test ids
name the levels, so `pytest -v` shows which ran.

A value flips on another machine only when it lies within a few ulps of
the boundary where rounding to file precision goes up instead of down,
so a further test keeps every golden sample well away from one.
"""
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import vrlatsim
from test_golden import DURATION_MS, SEEDS
from vrlatsim import cli, netsim, rig, tracefile

TESTS = pathlib.Path(__file__).resolve().parent
# level -> the features it switches off, its top feature last
LEVELS = {
    "all-features": (),
    "no-x86-v4": ("AVX512_SPR", "AVX512_ICL", "X86_V4"),
    "x86-v2": ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"),
}
# the closest a golden sample may lie to its rounding boundary, in ulps of
# the sample; the closest one lay 12 404 ulps away when this was set
MARGIN_ULPS = 64
# the child checks that numpy took the level before it runs the tests
_CHILD = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
still_on = [f for f in sys.argv[1].split() if __cpu_features__[f]]
assert not still_on, f"NPY_DISABLE_CPU_FEATURES left {still_on} on"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


@pytest.mark.parametrize("level", LEVELS)
def test_the_golden_bytes_hold_at_the_dispatch_level(level):
    # only the features this CPU has and numpy dispatches to can be
    # switched off; a baseline feature cannot
    off = [f for f in LEVELS[level] if f in __cpu_dispatch__ and __cpu_features__.get(f)]
    if LEVELS[level] and LEVELS[level][-1] not in off:
        pytest.skip(f"this CPU or numpy build lacks {LEVELS[level][-1]}")
    paths = [str(pathlib.Path(vrlatsim.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off),
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, " ".join(off),
         str(TESTS / "test_golden.py"), str(TESTS / "test_rng_stream.py")],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-4000:]


def test_every_golden_sample_keeps_its_margin_from_a_rounding_boundary():
    # round(x, 6) rounds x * 1e6 to an integer, so x flips where the
    # product's fraction is one half; measured on the captures before
    # quantize_capture rounds them
    scale = 10.0 ** tracefile.VALUE_DECIMALS
    closest = []
    for preset in cli.scenario_mod.preset_names():
        for seed in SEEDS:
            sc = cli.load_scenario(preset, seed=seed, duration_ms=DURATION_MS)
            captures = (netsim.remote_capture(sc) if sc.net is not None
                        else [rig.run_capture(sc)])
            for capture in captures:
                for channel in ("pot", "photo"):
                    x = getattr(capture, channel)
                    y = x * scale
                    # a sample of 0 lies infinitely many ulps away
                    with np.errstate(over="ignore"):
                        ulps = np.abs(y - np.floor(y) - 0.5) / scale / np.spacing(x)
                    closest.append((float(ulps.min()), preset, seed,
                                    capture.station_id, channel))
    assert min(closest)[0] > MARGIN_ULPS, min(closest)
