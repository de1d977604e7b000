"""The golden bytes at each of numpy's CPU dispatch levels.

numpy picks the kernels of `np.exp` and `np.sin` by CPU at run time, and
their last bits may differ from one level to the next.  The photosensor
calls `np.exp` on every sample, so each test here reruns
`tests/test_golden.py` and `tests/test_rng_stream.py` in a child process
with NPY_DISABLE_CPU_FEATURES switching the higher levels off.  A level
whose top feature this CPU or numpy build lacks is skipped; the test ids
name the levels, so `pytest -v` shows which ran.
"""
import os
import pathlib
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import vrlatsim

TESTS = pathlib.Path(__file__).resolve().parent
# level -> the features it switches off, its top feature last
LEVELS = {
    "all-features": (),
    "no-x86-v4": ("AVX512_SPR", "AVX512_ICL", "X86_V4"),
    "x86-v2": ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"),
}
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
