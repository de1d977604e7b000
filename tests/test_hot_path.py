"""The per-run modules call numpy's compiled entry points directly.

Each helper named below is a Python function that checks and wraps its
arguments before it reaches the ndarray method, ufunc or slice doing the
work.  On the short arrays of one run that wrapping costs more than the
work, so these modules spell the compiled call instead, and this test
keeps a helper from creeping back one call at a time.
"""
import ast
import pathlib

import pytest

import vrlatsim

# cli.py runs capture_run and estimate_run once per run of a batch
PER_RUN_MODULES = ("estimator.py", "codec.py", "rig.py", "netsim.py",
                   "tracefile.py", "tracebody.py", "audio.py", "clock.py",
                   "cli.py")
# helper -> what the per-run code calls instead
SLOW_HELPERS = {
    "flatnonzero": "x.nonzero()[0]",
    "diff": "x[1:] - x[:-1]",
    "cumsum": "x.cumsum()",
    "repeat": "x.repeat()",
    "take": "x.take()",
    "searchsorted": "x.searchsorted()",
    "argmax": "x.argmax()",
    "round": "x.round()",
    "issubdtype": "dtype.kind",
    "ptp": "the change positions of the series",
    "mean": "x.sum() / n",
    "any": "x.any() or one min()/max() pair",
}


def _helper_calls(path):
    """(line, helper) of every call np.<helper>(...) in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and node.func.attr in SLOW_HELPERS):
            yield node.lineno, node.func.attr


def _normal_calls(path):
    """Line of every call x.normal(...) in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "normal"):
            yield node.lineno


@pytest.mark.parametrize("module", PER_RUN_MODULES)
def test_per_run_code_draws_noise_from_the_standard_normal_fill(module):
    # Generator.normal takes a per-element loc/scale path; scaling
    # standard_normal() gives the same bits faster (tests/test_rng_stream.py)
    path = pathlib.Path(vrlatsim.__file__).parent / module
    found = [f"{module}:{line}: .normal(...), use rig.gaussian_noise()"
             for line in sorted(_normal_calls(path))]
    assert not found, "\n".join(found)


@pytest.mark.parametrize("module", PER_RUN_MODULES)
def test_per_run_code_calls_no_python_level_numpy_helper(module):
    path = pathlib.Path(vrlatsim.__file__).parent / module
    found = [f"{module}:{line}: np.{name}(...), use {SLOW_HELPERS[name]}"
             for line, name in sorted(_helper_calls(path))]
    assert not found, "\n".join(found)


def test_the_scan_finds_a_helper_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import numpy as np\n\nx = np.diff(np.arange(3))\n"
                      "y = np.arange(3).cumsum()\n")
    assert list(_helper_calls(source)) == [(3, "diff")]


def test_the_scan_finds_a_normal_draw(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import numpy as np\n\nrng = np.random.default_rng(0)\n"
                      "x = rng.standard_normal(3)\ny = rng.normal(0.0, 1.0, 3)\n")
    assert list(_normal_calls(source)) == [5]
