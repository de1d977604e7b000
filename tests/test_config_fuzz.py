"""Every valid scenario does bounded work: a property test over the config keys.

Each example is a preset with one to three keys of the scenario key table
set to ints or floats of many magnitudes, both signs and zero.  The CLI
must answer every such config with an exit code (0, 1 or 3), never with a
traceback.  The examples run in one child process whose address space is
capped, so a config that asks for unbounded memory fails fast instead of
exhausting the machine.

Run directly (`python tests/test_config_fuzz.py DIR`) it checks the
property under the cap, writing its outputs below DIR.
"""
import contextlib
import io
import os
import resource
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vrlatsim
from vrlatsim import cli
from vrlatsim import scenario as scenario_mod

ADDRESS_SPACE_BYTES = 4 << 30
MAX_EXAMPLES = 300


def _signed(edges, ten, lowest, highest):
    """An edge of the number type, or a sign, a digit and a power of ten
    anywhere in the type's range (10.0 ** -324 underflows to zero)."""
    return st.one_of(
        st.sampled_from(edges).flatmap(lambda edge: st.sampled_from([edge, -edge])),
        st.builds(lambda sign, digit, power: sign * digit * ten ** power,
                  st.sampled_from([-1, 1]), st.integers(1, 9), st.integers(lowest, highest)))


# zero, one, the integer widths, the float64 extremes and powers of ten
# between them
_INTS = _signed([0, 1, 2**31, 2**53, 2**63, 2**64, 10**12, 10**18, 10**400], 10, 0, 400)
_FLOATS = _signed([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-13, 1e13, 1e300,
                   1.7976931348623157e308], 10.0, -324, 307)


@st.composite
def _configs(draw):
    flat = dict(scenario_mod.PRESETS[draw(st.sampled_from(scenario_mod.preset_names()))])
    keys = draw(st.lists(st.sampled_from(list(scenario_mod._KEYS)),
                         min_size=1, max_size=3, unique=True))
    for key in keys:
        hint = scenario_mod._KEYS[key][2]
        flat[key] = draw(_INTS if hint is int else _FLOATS)
    return flat


def check_every_config_exits_with_a_cli_code(workdir):
    path = os.path.join(workdir, "fuzz.cfg")

    @settings(derandomize=True, max_examples=MAX_EXAMPLES, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(flat=_configs())
    def check(flat):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(f"{key} = {value!r}\n" for key, value in flat.items()))
        for command in (["simulate"], ["batch", "--runs", "2"], ["export-plot"]):
            argv = [*command, "--config", path, "--duration-ms", "2000", "--out", workdir]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 3), (argv, flat, code)

    check()


def test_every_config_exits_with_a_cli_code(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(vrlatsim.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, os.path.abspath(__file__), str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr[-6000:]


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    check_every_config_exits_with_a_cli_code(sys.argv[1])
