"""Write remote trace pairs for the estimate workload.

Usage: gen_pairs.py PRESET DURATION_MS SEED:OUT_DIR [SEED:OUT_DIR ...]

Runs `vrlatsim simulate` once per seed, which writes trace_A.csv,
trace_B.csv and report.txt into OUT_DIR.  Expects vrlatsim on PYTHONPATH.
"""
import contextlib
import io
import sys

from vrlatsim import cli


def main(argv) -> int:
    preset, duration_ms, *jobs = argv
    for job in jobs:
        seed, out = job.split(":", 1)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["simulate", "--config", preset, "--duration-ms",
                             duration_ms, "--seed", seed, "--out", out])
        if code != 0:
            print(f"simulate seed {seed} exited {code}: {err.getvalue()}",
                  file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
