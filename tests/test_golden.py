"""Golden digests: the report and trace bytes of every preset are pinned.

Each entry is the SHA-256 of `format_report` and of every station's
`format_trace` for one preset run at 2000 ms with the CLI's default lag
window, plus one `remote-default` batch summary (3 runs, 3000 ms).  The
trace and report digests must also hold after each trace is parsed back
and estimated again, as `estimate` does with the written files.  The
instrument promises the same bytes for the same scenario and seed, so a
change that moves any of them must regenerate this table in the same
commit and say why.  Regenerate it from the current code with

    PYTHONPATH=src python tests/test_golden.py

which prints `GOLDEN` and `BATCH_GOLDEN` ready to paste over the ones here.
"""
import hashlib

import pytest

from vrlatsim import cli, tracefile

DURATION_MS = 2000
SEEDS = (1, 2)

GOLDEN = {
    ("audio-local", 1): {
        "report": "2cdc723efa7b5db9da8a0a807d12a812b1e3902b5d17960fc381c53c55c96c55",
        "trace_A": "fd99df4246e84d48c47f198e60270cdac06d8966ec76b756e86b472bd375d4b7",
    },
    ("audio-local", 2): {
        "report": "694c917b84dcf9577eac0c97cc2a44f1d8351b9cfb871fb4a62faf09696cdbbe",
        "trace_A": "962b3f8e60844979469c5e8cc0b9204d7f2cb89f96e47117fd7810c8d5aff6e5",
    },
    ("audio-remote", 1): {
        "report": "114a62bf94f81b01cff0f203336a9d6d4f1d590ebfd7a6f315de36c402598b84",
        "trace_A": "fd99df4246e84d48c47f198e60270cdac06d8966ec76b756e86b472bd375d4b7",
    },
    ("audio-remote", 2): {
        "report": "1c5ae19bd06a97e588f6250224c30c09fd36d91d9d15a9fc0d8d82b82fa339c3",
        "trace_A": "962b3f8e60844979469c5e8cc0b9204d7f2cb89f96e47117fd7810c8d5aff6e5",
    },
    ("frame-delay-1", 1): {
        "report": "d0455beb8abd2844acedb6068adb69f9275f011e9f840d18d24eeeef24cb6d39",
        "trace_A": "171bd5d90a6016f3b5ba0a1a374a1c87a27a918d1e831e0eae60365404110c4f",
    },
    ("frame-delay-1", 2): {
        "report": "d11e1c87ff8d65134325a777613443ce2b7000dc4aaaa899ac10e43ddfcc5d1d",
        "trace_A": "78da738dc5ab115d9ac7d2ed06ef233c09f800b31a3eb6b3e5efe1d5d55b277d",
    },
    ("frame-delay-10", 1): {
        "report": "728e53af6ea8dfac0529ed251372229a482082ed4c9db37a19cb7b1559b99067",
        "trace_A": "9e7b0824baabf491ee6e064c576d89e6aa526a9d214589c083d99ffe16e219fa",
    },
    ("frame-delay-10", 2): {
        "report": "83d266f59bef2287ba06dd1484b0f25c46f9a4443cf764bc88e1b6df7e680a65",
        "trace_A": "089b9e9f2b8b5a1402934611bc785d7e1aff783649e3579e7d5c44f6a41dec61",
    },
    ("frame-delay-5", 1): {
        "report": "dfa68d061cc086165dc38b682cd41899c247ffe0ac66b47813bb24d3f4bf94e9",
        "trace_A": "c108d23bb79d4418c8a825de1acbb4f47e2b25d9e62eea9276004ed76fc2906a",
    },
    ("frame-delay-5", 2): {
        "report": "f5a61cc05d5c133e362530ecea220abb988161cbe909ea6d1c8946238103625a",
        "trace_A": "465c16e40bcb494d96115ff967a24d57cc8160a7be3fd75719208fea83df00ff",
    },
    ("remote-asymmetric", 1): {
        "report": "ef014fe3402466305508253424b028b6b145c9a696a245b1aaef700e16552cb1",
        "trace_A": "f141515c9ab0f81abfdea805091088b79ae0a2621032f14fa0e9ee4a3df1dd5c",
        "trace_B": "bb52e8896d95917478126428609634d4816e1e1b67a91c3f09d9f232f56d0720",
    },
    ("remote-asymmetric", 2): {
        "report": "111b5d3de018c7462c650c8734785f2b5d1babf254b98a41cbd76b1fcd4442f1",
        "trace_A": "33bac6adf24a14d048a469a0851b50f47b8f2fe79d9e6b6e840f3a193d758072",
        "trace_B": "d579e65df55f4252e853c5f7a4beacee2a8196ab39e5b8732a29086882e07e74",
    },
    ("remote-default", 1): {
        "report": "5d69f5ab26ef23b35e40ae9de543671fb5bc1f5e188cb3de357ee4c6acb46023",
        "trace_A": "f141515c9ab0f81abfdea805091088b79ae0a2621032f14fa0e9ee4a3df1dd5c",
        "trace_B": "9e0753fe1d7266d4ebcf27eb8e878327df813249ab67713725910f7797b56379",
    },
    ("remote-default", 2): {
        "report": "8a6a92648501e4b6252ecbc027a97717a4de79051785721337410fda66301b8e",
        "trace_A": "33bac6adf24a14d048a469a0851b50f47b8f2fe79d9e6b6e840f3a193d758072",
        "trace_B": "bf7b8cbf027d39b6a99d27fff55bd162f0aa7821f80761730856d320ad901ed1",
    },
    ("vive-baseline", 1): {
        "report": "c716ce568568c7ad2d40f904041b1c386a44a02936a441a31f708aba6c397087",
        "trace_A": "6b8839920a4a642f243e57520a7fd6aaa7acbfaccb79b34a96de301a1652aad8",
    },
    ("vive-baseline", 2): {
        "report": "d51f85ad557e78ad7f1dd76d3a6d605a7e668b64db4970ed0d8d7d7acb3d4768",
        "trace_A": "7016fa460c69ff0252c721129c3b790c41f8f4bd28d5273b99dad3a725ddb7b8",
    },
    ("zero-delay", 1): {
        "report": "33a1a61fbbd5e41db8000b0125755cb5d5c04a8bd16fe3cbf8a01e8cb0c59e23",
        "trace_A": "c959681356708681dacfef740a4b52fd8e7193871b0cf39caa14ce5b12603d30",
    },
    ("zero-delay", 2): {
        "report": "33a1a61fbbd5e41db8000b0125755cb5d5c04a8bd16fe3cbf8a01e8cb0c59e23",
        "trace_A": "c959681356708681dacfef740a4b52fd8e7193871b0cf39caa14ce5b12603d30",
    },
}

BATCH_GOLDEN = "36801787b902dd8cf28af37e0dc4dcc4e3f1da7bd5cac215dd016ff518e89516"


def _sha(data):
    """SHA-256 of a trace's bytes as they are, or of a report's UTF-8."""
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _preset_digests(preset, seed):
    sc = cli.load_scenario(preset, seed=seed, duration_ms=DURATION_MS)
    result = cli.simulate_scenario(sc)
    got = {"report": _sha(tracefile.format_report(result.report))}
    for station_id, capture in result.captures.items():
        got[f"trace_{station_id}"] = _sha(tracefile.format_trace(capture))
    return got


def _batch_digest():
    sc = cli.load_scenario("remote-default", duration_ms=3000)
    reports, failures = cli.run_batch(sc, 3, sc.seed)
    return _sha(tracefile.format_batch_summary(reports, sc.seed, failures))


@pytest.mark.parametrize("preset,seed", sorted(GOLDEN))
def test_preset_bytes_match_the_golden_digests(preset, seed):
    assert _preset_digests(preset, seed) == GOLDEN[(preset, seed)]


@pytest.mark.parametrize("preset,seed", sorted(GOLDEN))
def test_traces_read_back_reproduce_the_golden_digests(preset, seed):
    sc = cli.load_scenario(preset, seed=seed, duration_ms=DURATION_MS)
    result = cli.simulate_scenario(sc)
    # captures hold the sender first, the order `estimate` takes them in
    parsed = [tracefile.parse_trace(tracefile.format_trace(capture))
              for capture in result.captures.values()]
    got = {f"trace_{c.station_id}": _sha(tracefile.format_trace(c)) for c in parsed}
    report = cli.estimate_run(parsed,
                              mouth_to_ear_ms=result.report.mouth_to_ear_ms)
    got["report"] = _sha(tracefile.format_report(report))
    assert got == GOLDEN[(preset, seed)]


def test_every_preset_is_pinned():
    assert set(GOLDEN) == {(preset, seed)
                           for preset in cli.scenario_mod.preset_names()
                           for seed in SEEDS}


def test_batch_summary_matches_the_golden_digest():
    assert _batch_digest() == BATCH_GOLDEN


if __name__ == "__main__":
    print("GOLDEN = {")
    for preset in sorted(cli.scenario_mod.preset_names()):
        for seed in SEEDS:
            print(f'    ("{preset}", {seed}): {{')
            for key, digest in sorted(_preset_digests(preset, seed).items()):
                print(f'        "{key}": "{digest}",')
            print("    },")
    print("}")
    print()
    print(f'BATCH_GOLDEN = "{_batch_digest()}"')
