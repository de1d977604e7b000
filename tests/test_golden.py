"""Golden digests: the report and trace bytes of every preset are pinned.

Each entry is the SHA-256 of `format_report` and of every station's
`format_trace` for one preset run at 2000 ms with the CLI's default lag
window, plus one `remote-default` batch summary (3 runs, 3000 ms).  The
trace and report digests must also hold after each trace is parsed back
and estimated again, as `estimate` does with the written files.  The
instrument promises the same bytes for the same scenario and seed, so a
change that moves any of them must regenerate this table in the same
commit and say why.
"""
import hashlib

import pytest

from vrlatsim import cli, tracefile

DURATION_MS = 2000

GOLDEN = {
    ("audio-local", 1): {
        "report": "021c0df86076f7d698182b56df6ffc7fa9ab1938e7887842b7a6e66c2922c377",
        "trace_A": "41fb2fdd46f92d8fa6604adeda5bf0088a8e28f23f980a713da65a39ba071861",
    },
    ("audio-local", 2): {
        "report": "8fb1612435d12d6a761f3276174dd98f63b28cd8fdb792ce092c052cc4ec2621",
        "trace_A": "774fddc07c10658329267508a4ba91e639edd4c06fcccc1c297739743f977c85",
    },
    ("audio-remote", 1): {
        "report": "bae034189778362d834b1c900962bb5e16d04ea3a39ebec8626313d458ea9297",
        "trace_A": "41fb2fdd46f92d8fa6604adeda5bf0088a8e28f23f980a713da65a39ba071861",
    },
    ("audio-remote", 2): {
        "report": "273d06f1137c9fca8ec41365bfc169967c48edf4f068d6c6a04c2313e4ebc7f6",
        "trace_A": "774fddc07c10658329267508a4ba91e639edd4c06fcccc1c297739743f977c85",
    },
    ("frame-delay-1", 1): {
        "report": "5a2e62be96a1d1017617fea2e8579247be2f116bb1695a3d3086112c3ea693b0",
        "trace_A": "3a7a4db5a013c22d35bf9ced9bbe8bd218f523f380ef4de9c577fe96ce32355c",
    },
    ("frame-delay-1", 2): {
        "report": "71f6ec01e76c6a3d45c5e3f5b640c6f893282cf84c4958086ae2733146d1d3fc",
        "trace_A": "a8349f10feeba71f884ae9b984a7fbfd31c689a4899d85aa30aa816c192561c4",
    },
    ("frame-delay-10", 1): {
        "report": "5901c5d37836a9c681be98797bdece6438bd3a7671c4cca01d8dafbdcad88662",
        "trace_A": "258a59ace2a7965b0a7ce3d39b716eacbb654d7b9a82125babb229bcc6594480",
    },
    ("frame-delay-10", 2): {
        "report": "6e63dde9ae45d3b6cf9c433ee7160e4b1a3b02c5ddab49f8d7e77334210e0114",
        "trace_A": "4a35e6b8bf9cca2e5ae596bd6f9819e17cee74dc866733e586fff0957e423827",
    },
    ("frame-delay-5", 1): {
        "report": "717bfa79e9dd6e5d72a51fc817b31b9496f2915cdd97e3f9cab36b819bafb50c",
        "trace_A": "0100b34d6e5e8a1a360a0525356fee53917dad344243c7bfe1868ecc28bcb252",
    },
    ("frame-delay-5", 2): {
        "report": "fd6ea0610b2e40d7d888dfdd3e825fa4d7478014c47749cdb05fe1e4dce543ca",
        "trace_A": "c9bd28383cb7b9606c6b158f5f12737a06676aded1486f07929461ee94a1df00",
    },
    ("remote-asymmetric", 1): {
        "report": "4cc06f758e4a3251a768af6d0e95b9db524e236b19ebd97fc99d92c3dcdc6bed",
        "trace_A": "5913b20f1220222b9cd8cbf05cb5a3531348b081d4b970e9a42c87735356b533",
        "trace_B": "5773eaf841cbbf8ac405432a609598b74ee3d976f3457c16357c46483a1d9a51",
    },
    ("remote-asymmetric", 2): {
        "report": "8df3dba706c2da9c27352a960de33f119f2c4c7138f87f8dc75081fab82646b4",
        "trace_A": "ea89a033ed5de20d25b67d53dd681806b04cec36778e079103d2970ee997838d",
        "trace_B": "950daa6e882c78182bfbd90c5d78df28816b26cdf0b678a44d2900d8dd6bd720",
    },
    ("remote-default", 1): {
        "report": "4a78571980c29f06f4f79a14ffd8cbf0d1364c350142171d308b4405d179c84a",
        "trace_A": "5913b20f1220222b9cd8cbf05cb5a3531348b081d4b970e9a42c87735356b533",
        "trace_B": "5049ea79fd14279220d096df6dec98d70cebe44d9a4bebb9061c850dc221c36b",
    },
    ("remote-default", 2): {
        "report": "d5572be649bbb7c2fc416d9e249cac94c6f491c1e0b09c636298fec4bad17d3a",
        "trace_A": "ea89a033ed5de20d25b67d53dd681806b04cec36778e079103d2970ee997838d",
        "trace_B": "b6e2f5734353415210507333827c484f94f3cd4d7ddacec7640af3fd1881d660",
    },
    ("vive-baseline", 1): {
        "report": "c1d178e657d0149f14136c01855e97fdfbb952d0f591f9bb9ada2a4941d79057",
        "trace_A": "a6b83a161c3b79bb2c080ba6384502877d37a996293272f2cf89a446f773ee5f",
    },
    ("vive-baseline", 2): {
        "report": "c1d178e657d0149f14136c01855e97fdfbb952d0f591f9bb9ada2a4941d79057",
        "trace_A": "4330a37a9df6663a6534957861ee6f02308f329d4bba09a4518b70cbfec90856",
    },
    ("zero-delay", 1): {
        "report": "33a1a61fbbd5e41db8000b0125755cb5d5c04a8bd16fe3cbf8a01e8cb0c59e23",
        "trace_A": "72fe5fb315a4b8bc585af15a1f9154d79f5d039a26f8fce64395ecee10d7ef03",
    },
    ("zero-delay", 2): {
        "report": "33a1a61fbbd5e41db8000b0125755cb5d5c04a8bd16fe3cbf8a01e8cb0c59e23",
        "trace_A": "72fe5fb315a4b8bc585af15a1f9154d79f5d039a26f8fce64395ecee10d7ef03",
    },
}

BATCH_GOLDEN = "c6027d3e654e02bea72f849fad52d6632663a378e9276d31a95468e9e392a6bb"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("preset,seed", sorted(GOLDEN))
def test_preset_bytes_match_the_golden_digests(preset, seed):
    sc = cli.load_scenario(preset, seed=seed, duration_ms=DURATION_MS)
    result = cli.simulate_scenario(sc)
    got = {"report": _sha(tracefile.format_report(result.report))}
    for station_id, capture in result.captures.items():
        got[f"trace_{station_id}"] = _sha(tracefile.format_trace(capture))
    assert got == GOLDEN[(preset, seed)]


@pytest.mark.parametrize("preset,seed", sorted(GOLDEN))
def test_traces_read_back_reproduce_the_golden_digests(preset, seed):
    sc = cli.load_scenario(preset, seed=seed, duration_ms=DURATION_MS)
    result = cli.simulate_scenario(sc)
    # captures hold the sender first, the order `estimate` takes them in
    parsed = [tracefile.parse_trace(tracefile.format_trace(capture))
              for capture in result.captures.values()]
    got = {f"trace_{c.station_id}": _sha(tracefile.format_trace(c)) for c in parsed}
    report = cli.estimate_captures(*parsed, audio_result=result.audio_result)
    got["report"] = _sha(tracefile.format_report(report))
    assert got == GOLDEN[(preset, seed)]


def test_every_preset_is_pinned():
    assert {preset for preset, _ in GOLDEN} == set(cli.scenario_mod.preset_names())


def test_batch_summary_matches_the_golden_digest():
    sc = cli.load_scenario("remote-default", duration_ms=3000)
    reports, failures = cli.run_batch(sc, 3, sc.seed)
    text = tracefile.format_batch_summary(cli.summarize_reports(reports),
                                          sc.seed, failures)
    assert _sha(text) == BATCH_GOLDEN
