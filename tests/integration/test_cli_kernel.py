"""CLI-level kernel-tier parity: --kernel never changes the answer.

Every tier must print byte-identical JSON — the tier picks an
implementation, not a result.  Plus flag semantics: --kernel is the one
switch for both the step-1 tier and the ingest path.
"""

import random

import pytest

from repro.cli import main
from repro.core.replica import KERNEL_TIERS
from repro.net.addr import IPv4Prefix
from repro.net.pcap import write_pcap
from repro.traffic.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def loop_pcap(tmp_path_factory):
    builder = SyntheticTraceBuilder(rng=random.Random(0))
    builder.add_background(150, 0.0, 30.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(5.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=2,
                     replicas_per_packet=5, spacing=0.01, entry_ttl=40)
    path = tmp_path_factory.mktemp("cli_kernel") / "loop.pcap"
    write_pcap(builder.build(), path)
    return path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


class TestKernelParity:
    def test_json_identical_across_tiers(self, loop_pcap, capsys):
        outputs = {
            tier: _run(capsys, ["detect", str(loop_pcap), "--json",
                                "--kernel", tier])
            for tier in KERNEL_TIERS
        }
        assert len(set(outputs.values())) == 1
        assert '"loops"' in outputs["auto"]

    def test_summary_identical_across_tiers(self, loop_pcap, capsys):
        outputs = {
            tier: _run(capsys, ["detect", str(loop_pcap),
                                "--kernel", tier])
            for tier in ("reference", "columnar", "vectorized")
        }
        assert len(set(outputs.values())) == 1
        assert "routing loops: 1" in outputs["reference"]

    def test_removed_ingest_flags_are_rejected(self, loop_pcap, capsys):
        # One trace is detected by one process, and --kernel alone
        # picks the ingest path: the old switches are argparse errors.
        for flags in (["--no-columnar"], ["--columnar"], ["--jobs", "2"],
                      ["--shards", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["detect", str(loop_pcap), *flags])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_rejects_unknown_tier(self, loop_pcap, capsys):
        with pytest.raises(SystemExit):
            main(["detect", str(loop_pcap), "--kernel", "simd"])
        capsys.readouterr()

    def test_monitor_accepts_kernel(self, loop_pcap, capsys):
        out = _run(capsys, ["monitor", str(loop_pcap), "--no-dashboard",
                            "--kernel", "auto"])
        assert "routing loops:" in out
