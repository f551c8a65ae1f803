"""CLI-level parity: columnar ingest and --kernel reference print the
same thing.

The default reads pcaps through the zero-copy columnar pipeline;
``--kernel reference`` reads a materialized trace and runs the
per-record oracle.  The choice selects an execution path, never an
answer — every command and output mode must produce byte-identical
stdout either way.  Plus --profile: a pstats-loadable profile lands
where asked.
"""

import pstats
import random

import pytest

from repro.cli import main
from repro.net.addr import IPv4Prefix
from repro.net.pcap import write_pcap
from repro.traffic.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def loop_pcap(tmp_path_factory):
    builder = SyntheticTraceBuilder(rng=random.Random(0))
    builder.add_background(100, 0.0, 30.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(5.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=2,
                     replicas_per_packet=5, spacing=0.01, entry_ttl=40)
    path = tmp_path_factory.mktemp("cli_columnar") / "loop.pcap"
    write_pcap(builder.build(), path)
    return path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


class TestColumnarFlagParity:
    def _both(self, capsys, argv_tail):
        columnar = _run(capsys, ["detect", *argv_tail])
        reference = _run(capsys, ["detect", *argv_tail,
                                  "--kernel", "reference"])
        assert columnar == reference
        return columnar

    def test_detect_summary_identical(self, loop_pcap, capsys):
        out = self._both(capsys, [str(loop_pcap)])
        assert "validated streams: 2" in out
        assert "routing loops: 1" in out

    def test_detect_figures_identical(self, loop_pcap, capsys):
        out = self._both(capsys, [str(loop_pcap), "--figures"])
        assert "Figure 2" in out

    def test_detect_json_identical(self, loop_pcap, capsys):
        out = self._both(capsys, [str(loop_pcap), "--json"])
        assert '"loops"' in out

    def test_detect_streaming_identical(self, loop_pcap, capsys):
        out = self._both(capsys, [str(loop_pcap), "--streaming"])
        assert "routing loops: 1" in out

    def test_detect_options_identical(self, loop_pcap, capsys):
        out = self._both(capsys, [str(loop_pcap),
                                  "--min-stream-size", "9"])
        assert "validated streams: 0" in out

    def test_monitor_identical(self, loop_pcap, capsys):
        columnar = _run(capsys, ["monitor", str(loop_pcap),
                                 "--no-dashboard"])
        reference = _run(capsys, ["monitor", str(loop_pcap),
                                  "--no-dashboard", "--kernel", "reference"])
        assert columnar == reference


class TestProfileFlag:
    def test_detect_profile_writes_pstats(self, loop_pcap, tmp_path,
                                          capsys):
        out_path = tmp_path / "detect.pstats"
        _run(capsys, ["detect", str(loop_pcap),
                      "--profile", str(out_path)])
        assert out_path.exists()
        stats = pstats.Stats(str(out_path))
        assert stats.total_calls > 0

    def test_batch_profile_writes_pstats(self, loop_pcap, tmp_path,
                                         capsys):
        out_path = tmp_path / "batch.pstats"
        _run(capsys, ["batch", str(loop_pcap),
                      "--profile", str(out_path)])
        assert out_path.exists()
        assert pstats.Stats(str(out_path)).total_calls > 0

    def test_profile_not_written_without_flag(self, loop_pcap, tmp_path,
                                              capsys):
        _run(capsys, ["detect", str(loop_pcap)])
        assert not list(tmp_path.iterdir())


class TestBatchColumnarParity:
    def test_batch_pcap_identical(self, loop_pcap, capsys):
        import re

        columnar = _run(capsys, ["batch", str(loop_pcap)])
        reference = _run(capsys, ["batch", str(loop_pcap),
                                  "--kernel", "reference"])

        # Wall-clock columns (2-decimal seconds) legitimately vary
        # between runs; every detection number must match.
        def normalize(text):
            return re.sub(r"\d+\.\d\d", "X", text)

        assert normalize(columnar) == normalize(reference)
