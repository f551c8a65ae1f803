"""Tests for pcap file I/O."""

import struct

import pytest

from repro.net.pcap import (
    PcapError,
    PcapWarning,
    iter_pcap,
    read_pcap,
    write_pcap,
)
from repro.net.trace import Trace


@pytest.fixture
def small_trace(sample_tcp_packet, sample_udp_packet) -> Trace:
    trace = Trace(link_name="test", snaplen=64)
    trace.capture(1000.000001, sample_tcp_packet)
    trace.capture(1000.5, sample_udp_packet)
    trace.capture(1001.25, sample_tcp_packet)
    return trace


class TestPcapRoundTrip:
    def test_round_trip_preserves_records(self, small_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        loaded = read_pcap(path, link_name="test")
        assert len(loaded) == len(small_trace)
        for original, loaded_record in zip(small_trace, loaded):
            assert loaded_record.data == original.data
            assert loaded_record.wire_length == original.wire_length
            assert loaded_record.timestamp == pytest.approx(
                original.timestamp, abs=1e-6
            )

    def test_round_trip_empty_trace(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(Trace(), path)
        assert len(read_pcap(path)) == 0

    def test_snaplen_preserved(self, small_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        assert read_pcap(path).snaplen == 64

    def test_microsecond_rollover(self, sample_tcp_packet, tmp_path):
        trace = Trace()
        trace.capture(9.9999999, sample_tcp_packet)  # rounds to 10.000000
        path = tmp_path / "roll.pcap"
        write_pcap(trace, path)
        loaded = read_pcap(path)
        assert loaded[0].timestamp == pytest.approx(10.0, abs=1e-6)


class TestPcapErrors:
    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1")
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_truncated_final_record_body_is_dropped_with_warning(
        self, small_trace, tmp_path
    ):
        path = tmp_path / "cut.pcap"
        write_pcap(small_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.warns(PcapWarning):
            trace = read_pcap(path)
        assert len(trace) == len(small_trace) - 1
        for original, loaded in zip(small_trace, trace):
            assert loaded.data == original.data

    def test_truncated_final_record_header_is_dropped_with_warning(
        self, small_trace, tmp_path
    ):
        path = tmp_path / "cut.pcap"
        write_pcap(small_trace, path)
        data = path.read_bytes()
        # Keep the global header, both full records, and 7 bytes of the
        # third record's 16-byte header.
        offset = 24
        for record in small_trace.records[:2]:
            offset += 16 + len(record.data)
        path.write_bytes(data[:offset + 7])
        with pytest.warns(PcapWarning):
            trace = read_pcap(path)
        assert len(trace) == 2

    def test_rejects_unknown_linktype(self, tmp_path):
        path = tmp_path / "link.pcap"
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 228)
        path.write_bytes(header)
        with pytest.raises(PcapError):
            read_pcap(path)


class TestPcapInterop:
    def test_reads_big_endian_files(self, sample_udp_packet, tmp_path):
        data = sample_udp_packet.pack()
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack(">IIII", 100, 250000, len(data), len(data))
        path = tmp_path / "be.pcap"
        path.write_bytes(header + record + data)
        trace = read_pcap(path)
        assert len(trace) == 1
        assert trace[0].timestamp == pytest.approx(100.25)
        assert trace[0].data == data

    def test_reads_nanosecond_magic(self, sample_udp_packet, tmp_path):
        data = sample_udp_packet.pack()
        header = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 101)
        record = struct.pack("<IIII", 100, 500_000_000, len(data), len(data))
        path = tmp_path / "ns.pcap"
        path.write_bytes(header + record + data)
        trace = read_pcap(path)
        assert trace[0].timestamp == pytest.approx(100.5)

    def test_strips_ethernet_header(self, sample_udp_packet, tmp_path):
        ip_bytes = sample_udp_packet.pack()
        frame = b"\x00" * 12 + b"\x08\x00" + ip_bytes
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack("<IIII", 7, 0, len(frame), len(frame))
        path = tmp_path / "eth.pcap"
        path.write_bytes(header + record + frame)
        trace = read_pcap(path)
        assert trace[0].data == ip_bytes


class TestIterPcap:
    def test_iter_matches_read(self, small_trace, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(small_trace, path)
        loaded = read_pcap(path)
        streamed = list(iter_pcap(path))
        assert streamed == loaded.records

    def test_iter_empty_file(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(Trace(), path)
        assert list(iter_pcap(path)) == []

    def test_iter_warns_on_truncated_tail(self, small_trace, tmp_path):
        path = tmp_path / "cut.pcap"
        write_pcap(small_trace, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.warns(PcapWarning):
            streamed = list(iter_pcap(path))
        assert len(streamed) == len(small_trace) - 1

    def test_iter_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapError):
            list(iter_pcap(path))
