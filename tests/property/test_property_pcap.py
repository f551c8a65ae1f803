"""Property-based tests for pcap round-trips and pipeline composition."""

import random
import struct
import warnings
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vectorize
from repro.core.detector import LoopDetector
from repro.core.streaming import StreamingLoopDetector
from repro.net.addr import IPv4Prefix
from repro.net.anonymize import PrefixPreservingAnonymizer
from repro.net.pcap import (
    PCAP_MAGIC,
    PCAP_MAGIC_NS,
    PcapWarning,
    iter_pcap_columnar,
    read_pcap,
    write_pcap,
)
from repro.net.trace import Trace, TraceRecord
from repro.traffic.synthetic import SyntheticTraceBuilder

records = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6),
        st.binary(min_size=0, max_size=80),
    ),
    min_size=0,
    max_size=40,
)


class TestPcapRoundTripProperty:
    @given(items=records)
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_records_round_trip(self, items, tmp_path_factory):
        path = tmp_path_factory.mktemp("pcap") / "t.pcap"
        trace = Trace(snaplen=100)
        for timestamp, data in sorted(items, key=lambda item: item[0]):
            trace.append(TraceRecord(timestamp=timestamp, data=data,
                                     wire_length=len(data)))
        write_pcap(trace, path)
        loaded = read_pcap(path)
        assert len(loaded) == len(trace)
        for original, reloaded in zip(trace, loaded):
            assert reloaded.data == original.data
            assert reloaded.wire_length == original.wire_length
            assert abs(reloaded.timestamp - original.timestamp) < 1e-5


@st.composite
def pcap_files(draw):
    """Raw pcap bytes plus the chunk size to read them with.

    Caplens are constant, mixed, or change once — at a chunk boundary,
    one record past it, or anywhere; files may end in a truncated
    header or body.
    """
    chunk_records = draw(st.integers(1, 7))
    order = draw(st.sampled_from("<>"))
    nanos = draw(st.booleans())
    linktype = draw(st.sampled_from([1, 101]))
    count = draw(st.integers(0, 24))
    sizes = st.sampled_from([0, 6, 14, 19, 20, 28, 34, 40])
    first = draw(sizes)
    shape = draw(st.sampled_from(
        ["constant", "mixed", "boundary", "past-boundary", "anywhere"]))
    if shape == "mixed":
        caplens = [draw(sizes) for _ in range(count)]
    else:
        change = {"constant": count,
                  "boundary": chunk_records,
                  "past-boundary": chunk_records + 1,
                  "anywhere": draw(st.integers(0, count))}[shape]
        second = draw(sizes)
        caplens = [first if i < change else second for i in range(count)]
    # read_pcap insists on time order: (seconds, fraction) pairs with
    # fraction below the divisor, sorted, give non-decreasing times.
    divisor = 10**9 if nanos else 10**6
    times = sorted(draw(st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, divisor - 1)),
        min_size=count, max_size=count)))
    out = bytearray(struct.pack(
        order + "IHHiIII", PCAP_MAGIC_NS if nanos else PCAP_MAGIC,
        2, 4, 0, 0, 65535, linktype))
    for caplen, (seconds, fraction) in zip(caplens, times):
        body = draw(st.binary(min_size=caplen, max_size=caplen))
        wire = draw(st.one_of(st.just(caplen), st.integers(0, 2**32 - 1)))
        out += struct.pack(order + "IIII", seconds, fraction, caplen, wire)
        out += body
    tail = draw(st.sampled_from(["none", "header", "body"]))
    if tail == "header":
        out += bytes(draw(st.integers(1, 15)))
    elif tail == "body":
        out += struct.pack(order + "IIII", 1, 2, 40, 40)
        out += bytes(draw(st.integers(0, 39)))
    return bytes(out), chunk_records


def _read_columnar(path, chunk_records):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        chunks = list(iter_pcap_columnar(path, chunk_records=chunk_records))
    return chunks, sum(issubclass(w.category, PcapWarning) for w in caught)


class TestColumnarReaderProperty:
    @given(case=pcap_files())
    @settings(max_examples=200, deadline=None)
    def test_matches_read_pcap(self, case, tmp_path_factory):
        """Both columnar decoders (the structured-view one that numpy
        enables and the per-record one) load exactly what
        :func:`read_pcap` loads, chunk by chunk."""
        raw, chunk_records = case
        path = tmp_path_factory.mktemp("pcap") / "t.pcap"
        path.write_bytes(raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = read_pcap(path)
        expected_warnings = sum(
            issubclass(w.category, PcapWarning) for w in caught)
        runs = [_read_columnar(path, chunk_records)]
        with mock.patch.object(vectorize, "np", None):
            runs.append(_read_columnar(path, chunk_records))
        for chunks, warned in runs:
            assert warned == expected_warnings
            assert sum(len(chunk) for chunk in chunks) == len(trace)
            for number, chunk in enumerate(chunks):
                assert chunk.base_index == number * chunk_records
                assert len(chunk) == min(chunk_records,
                                         len(trace) - chunk.base_index)
                assert (chunk.timestamps.typecode, chunk.offsets.typecode,
                        chunk.lengths.typecode,
                        chunk.wire_lengths.typecode) == ("d", "Q", "I", "I")
                lengths = list(chunk.lengths)
                uniform = len(set(lengths)) == 1 and lengths[0] > 0
                assert (chunk.stride is not None) == uniform
                for i in range(len(chunk)):
                    record = trace.records[chunk.global_index(i)]
                    assert (chunk.timestamps[i].hex()
                            == record.timestamp.hex())
                    assert chunk.record_bytes(i) == record.data
                    assert chunk.wire_lengths[i] == record.wire_length
                    if uniform:
                        assert (chunk.offsets[i]
                                == chunk.offsets[0] + i * chunk.stride)


scenario = st.fixed_dictionaries({
    "seed": st.integers(0, 3000),
    "replicas": st.integers(3, 8),
    "background": st.integers(10, 120),
})


class TestPipelineComposition:
    @given(params=scenario)
    @settings(max_examples=15, deadline=None)
    def test_anonymize_then_stream_equals_offline_plain(self, params,
                                                        tmp_path_factory):
        """The full production pipeline — capture, anonymize, write pcap,
        read back, stream-detect — finds the same loop structure as
        offline detection on the raw trace."""
        builder = SyntheticTraceBuilder(rng=random.Random(params["seed"]))
        builder.add_background(params["background"], 0.0, 60.0,
                               prefixes=[IPv4Prefix.parse(
                                   "198.51.100.0/24")])
        builder.add_loop(10.0, IPv4Prefix.parse("192.0.2.0/24"),
                         n_packets=2,
                         replicas_per_packet=params["replicas"],
                         spacing=0.01, packet_gap=0.015, entry_ttl=40)
        trace = builder.build()

        baseline = LoopDetector().detect(trace)

        anonymizer = PrefixPreservingAnonymizer(
            b"pipeline-composition-test-key-32"
        )
        masked = anonymizer.anonymize_trace(trace)
        path = tmp_path_factory.mktemp("pipe") / "masked.pcap"
        write_pcap(masked, path)
        reloaded = read_pcap(path)
        online = StreamingLoopDetector().process_trace(reloaded)

        assert len(online) == baseline.loop_count
        # pcap stores microsecond timestamps: compare windows with a
        # tolerance rather than rounding (rounding can straddle digits).
        online_sorted = sorted(online, key=lambda loop: loop.start)
        expected_sorted = sorted(baseline.loops,
                                 key=lambda loop: loop.start)
        for got, want in zip(online_sorted, expected_sorted):
            assert abs(got.start - want.start) < 5e-5
            assert abs(got.end - want.end) < 5e-5
            assert got.stream_count == want.stream_count
            assert got.replica_count == want.replica_count
