"""Equivalence tests: batched columnar step-1 kernel vs the reference.

The columnar kernel must be *behaviourally indistinguishable* from
``detect_replicas_indexed`` fed the same records — same streams, same
replica indices, same keys, same first_data bytes — on synthetic loop
traces, pcap round trips, and through the full three-step pipeline.
"""

import random

import pytest

from repro.core.detector import DetectorConfig, LoopDetector
from repro.core.replica import (
    ReplicaScanStats,
    detect_replicas,
    detect_replicas_columnar,
    detect_replicas_indexed,
)
from repro.core.streaming import StreamingLoopDetector
from repro.core.streams import PrefixIndex, candidate_prefix_index
from repro.net.addr import IPv4Prefix
from repro.net.columnar import ColumnarTrace
from repro.net.pcap import read_pcap, read_pcap_columnar, write_pcap
from repro.net.trace import Trace, TraceRecord
from repro.traffic.synthetic import SyntheticTraceBuilder


@pytest.fixture(scope="module")
def loop_trace():
    builder = SyntheticTraceBuilder(rng=random.Random(7))
    builder.add_background(400, 0.0, 60.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    builder.add_loop(5.0, IPv4Prefix.parse("192.0.2.0/24"), n_packets=3,
                     replicas_per_packet=6, spacing=0.01, entry_ttl=40)
    builder.add_loop(20.0, IPv4Prefix.parse("203.0.113.0/24"), n_packets=2,
                     replicas_per_packet=4, spacing=0.02, entry_ttl=50)
    return builder.build()


def _assert_streams_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.key == b.key
        assert a.first_data == b.first_data
        assert a.src == b.src
        assert a.dst == b.dst
        assert a.protocol == b.protocol
        assert a.replicas == b.replicas


class TestColumnarKernelEquivalence:
    def test_matches_reference_on_synthetic_trace(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace)
        _assert_streams_equal(
            detect_replicas_columnar(ctrace.chunks),
            detect_replicas(loop_trace),
        )

    def test_matches_across_chunk_boundaries(self, loop_trace):
        reference = detect_replicas(loop_trace)
        for chunk_records in (1, 7, 100, 65_536):
            ctrace = ColumnarTrace.from_trace(loop_trace,
                                              chunk_records=chunk_records)
            _assert_streams_equal(
                detect_replicas_columnar(ctrace.chunks), reference
            )

    def test_matches_through_pcap_mmap_reader(self, loop_trace, tmp_path):
        path = tmp_path / "loop.pcap"
        write_pcap(loop_trace, path)
        ctrace = read_pcap_columnar(path)
        trace = read_pcap(path)
        _assert_streams_equal(
            detect_replicas_columnar(ctrace.chunks),
            detect_replicas(trace),
        )

    def test_matches_on_loop_free_trace(self):
        builder = SyntheticTraceBuilder(rng=random.Random(1))
        builder.add_background(200, 0.0, 30.0)
        trace = builder.build()
        ctrace = ColumnarTrace.from_trace(trace)
        streams = detect_replicas_columnar(ctrace.chunks)
        assert streams == detect_replicas(trace) == []

    def test_accepts_columnar_trace_directly(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace)
        _assert_streams_equal(
            detect_replicas_columnar(ctrace),
            detect_replicas_columnar(ctrace.chunks),
        )

    def test_parameters_forwarded(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace)
        for kwargs in ({"min_ttl_delta": 3}, {"max_replica_gap": 0.005}):
            _assert_streams_equal(
                detect_replicas_columnar(ctrace.chunks, **kwargs),
                detect_replicas(loop_trace, **kwargs),
            )

    def test_scan_stats_match(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace)
        ref_stats = ReplicaScanStats()
        col_stats = ReplicaScanStats()
        detect_replicas(loop_trace, stats=ref_stats)
        detect_replicas_columnar(ctrace.chunks, stats=col_stats)
        assert col_stats.records_scanned == ref_stats.records_scanned
        assert col_stats.records_skipped_short == \
            ref_stats.records_skipped_short
        assert col_stats.candidate_streams == ref_stats.candidate_streams

    def test_eviction_cadence_matches_reference(self, loop_trace):
        ctrace = ColumnarTrace.from_trace(loop_trace, chunk_records=37)
        for interval in (10, 113, 0):
            ref_stats = ReplicaScanStats()
            col_stats = ReplicaScanStats()
            _assert_streams_equal(
                detect_replicas_columnar(ctrace.chunks,
                                         eviction_interval=interval,
                                         stats=col_stats),
                detect_replicas(loop_trace, eviction_interval=interval,
                                stats=ref_stats),
            )
            assert col_stats.singletons_evicted == \
                ref_stats.singletons_evicted

    def test_mixed_regular_and_irregular_chunks(self, loop_trace):
        # Strip the stride declaration from every other chunk so the
        # same stream keys chain across the bulk-masked path and the
        # per-record fallback — a singleton stored by one path must be
        # promotable by the other.
        import dataclasses

        reference = detect_replicas(loop_trace)
        for chunk_records in (5, 37):
            ctrace = ColumnarTrace.from_trace(loop_trace,
                                              chunk_records=chunk_records)
            mixed = [
                dataclasses.replace(chunk, stride=None) if i % 2 else chunk
                for i, chunk in enumerate(ctrace.chunks)
            ]
            _assert_streams_equal(detect_replicas_columnar(mixed), reference)

    def test_sharded_subset_carries_global_indices(self, loop_trace):
        # Feeding only a subset (with original indices) must produce
        # streams whose member indices line up with the full trace.
        reference = detect_replicas(loop_trace)
        keep = {i for stream in reference for i in stream.member_indices()}
        subset = [(i, r.timestamp, r.data)
                  for i, r in enumerate(loop_trace.records) if i in keep]
        _assert_streams_equal(detect_replicas_indexed(subset), reference)


class TestFullPipelineEquivalence:
    def test_detect_columnar_matches_detect(self, loop_trace):
        detector = LoopDetector()
        reference = detector.detect(loop_trace)
        columnar = detector.detect_columnar(
            ColumnarTrace.from_trace(loop_trace)
        )
        _assert_streams_equal(columnar.streams, reference.streams)
        assert len(columnar.loops) == len(reference.loops)
        for a, b in zip(columnar.loops, reference.loops):
            assert a.prefix == b.prefix
            assert a.start == b.start
            assert a.end == b.end
            assert a.replica_count == b.replica_count

    def test_detect_columnar_with_custom_config(self, loop_trace):
        config = DetectorConfig(min_stream_size=3, prefix_length=16)
        detector = LoopDetector(config)
        reference = detector.detect(loop_trace)
        columnar = detector.detect_columnar(
            ColumnarTrace.from_trace(loop_trace)
        )
        _assert_streams_equal(columnar.streams, reference.streams)


class TestStreamingColumnarEquivalence:
    def test_process_trace_columnar_matches_process_trace(self, loop_trace):
        reference = StreamingLoopDetector().process_trace(loop_trace)
        columnar = StreamingLoopDetector().process_trace_columnar(
            ColumnarTrace.from_trace(loop_trace, chunk_records=53)
        )
        assert len(columnar) == len(reference)
        for a, b in zip(columnar, reference):
            assert a.prefix == b.prefix
            assert a.start == b.start
            assert a.end == b.end
            assert a.replica_count == b.replica_count


@pytest.fixture(scope="module")
def index_trace():
    """Loops whose checks the prefix index decides: non-member traffic
    inside one loop's lifetime and inside another's merge gap, plus
    records too short to carry a destination."""
    builder = SyntheticTraceBuilder(rng=random.Random(11))
    builder.add_background(300, 0.0, 90.0,
                           prefixes=[IPv4Prefix.parse("198.51.100.0/24")])
    looped = IPv4Prefix.parse("192.0.2.0/24")
    builder.add_loop(5.0, looped, n_packets=3, replicas_per_packet=5,
                     spacing=0.01, entry_ttl=40)
    builder.add_loop(30.0, looped, n_packets=2, replicas_per_packet=5,
                     spacing=0.01, entry_ttl=40)
    # Non-member packets to the looped /24 in the merge gap (5 s .. 30 s).
    builder.add_background(4, 12.0, 20.0, prefixes=[looped])
    conflicted = IPv4Prefix.parse("203.0.113.0/24")
    builder.add_loop(50.0, conflicted, n_packets=2, replicas_per_packet=6,
                     spacing=0.02, entry_ttl=50)
    # Non-member packets to the same /16 as the looped /24 and inside
    # the conflicted loop's lifetime.
    builder.add_background(3, 50.0, 50.1, prefixes=[conflicted])
    builder.add_background(5, 0.0, 60.0,
                           prefixes=[IPv4Prefix.parse("192.0.7.0/24")])
    trace = builder.build()
    short = Trace(link_name=trace.link_name, snaplen=trace.snaplen)
    for i, record in enumerate(trace.records):
        short.append(record)
        if i % 17 == 0:
            short.append(TraceRecord(timestamp=record.timestamp,
                                     data=record.data[:12 + i % 8],
                                     wire_length=record.wire_length))
    return short


def _loop_fingerprint(result):
    return [(str(loop.prefix), loop.start, loop.end,
             [sorted(stream.member_indices()) for stream in loop.streams])
            for loop in result.loops]


class TestPrefixIndexChunked:
    @pytest.mark.parametrize("prefix_length", [16, 24, 32])
    @pytest.mark.parametrize("chunk_records", [1, 41, 65_536])
    def test_restricted_add_chunk_answers_like_add_record(
            self, index_trace, prefix_length, chunk_records):
        oracle = PrefixIndex(index_trace, prefix_length)
        candidates = detect_replicas(index_trace)
        ctrace = ColumnarTrace.from_trace(index_trace,
                                          chunk_records=chunk_records)
        restricted = candidate_prefix_index(candidates, ctrace.chunks,
                                            prefix_length)
        prefixes = {stream.dst_prefix(prefix_length)
                    for stream in candidates}
        assert prefixes
        windows = [(0.0, 120.0), (5.0, 5.05), (12.0, 30.0), (50.0, 50.2)]
        for prefix in prefixes:
            net = prefix.network >> (32 - prefix_length)
            assert (restricted._by_prefix.get(net, [])
                    == oracle._by_prefix.get(net, []))
            for start, end in windows:
                assert (restricted.records_in_window(prefix, start, end)
                        == oracle.records_in_window(prefix, start, end))
        assert set(restricted._by_prefix) <= {
            prefix.network >> (32 - prefix_length) for prefix in prefixes
        }

    def test_unindexed_prefix_is_refused(self, index_trace):
        candidates = detect_replicas(index_trace)
        restricted = candidate_prefix_index(
            candidates, ColumnarTrace.from_trace(index_trace).chunks
        )
        with pytest.raises(ValueError, match="not among"):
            restricted.records_in_window(
                IPv4Prefix.parse("198.51.100.0/24"), 0.0, 120.0
            )

    def test_add_chunk_matches_add_record(self, index_trace):
        oracle = PrefixIndex(index_trace, 24)
        by_chunk = PrefixIndex(prefix_length=24)
        for chunk in ColumnarTrace.from_trace(index_trace,
                                              chunk_records=41).chunks:
            by_chunk.add_chunk(chunk)
        assert by_chunk._by_prefix == oracle._by_prefix

    def test_mapped_pcap_matches_add_record(self, index_trace, tmp_path):
        # Chunks over the mmap of a pcap index exactly like the
        # record-by-record path.
        path = tmp_path / "index.pcap"
        write_pcap(index_trace, path)
        reloaded = read_pcap(path)
        oracle = PrefixIndex(reloaded, 24)
        candidates = detect_replicas(reloaded)
        mapped = candidate_prefix_index(
            candidates, read_pcap_columnar(path, chunk_records=29).chunks
        )
        for net, bucket in mapped._by_prefix.items():
            assert bucket == oracle._by_prefix[net]
        assert set(mapped._by_prefix) == {
            stream.dst_prefix(24).network >> 8 for stream in candidates
        }

    def test_without_numpy_matches(self, index_trace, monkeypatch):
        import repro.core.streams as streams_mod

        candidates = detect_replicas(index_trace)
        chunks = ColumnarTrace.from_trace(index_trace,
                                          chunk_records=41).chunks
        with_numpy = candidate_prefix_index(candidates, chunks)
        monkeypatch.setattr(streams_mod, "np", None)
        without = candidate_prefix_index(candidates, chunks)
        assert without._by_prefix == with_numpy._by_prefix


class TestIndexEquivalence:
    """Offline columnar detection builds its prefix index over the
    candidates' prefixes only; every check the index decides must still
    come out exactly as in ``detect()``."""

    @pytest.mark.parametrize("prefix_length", [16, 24, 32])
    @pytest.mark.parametrize("check_prefix", [True, False])
    @pytest.mark.parametrize("check_gap", [True, False])
    def test_matches_detect(self, index_trace, tmp_path, prefix_length,
                            check_prefix, check_gap):
        config = DetectorConfig(prefix_length=prefix_length,
                                check_prefix_consistency=check_prefix,
                                check_gap_consistency=check_gap)
        path = tmp_path / "index.pcap"
        write_pcap(index_trace, path)
        reference = LoopDetector(config).detect(read_pcap(path))
        assert reference.candidate_streams
        expected = _loop_fingerprint(reference)
        result = LoopDetector(config).detect_columnar(
            read_pcap_columnar(path, chunk_records=37))
        _assert_streams_equal(result.streams, reference.streams)
        assert _loop_fingerprint(result) == expected
        assert (result.validation.rejected_prefix_conflict
                == reference.validation.rejected_prefix_conflict)

    def test_checks_change_the_outcome(self, index_trace):
        # Guard for the suite above: the fixture's non-member traffic
        # really is what the two checks decide on.
        def loops(**checks):
            return LoopDetector(DetectorConfig(**checks)).detect(
                index_trace).loop_count

        assert loops() == 2
        assert loops(check_gap_consistency=False) == 1
        assert loops(check_prefix_consistency=False) == 3
