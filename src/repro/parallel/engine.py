"""The sharded parallel detection engine.

:class:`ParallelLoopDetector` reproduces the offline
:class:`~repro.core.detector.LoopDetector` result exactly, with step 1
(replica chaining — the bulk of the work) fanned out over a process pool:

1. **Partition** — records are routed to N shards by the masked-packet
   key (:mod:`repro.parallel.shard`).  All replicas of one packet share a
   key, so no candidate stream is split across shards.
2. **Chain** — each worker runs
   :func:`~repro.core.replica.detect_replicas_indexed` over its shard,
   carrying the records' *global* trace indices so stream membership
   lines up with the full trace.
3. **Validate + merge (global)** — the parent concatenates the shard
   streams, restores the offline candidate order, and runs
   :func:`~repro.core.streams.validate_streams` and
   :func:`~repro.core.merge.merge_streams` against the global per-/24
   :class:`~repro.core.streams.PrefixIndex`.  These passes must be
   global: validation compares a stream against *every* packet to its
   prefix, not just those in its shard.

:meth:`ParallelLoopDetector.detect_file` feeds the partition from the
bounded-memory :func:`~repro.net.pcap.iter_pcap_chunks` reader, building
the prefix index incrementally instead of materializing a whole
:class:`~repro.net.trace.Trace`.  The columnar paths instead build the
index after the shards return, over the candidate streams' prefixes
only (:func:`~repro.core.streams.candidate_prefix_index`).

Columnar fan-out crosses the process boundary through ONE
``multiprocessing.shared_memory`` segment when a pool actually runs:
the parent lays out every shard's slab and columns back to back
(:meth:`~repro.parallel.shard.ColumnarShardPartition.shm_layout`),
writes the segment once, and ships only per-shard offset descriptors —
a few dozen pickled bytes per worker instead of megabytes of slab.
Workers attach read-only and chain straight off the mapping; the parent
unlinks the segment in a ``finally`` so it cannot outlive the run, even
on a worker crash or ``KeyboardInterrupt``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path

from repro.core.detector import DetectionResult, DetectorConfig
from repro.core.merge import merge_streams
from repro.core.replica import (
    Replica,
    ReplicaScanStats,
    ReplicaStream,
    detect_replicas_indexed,
    detect_replicas_with_kernel,
    stream_sort_key,
)
from repro.core.report import format_table
from repro.core.streams import (
    PrefixIndex,
    candidate_prefix_index,
    validate_streams,
)
from repro.obs.metrics import Timer
from repro.obs.perf import PipelineProfile
from repro.obs.tracing import NULL_TRACER
from repro.net.columnar import ColumnarTrace
from repro.net.pcap import (
    DEFAULT_CHUNK_RECORDS,
    iter_pcap_chunks,
    read_pcap_columnar,
)
from repro.net.trace import SNAPLEN_40, Trace
from repro.parallel.shard import (
    ColumnarShardPartition,
    ShardError,
    ShardPartition,
    rebuild_shard_chunk,
)


class ParallelError(ValueError):
    """Raised for invalid parallel-engine configuration."""


@dataclass(slots=True)
class ShardRunStats:
    """Instrumentation for one shard's chaining pass."""

    shard_id: int
    records: int
    candidate_streams: int
    seconds: float

    @property
    def records_per_sec(self) -> float:
        return self.records / self.seconds if self.seconds > 0 else 0.0


@dataclass(slots=True)
class ParallelStats:
    """Instrumentation for one parallel detection run."""

    jobs: int
    shards: int
    records_total: int = 0
    partition_seconds: float = 0.0
    detect_seconds: float = 0.0
    merge_seconds: float = 0.0
    wall_seconds: float = 0.0
    shard_skew: float = 1.0
    fanout_bytes: int = 0
    #: Bytes handed to workers through the shared-memory segment (0 when
    #: the run pickled its payloads: in-process runs, tuple-list shards).
    shm_bytes: int = 0
    per_shard: list[ShardRunStats] = field(default_factory=list)

    @property
    def records_per_sec(self) -> float:
        """End-to-end throughput over the whole run."""
        return (self.records_total / self.wall_seconds
                if self.wall_seconds > 0 else 0.0)

    def render(self) -> str:
        """Plain-text instrumentation block for CLI / benchmark reports."""
        lines = [
            f"parallel: {self.jobs} worker(s), {self.shards} shard(s)",
            f"wall time: {self.wall_seconds:.3f} s "
            f"(partition {self.partition_seconds:.3f}, "
            f"detect {self.detect_seconds:.3f}, "
            f"merge {self.merge_seconds:.3f})",
            f"throughput: {self.records_per_sec:,.0f} records/s",
            f"shard skew: {self.shard_skew:.2f}x",
            f"fan-out payload: {self.fanout_bytes:,} bytes"
            + (f" ({self.shm_bytes:,} via shared memory)"
               if self.shm_bytes else ""),
        ]
        if self.per_shard:
            lines.append(format_table(
                ["Shard", "Records", "Streams", "Seconds", "Records/s"],
                [
                    [s.shard_id, s.records, s.candidate_streams,
                     f"{s.seconds:.3f}", f"{s.records_per_sec:,.0f}"]
                    for s in self.per_shard
                ],
            ))
        return "\n".join(lines)


@dataclass(slots=True)
class TraceSummary:
    """Trace metadata stand-in for streamed (never-materialized) traces.

    Quacks enough like :class:`~repro.net.trace.Trace` for
    :func:`~repro.core.report.render_summary` and the Table I columns —
    record count, duration, bandwidth — without holding any records.
    """

    link_name: str = ""
    snaplen: int = SNAPLEN_40
    record_count: int = 0
    start_time: float = 0.0
    end_time: float = 0.0
    total_bytes: int = 0

    def __len__(self) -> int:
        return self.record_count

    @property
    def empty(self) -> bool:
        return self.record_count == 0

    @property
    def duration(self) -> float:
        if self.record_count < 2:
            return 0.0
        return self.end_time - self.start_time

    def average_bandwidth_bps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.total_bytes * 8 / self.duration


@dataclass(slots=True)
class ParallelDetectionResult(DetectionResult):
    """A :class:`~repro.core.detector.DetectionResult` plus parallel
    instrumentation.  For streamed files, ``trace`` is a
    :class:`TraceSummary` rather than a full trace."""

    parallel: ParallelStats


def _detect_shard(
    payload: tuple[int, list[tuple[int, float, bytes]], DetectorConfig],
) -> tuple[int, list[ReplicaStream], ReplicaScanStats, float]:
    """Worker entry point: chain one shard's records (module-level so it
    pickles into pool workers)."""
    shard_id, records, config = payload
    stats = ReplicaScanStats()
    with Timer() as timer:
        streams = detect_replicas_indexed(
            records,
            min_ttl_delta=config.min_ttl_delta,
            max_replica_gap=config.max_replica_gap,
            eviction_interval=config.eviction_interval,
            stats=stats,
        )
    return shard_id, streams, stats, timer.seconds


def _detect_shard_columnar(
    payload: tuple[int, bytes, object, object, DetectorConfig],
) -> tuple[int, list[ReplicaStream], ReplicaScanStats, float]:
    """Columnar worker entry point: chain one shard's slab with the
    kernel tier ``config.kernel`` selects.  The payload crossed the
    process boundary as three pickled buffers (slab, timestamps,
    lengths), not per-record tuples; the returned streams carry *local*
    shard positions as replica indices, remapped to trace-global numbers
    by the parent."""
    shard_id, slab, timestamps, lengths, config = payload
    stats = ReplicaScanStats()
    with Timer() as timer:
        chunk = rebuild_shard_chunk(slab, timestamps, lengths)
        streams = detect_replicas_with_kernel(
            [chunk],
            kernel=config.kernel,
            min_ttl_delta=config.min_ttl_delta,
            max_replica_gap=config.max_replica_gap,
            eviction_interval=config.eviction_interval,
            stats=stats,
        )
    return shard_id, streams, stats, timer.seconds


def _attach_shm(name: str) -> SharedMemory:
    """Attach to the parent's segment without adopting ownership.

    The parent is the sole owner of the unlink; a worker that lets the
    resource tracker register the mapping would have the tracker unlink
    it a second time (warning noise) or, worse, while another worker is
    still attached.  Python 3.13 has ``track=False`` for exactly this;
    on older runtimes attach registers unconditionally, so the
    registration is reverted by hand."""
    try:
        return SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        shm = SharedMemory(name=name, create=False)
        import multiprocessing

        if multiprocessing.get_start_method(allow_none=True) != "fork":
            # Spawned workers run their own tracker, which would unlink
            # the segment when the worker exits — revert its adoption.
            # Forked workers share the parent's tracker (a set keyed by
            # name, so the attach-time re-register was a no-op) and an
            # unregister here would clobber the parent's entry instead.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker moved
                pass
        return shm


def _chain_shm_shard(buf, payload):
    """Chain one shard straight off the shared mapping.

    Separate frame on purpose: every view of ``buf`` created here is a
    local, so by the time the caller closes the mapping the exports are
    gone.  Nothing that leaves this frame references the buffer — stream
    keys and first-replica bytes are copies by kernel contract."""
    (_, shard_id, slab_off, slab_len, ts_off, count, len_off,
     typecode, config) = payload
    stats = ReplicaScanStats()
    with Timer() as timer:
        slab = buf[slab_off:slab_off + slab_len]
        timestamps = buf[ts_off:ts_off + 8 * count].cast("d")
        itemsize = 2 if typecode == "H" else 4
        lengths = buf[len_off:len_off + itemsize * count].cast(typecode)
        chunk = rebuild_shard_chunk(slab, timestamps, lengths)
        streams = detect_replicas_with_kernel(
            [chunk],
            kernel=config.kernel,
            min_ttl_delta=config.min_ttl_delta,
            max_replica_gap=config.max_replica_gap,
            eviction_interval=config.eviction_interval,
            stats=stats,
        )
    return shard_id, streams, stats, timer.seconds


def _detect_shard_columnar_shm(
    payload,
) -> tuple[int, list[ReplicaStream], ReplicaScanStats, float]:
    """Shared-memory worker entry point: the payload is a segment name
    plus one :meth:`~repro.parallel.shard.ColumnarShardPartition.
    shm_layout` descriptor — offsets into the parent's single segment
    instead of the slab bytes themselves."""
    shm = _attach_shm(payload[0])
    try:
        return _chain_shm_shard(shm.buf, payload)
    finally:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - exception pinned a view
            pass


class ParallelLoopDetector:
    """Multi-process detect → validate → merge, identical to offline.

    ``jobs`` is the worker-process count; ``shards`` (default: ``jobs``)
    is the partition count.  With ``jobs=1`` everything runs in-process —
    useful both as a no-dependency fallback and for equivalence tests.
    """

    def __init__(
        self,
        config: DetectorConfig | None = None,
        jobs: int = 1,
        shards: int | None = None,
        tracer=NULL_TRACER,
        columnar: bool = False,
        shared_memory: bool = True,
        profile: PipelineProfile | None = None,
    ) -> None:
        if jobs < 1:
            raise ParallelError(f"jobs must be >= 1: {jobs}")
        if shards is not None and shards < 1:
            raise ParallelError(f"shards must be >= 1: {shards}")
        self.config = config or DetectorConfig()
        self.jobs = jobs
        self.shards = shards if shards is not None else jobs
        self.tracer = tracer
        #: Stage-timing accumulator; always real (never the null
        #: profile) because :class:`ParallelStats` reads the span
        #: timings back.  Histograms flow out only once a registry is
        #: attached (pass one here, or via :meth:`register_metrics`).
        self.profile = profile if profile is not None else PipelineProfile()
        #: When True, :meth:`detect_file` reads via the mmap columnar
        #: reader and fans out slab payloads (:class:`~repro.parallel.
        #: shard.ColumnarShardPartition`) instead of tuple lists.
        self.columnar = columnar
        #: Escape hatch: when False, columnar fan-out always pickles its
        #: payloads even when a pool runs (e.g. on a /dev/shm-less
        #: platform).  Results are identical either way.
        self.shared_memory = shared_memory
        #: Name of the most recent run's shared segment (None until a
        #: shared-memory fan-out has run).  The segment itself is
        #: unlinked before the run returns; the name exists so tests can
        #: assert exactly that.
        self.last_shm_name: str | None = None
        #: Stats of the most recent run, published by the pull collector.
        self.last_stats: ParallelStats | None = None
        self._last_shm_bytes = 0

    # -- entry points ---------------------------------------------------------

    def detect(self, trace: Trace) -> ParallelDetectionResult:
        """Run the sharded pipeline over an in-memory trace."""
        started = time.perf_counter()
        with self.profile.stage("parallel.partition") as span:
            partition = ShardPartition(num_shards=self.shards)
            needs_index = (self.config.check_prefix_consistency
                           or self.config.check_gap_consistency)
            prefix_index = (
                PrefixIndex(prefix_length=self.config.prefix_length)
                if needs_index else None
            )
            for index, record in enumerate(trace.records):
                partition.add(index, record.timestamp, record.data)
                if prefix_index is not None:
                    prefix_index.add_record(
                        index, record.timestamp, record.data
                    )
            span.add(records=partition.records_total)
        return self._finish(
            partition, prefix_index, trace, started, span.seconds
        )

    def detect_columnar(self, ctrace: ColumnarTrace) -> ParallelDetectionResult:
        """Run the sharded pipeline over a columnar trace: slab fan-out,
        batched kernel in each worker, identical streams and loops."""
        started = time.perf_counter()
        with self.profile.stage("parallel.partition") as span:
            partition = ColumnarShardPartition(num_shards=self.shards)
            for chunk in ctrace.chunks:
                partition.add_chunk(chunk)
            span.add(records=partition.records_total)
        return self._finish(partition, None, ctrace, started, span.seconds)

    def detect_file(
        self,
        path: str | Path,
        link_name: str = "",
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        progress=None,
        columnar: bool | None = None,
    ) -> ParallelDetectionResult:
        """Run the sharded pipeline over a pcap file via the chunked
        reader — the whole trace is never materialized; ``result.trace``
        is a :class:`TraceSummary`.

        ``progress`` is called as ``progress(records_partitioned)`` once
        per chunk — hand it a rate-limited
        :class:`~repro.obs.progress.Heartbeat` for long files.

        ``columnar`` (default: the engine's ``columnar`` flag) switches
        to the mmap columnar reader and slab fan-out; ``result.trace`` is
        then the :class:`~repro.net.columnar.ColumnarTrace`, whose record
        bodies are zero-copy views of the page cache rather than heap
        copies.
        """
        use_columnar = self.columnar if columnar is None else columnar
        if use_columnar:
            started = time.perf_counter()
            with self.profile.stage("ingest.columnar") as ingest:
                ctrace = read_pcap_columnar(
                    path, link_name=link_name or str(path),
                    chunk_records=chunk_records,
                )
                ingest.add(records=len(ctrace), bytes=ctrace.total_bytes)
            with self.profile.stage("parallel.partition") as span:
                partition = ColumnarShardPartition(num_shards=self.shards)
                for chunk in ctrace.chunks:
                    partition.add_chunk(chunk)
                    if progress is not None:
                        progress(len(chunk))
                span.add(records=partition.records_total)
            # Partition time includes the ingest read for stats-compat
            # with the row-by-row branch (both measure "time to fan
            # out"); the profile's ingest.columnar stage has the split.
            return self._finish(
                partition, None, ctrace, started,
                ingest.seconds + span.seconds,
            )
        started = time.perf_counter()
        with self.profile.stage("parallel.partition") as span:
            partition = ShardPartition(num_shards=self.shards)
            needs_index = (self.config.check_prefix_consistency
                           or self.config.check_gap_consistency)
            prefix_index = (
                PrefixIndex(prefix_length=self.config.prefix_length)
                if needs_index else None
            )
            summary = TraceSummary(link_name=link_name or str(path))
            index = 0
            for chunk in iter_pcap_chunks(path, chunk_records=chunk_records):
                summary.snaplen = chunk.snaplen
                for record in chunk.records:
                    partition.add(index, record.timestamp, record.data)
                    if prefix_index is not None:
                        prefix_index.add_record(
                            index, record.timestamp, record.data
                        )
                    if summary.record_count == 0:
                        summary.start_time = record.timestamp
                    summary.end_time = record.timestamp
                    summary.record_count += 1
                    summary.total_bytes += record.wire_length
                    index += 1
                if progress is not None:
                    progress(len(chunk.records))
            span.add(records=summary.record_count,
                     bytes=summary.total_bytes)
        return self._finish(
            partition, prefix_index, summary, started, span.seconds
        )

    # -- pipeline internals ---------------------------------------------------

    def _finish(
        self,
        partition: ShardPartition | ColumnarShardPartition,
        prefix_index: PrefixIndex | None,
        trace,
        started: float,
        partition_seconds: float,
    ) -> ParallelDetectionResult:
        """Run the shards, then validate and merge their candidates.

        The row-by-row paths pass the ``prefix_index`` they built while
        partitioning.  For a :class:`ColumnarTrace` the index is built
        here instead, once the candidates are known, over their prefixes
        only.
        """
        detect_started = time.perf_counter()
        with self.profile.stage(
            "parallel.detect", records=partition.records_total
        ) as detect_span:
            shard_outputs = self._run_shards(partition)
        detect_seconds = detect_span.seconds

        merge_started = time.perf_counter()
        with self.profile.stage("parallel.validate_merge") as merge_span:
            candidates: list[ReplicaStream] = []
            scan_stats = ReplicaScanStats(
                records_scanned=partition.records_total,
                records_skipped_short=partition.records_short,
            )
            per_shard: list[ShardRunStats] = []
            for shard_id, streams, shard_stats, seconds in shard_outputs:
                candidates.extend(streams)
                scan_stats.singletons_evicted += shard_stats.singletons_evicted
                per_shard.append(ShardRunStats(
                    shard_id=shard_id,
                    records=shard_stats.records_scanned,
                    candidate_streams=shard_stats.candidate_streams,
                    seconds=seconds,
                ))
            # Restore the offline candidate order: the shared total order
            # on (start time, first replica index) makes the concatenation
            # byte-identical to one pass over the whole trace.
            candidates.sort(key=stream_sort_key)
            scan_stats.candidate_streams = len(candidates)

            config = self.config
            if isinstance(trace, ColumnarTrace) and (
                    config.check_prefix_consistency
                    or config.check_gap_consistency):
                with self.profile.stage("detect.index"):
                    prefix_index = candidate_prefix_index(
                        candidates, trace.chunks, config.prefix_length
                    )
            validation_trace = trace if isinstance(trace, Trace) else Trace()
            validation = validate_streams(
                candidates,
                validation_trace,
                min_stream_size=config.min_stream_size,
                prefix_length=config.prefix_length,
                check_prefix_consistency=config.check_prefix_consistency,
                prefix_index=prefix_index,
            )
            loops = merge_streams(
                validation.valid,
                validation_trace,
                merge_gap=config.merge_gap,
                prefix_length=config.prefix_length,
                check_gap_consistency=config.check_gap_consistency,
                prefix_index=prefix_index,
                candidates=candidates,
            )
        merge_seconds = merge_span.seconds

        stats = ParallelStats(
            jobs=self.jobs,
            shards=self.shards,
            records_total=partition.records_total,
            partition_seconds=partition_seconds,
            detect_seconds=detect_seconds,
            merge_seconds=merge_seconds,
            wall_seconds=time.perf_counter() - started,
            shard_skew=partition.skew,
            fanout_bytes=partition.fanout_bytes,
            shm_bytes=self._last_shm_bytes,
            per_shard=per_shard,
        )
        self.last_stats = stats
        self._emit_trace(stats, started, detect_started, merge_started,
                         merge_seconds, loops)
        return ParallelDetectionResult(
            trace=trace,
            config=config,
            candidate_streams=candidates,
            validation=validation,
            loops=loops,
            scan_stats=scan_stats,
            parallel=stats,
        )

    def _emit_trace(self, stats: ParallelStats, started: float,
                    detect_started: float, merge_started: float,
                    merge_seconds: float, loops) -> None:
        """Phase spans for the run (no-ops on the null tracer).

        Timings were already measured for :class:`ParallelStats`; the
        spans reuse them, so tracing adds no clock reads to the pipeline.
        Shard spans are duration-accurate (worker-measured) and anchored
        at the detect phase start; loop spans are in trace time.
        """
        tracer = self.tracer
        tracer.span("parallel.partition", started,
                    started + stats.partition_seconds, clock="wall",
                    records=stats.records_total, shards=stats.shards)
        detect_span = tracer.span(
            "parallel.detect", detect_started,
            detect_started + stats.detect_seconds, clock="wall",
            jobs=stats.jobs, skew=stats.shard_skew,
        )
        for shard in stats.per_shard:
            tracer.span("parallel.shard", detect_started,
                        detect_started + shard.seconds, parent=detect_span,
                        clock="wall", shard=shard.shard_id,
                        records=shard.records,
                        streams=shard.candidate_streams)
        tracer.span("parallel.merge", merge_started,
                    merge_started + merge_seconds, clock="wall",
                    loops=len(loops))
        for loop in loops:
            tracer.span("loop", loop.start, loop.end,
                        prefix=str(loop.prefix), streams=loop.stream_count)

    def state_snapshot(self) -> dict:
        """JSON-ready view of the engine for the monitoring ``/state``
        endpoint: configuration plus the most recent run's stats."""
        state: dict = {
            "jobs": self.jobs,
            "shards": self.shards,
            "perf": self.profile.snapshot(),
            "last_run": None,
        }
        stats = self.last_stats
        if stats is not None:
            state["last_run"] = {
                "records_total": stats.records_total,
                "wall_seconds": stats.wall_seconds,
                "partition_seconds": stats.partition_seconds,
                "detect_seconds": stats.detect_seconds,
                "merge_seconds": stats.merge_seconds,
                "records_per_sec": stats.records_per_sec,
                "shard_skew": stats.shard_skew,
                "fanout_bytes": stats.fanout_bytes,
                "shm_bytes": stats.shm_bytes,
                "per_shard": [
                    {
                        "shard_id": shard.shard_id,
                        "records": shard.records,
                        "candidate_streams": shard.candidate_streams,
                        "seconds": shard.seconds,
                    }
                    for shard in stats.per_shard
                ],
            }
        return state

    def register_metrics(self, registry) -> None:
        """Publish the most recent run's :class:`ParallelStats` and feed
        subsequent runs' stage spans into ``perf_stage_seconds``."""
        registry.register_collector(self._publish_metrics)
        self.profile.registry = registry

    def _publish_metrics(self, registry) -> None:
        stats = self.last_stats
        if stats is None:
            return
        registry.counter(
            "parallel_records_total", "Records partitioned across shards"
        ).set(stats.records_total)
        registry.gauge(
            "parallel_jobs", "Worker processes of the last run"
        ).set(stats.jobs)
        registry.gauge(
            "parallel_shard_skew",
            "Largest shard relative to the ideal even split",
        ).set(stats.shard_skew)
        registry.gauge(
            "parallel_records_per_sec",
            "End-to-end throughput of the last run",
        ).set(stats.records_per_sec)
        registry.gauge(
            "parallel_fanout_bytes",
            "Nominal worker fan-out payload bytes of the last run",
        ).set(stats.fanout_bytes)
        registry.gauge(
            "parallel_shm_bytes",
            "Fan-out bytes carried by shared memory in the last run",
        ).set(stats.shm_bytes)
        for label, seconds in (
            ("partition", stats.partition_seconds),
            ("detect", stats.detect_seconds),
            ("merge", stats.merge_seconds),
            ("wall", stats.wall_seconds),
        ):
            registry.gauge(
                f"parallel_{label}_seconds",
                f"Wall-clock seconds of the {label} phase (last run)",
            ).set(seconds)

    def _run_shards(
        self, partition: ShardPartition | ColumnarShardPartition
    ) -> list[tuple[int, list[ReplicaStream], ReplicaScanStats, float]]:
        self._last_shm_bytes = 0
        columnar = isinstance(partition, ColumnarShardPartition)
        if columnar:
            if self.shared_memory and self.jobs > 1:
                total_bytes, descriptors = partition.shm_layout(self.config)
                if len(descriptors) > 1:
                    outputs = self._run_shards_shm(
                        partition, total_bytes, descriptors
                    )
                    self._remap_columnar(partition, outputs)
                    return outputs
            payloads = partition.payloads(self.config)
            worker = _detect_shard_columnar
        else:
            payloads = [
                (shard_id, records, self.config)
                for shard_id, records in enumerate(partition.shards)
                if records
            ]
            worker = _detect_shard
        if not payloads:
            return []
        if self.jobs == 1 or len(payloads) == 1:
            outputs = [worker(payload) for payload in payloads]
        else:
            workers = min(self.jobs, len(payloads))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outputs = list(pool.map(worker, payloads))
        if columnar:
            self._remap_columnar(partition, outputs)
        return outputs

    def _run_shards_shm(
        self, partition: ColumnarShardPartition, total_bytes: int,
        descriptors: list[tuple],
    ) -> list[tuple[int, list[ReplicaStream], ReplicaScanStats, float]]:
        """Pool fan-out through one shared segment: write once in the
        parent, ship descriptors, unlink no matter how the pool ends —
        a crashed worker (``BrokenProcessPool``) or a ``Ctrl-C`` must
        not leak a ``/dev/shm`` segment."""
        shm = SharedMemory(create=True, size=total_bytes)
        self.last_shm_name = shm.name
        try:
            with self.profile.stage("parallel.shm_write",
                                    bytes=total_bytes):
                partition.write_shm(shm.buf, descriptors)
            self._last_shm_bytes = partition.fanout_bytes
            payloads = [(shm.name, *descriptor) for descriptor in descriptors]
            workers = min(self.jobs, len(payloads))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_detect_shard_columnar_shm, payloads))
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    @staticmethod
    def _remap_columnar(partition: ColumnarShardPartition, outputs) -> None:
        # Workers chained by local shard position; restore the
        # trace-global record numbers from the kept index column.
        # Only stream members (rare) are touched.
        for shard_id, streams, _, _ in outputs:
            mapping = partition.shard_global_indices(shard_id)
            for stream in streams:
                stream.replicas = [
                    Replica(index=mapping[r.index],
                            timestamp=r.timestamp, ttl=r.ttl)
                    for r in stream.replicas
                ]
