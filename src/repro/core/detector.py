"""The loop detector facade: all three steps behind one call.

    >>> detector = LoopDetector()
    >>> result = detector.detect(trace)
    >>> len(result.loops), result.looped_packet_count

``DetectorConfig`` exposes every knob the paper discusses so ablations
(merge gap, validation on/off, prefix length) are one-liners.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.trace import Trace
from repro.obs.perf import NULL_PROFILE
from repro.obs.tracing import NULL_TRACER
from repro.core.merge import RoutingLoop, merge_streams
from repro.core.replica import (
    KERNEL_TIERS,
    ReplicaScanStats,
    ReplicaStream,
    detect_replicas,
    detect_replicas_with_kernel,
)
from repro.core.streams import (
    PrefixIndex,
    ValidationResult,
    candidate_prefix_index,
    validate_streams,
)


class DetectorError(ValueError):
    """Raised for invalid detector configuration."""


@dataclass(slots=True, frozen=True)
class DetectorConfig:
    """Tunable parameters of the detection pipeline.

    Defaults are the paper's choices: TTL delta >= 2, streams of >= 3
    replicas, /24 validation granularity, 60-second merge gap.
    """

    min_ttl_delta: int = 2
    max_replica_gap: float = 5.0
    min_stream_size: int = 3
    prefix_length: int = 24
    check_prefix_consistency: bool = True
    merge_gap: float = 60.0
    check_gap_consistency: bool = True
    eviction_interval: int = 100_000
    #: Step-1 kernel tier for columnar inputs (:meth:`LoopDetector.
    #: detect_columnar`): ``auto`` resolves to ``vectorized`` when
    #: numpy is available, else ``columnar``.  All tiers are
    #: byte-identical; this knob only picks the implementation.
    #: Materialized-trace entry points (:meth:`LoopDetector.detect`)
    #: always run the reference kernel, and the CLI and ``run_batch``
    #: read a materialized trace exactly when it is ``reference``.
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.min_ttl_delta < 1:
            raise DetectorError("min_ttl_delta must be >= 1")
        if self.kernel not in KERNEL_TIERS:
            raise DetectorError(
                f"kernel must be one of {', '.join(KERNEL_TIERS)}: "
                f"{self.kernel!r}"
            )
        if self.min_stream_size < 2:
            raise DetectorError("min_stream_size must be >= 2")
        if not 8 <= self.prefix_length <= 32:
            raise DetectorError("prefix_length must be in [8, 32]")
        if self.merge_gap < 0:
            raise DetectorError("merge_gap must be non-negative")


@dataclass(slots=True)
class DetectionResult:
    """Everything the pipeline produced for one trace."""

    trace: Trace
    config: DetectorConfig
    candidate_streams: list[ReplicaStream]
    validation: ValidationResult
    loops: list[RoutingLoop]
    scan_stats: ReplicaScanStats

    @property
    def streams(self) -> list[ReplicaStream]:
        """The validated replica streams (Table II's first column)."""
        return self.validation.valid

    @property
    def stream_count(self) -> int:
        return len(self.validation.valid)

    @property
    def loop_count(self) -> int:
        """Detected routing loops (Table II's second column)."""
        return len(self.loops)

    @property
    def looped_packet_count(self) -> int:
        """Unique packets caught in loops (Table I's last column): one per
        validated replica stream, since each stream is one packet."""
        return len(self.validation.valid)

    @property
    def looped_record_count(self) -> int:
        """Trace records that are replicas of validated streams."""
        return sum(stream.size for stream in self.validation.valid)


class LoopDetector:
    """Runs detect → validate → merge over a trace.

    ``tracer`` (default: the shared null tracer) receives one wall-clock
    phase span per pipeline stage — ``detect.replicas``,
    ``detect.validate``, ``detect.merge`` — tagged ``clock="wall"`` so
    they coexist in one trace file with sim-time control-plane records.
    ``profile`` (default: the shared null profile) accumulates the same
    stages as :class:`~repro.obs.perf.PipelineProfile` spans — plus the
    per-tier ``step1.kernel.<tier>`` span and the ``detect.index`` prefix
    index build on the columnar path — for the
    ``/perf`` endpoints and benchmark provenance.  Neither changes
    anything about the result: they wrap the exact same calls.
    """

    def __init__(self, config: DetectorConfig | None = None,
                 tracer=NULL_TRACER, profile=NULL_PROFILE) -> None:
        self.config = config or DetectorConfig()
        self.tracer = tracer
        self.profile = profile

    def detect(self, trace: Trace) -> DetectionResult:
        """Run the full pipeline on ``trace``."""
        config = self.config
        tracer = self.tracer
        profile = self.profile
        scan_stats = ReplicaScanStats()
        with tracer.phase("detect.replicas", clock="wall") as phase, \
                profile.stage("detect.replicas",
                              records=len(trace.records)):
            candidates = detect_replicas(
                trace,
                min_ttl_delta=config.min_ttl_delta,
                max_replica_gap=config.max_replica_gap,
                eviction_interval=config.eviction_interval,
                stats=scan_stats,
            )
            phase.note(records=len(trace.records),
                       candidates=len(candidates))
        needs_index = config.check_prefix_consistency or config.check_gap_consistency
        prefix_index = (
            PrefixIndex(trace, config.prefix_length) if needs_index else None
        )
        with tracer.phase("detect.validate", clock="wall") as phase, \
                profile.stage("detect.validate"):
            validation = validate_streams(
                candidates,
                trace,
                min_stream_size=config.min_stream_size,
                prefix_length=config.prefix_length,
                check_prefix_consistency=config.check_prefix_consistency,
                prefix_index=prefix_index,
            )
            phase.note(valid=len(validation.valid))
        with tracer.phase("detect.merge", clock="wall") as phase, \
                profile.stage("detect.merge"):
            loops = merge_streams(
                validation.valid,
                trace,
                merge_gap=config.merge_gap,
                prefix_length=config.prefix_length,
                check_gap_consistency=config.check_gap_consistency,
                prefix_index=prefix_index,
                candidates=candidates,
            )
            phase.note(loops=len(loops))
        # Loop intervals live in *trace* time (simulation time for
        # simulated traces) — the lifecycle correlator joins them with
        # the control plane's sim-time events.
        for loop in loops:
            tracer.span("loop", loop.start, loop.end,
                        prefix=str(loop.prefix), streams=loop.stream_count)
        return DetectionResult(
            trace=trace,
            config=config,
            candidate_streams=candidates,
            validation=validation,
            loops=loops,
            scan_stats=scan_stats,
        )

    def detect_columnar(self, ctrace) -> DetectionResult:
        """Run the full pipeline over a columnar trace.

        Same three steps, same output as :meth:`detect` on the
        materialized equivalent of ``ctrace`` (the equivalence suite
        asserts this stream for stream), but step 1 runs the batched
        columnar kernel, and the prefix index is built after it, straight
        off the data slabs and only for the candidate streams' prefixes
        (the only ones steps 2 and 3 query).  ``result.trace`` is the
        :class:`~repro.net.columnar.ColumnarTrace` itself, which carries
        the summary surface (record count, duration, bandwidth) the
        reports need.
        """
        config = self.config
        tracer = self.tracer
        profile = self.profile
        scan_stats = ReplicaScanStats()
        with tracer.phase("detect.replicas", clock="wall") as phase, \
                profile.stage("detect.replicas"):
            candidates = detect_replicas_with_kernel(
                ctrace,
                kernel=config.kernel,
                min_ttl_delta=config.min_ttl_delta,
                max_replica_gap=config.max_replica_gap,
                eviction_interval=config.eviction_interval,
                stats=scan_stats,
                profile=profile,
            )
            phase.note(records=scan_stats.records_scanned,
                       candidates=len(candidates))
        prefix_index = None
        if config.check_prefix_consistency or config.check_gap_consistency:
            with profile.stage("detect.index"):
                prefix_index = candidate_prefix_index(
                    candidates, ctrace.chunks, config.prefix_length
                )
        empty = Trace()
        with tracer.phase("detect.validate", clock="wall") as phase, \
                profile.stage("detect.validate"):
            validation = validate_streams(
                candidates,
                empty,
                min_stream_size=config.min_stream_size,
                prefix_length=config.prefix_length,
                check_prefix_consistency=config.check_prefix_consistency,
                prefix_index=prefix_index,
            )
            phase.note(valid=len(validation.valid))
        with tracer.phase("detect.merge", clock="wall") as phase, \
                profile.stage("detect.merge"):
            loops = merge_streams(
                validation.valid,
                empty,
                merge_gap=config.merge_gap,
                prefix_length=config.prefix_length,
                check_gap_consistency=config.check_gap_consistency,
                prefix_index=prefix_index,
                candidates=candidates,
            )
            phase.note(loops=len(loops))
        for loop in loops:
            tracer.span("loop", loop.start, loop.end,
                        prefix=str(loop.prefix), streams=loop.stream_count)
        return DetectionResult(
            trace=ctrace,
            config=config,
            candidate_streams=candidates,
            validation=validation,
            loops=loops,
            scan_stats=scan_stats,
        )
