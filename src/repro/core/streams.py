"""Step 2 — replica-stream validation.

Two checks (Sec. IV-A.2):

1. **Size** — streams of only two elements are discarded: the link layer
   can inject duplicate packets (token-ring drain failures, misconfigured
   SONET protection), and two observations are not enough evidence of a
   loop.
2. **Prefix consistency** — a routing loop captures *all* traffic to the
   affected destination prefix.  If any packet to the stream's /24 crosses
   the link during the stream's lifetime without itself being part of a
   replica stream, the candidate cannot be a routing loop and is dropped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from repro.net.addr import IPv4Prefix
from repro.net.trace import Trace
from repro.core.replica import ReplicaStream
from repro.core.vectorize import np


@dataclass(slots=True)
class ValidationResult:
    """Outcome of the validation pass."""

    valid: list[ReplicaStream] = field(default_factory=list)
    rejected_too_small: int = 0
    rejected_prefix_conflict: int = 0

    @property
    def rejected(self) -> int:
        return self.rejected_too_small + self.rejected_prefix_conflict


class PrefixIndex:
    """Timestamp index of trace records, bucketed by destination prefix.

    Supports the validation query "did any packet to prefix P cross the
    link in [t0, t1] that is not a replica-stream member?" in
    O(log n + answer) time.  Shared by validation (step 2) and merging
    (step 3), which runs the same query over gap intervals.

    By default every record is indexed.  Steps 2 and 3 only ever query
    the prefixes of candidate streams, so the columnar pipeline passes
    those as ``nets`` (prefix networks shifted right by ``32 -
    prefix_length``, see :func:`candidate_prefix_index`) and only their
    records are kept; querying any other prefix then raises
    ``ValueError`` rather than answering from an empty bucket.
    """

    def __init__(self, trace: Trace | None = None,
                 prefix_length: int = 24,
                 nets: Iterable[int] | None = None) -> None:
        self.prefix_length = prefix_length
        self._shift = 32 - prefix_length
        self._nets = None if nets is None else frozenset(nets)
        # Records arrive time-ordered, so each bucket stays sorted.
        self._by_prefix: dict[int, list[tuple[float, int]]] = {}
        if trace is not None:
            for index, record in enumerate(trace.records):
                self.add_record(index, record.timestamp, record.data)

    def add_record(self, index: int, timestamp: float, data: bytes) -> None:
        """Index one record incrementally (timestamps must be fed in
        non-decreasing order).  Lets the chunked readers build the index
        without ever materializing a full :class:`Trace`."""
        if len(data) < 20:
            return
        net = int.from_bytes(data[16:20], "big") >> self._shift
        if self._nets is not None and net not in self._nets:
            return
        self._by_prefix.setdefault(net, []).append((timestamp, index))

    def add_chunk(self, chunk) -> None:
        """Index a :class:`~repro.net.columnar.ColumnarChunk` in one pass.

        With numpy, the destination column is gathered straight off the
        data slab for every record of at least 20 bytes, filtered to
        ``nets`` with ``np.isin``, and stable-sorted by prefix, so each
        prefix's records extend its bucket in one call, in record order.
        Without numpy, each record goes through :meth:`add_record`.
        Feeding order across chunks must remain time-ordered, as with
        :meth:`add_record`.
        """
        if np is None:
            view = memoryview(chunk.data)
            for i, length in enumerate(chunk.lengths):
                offset = chunk.offsets[i]
                self.add_record(chunk.global_index(i), chunk.timestamps[i],
                                view[offset:offset + length])
            return
        positions = np.flatnonzero(np.asarray(chunk.lengths) >= 20)
        starts = np.asarray(chunk.offsets)[positions].astype(np.int64) + 16
        slab = np.frombuffer(chunk.data, dtype=np.uint8)
        dst = slab[starts[:, None] + np.arange(4)].view(">u4")[:, 0]
        nets = (dst >> self._shift).astype(np.int64)
        if self._nets is not None:
            hits = np.isin(nets, np.fromiter(self._nets, dtype=np.int64,
                                             count=len(self._nets)))
            positions = positions[hits]
            nets = nets[hits]
        if not len(positions):
            return
        order = np.argsort(nets, kind="stable")
        positions = positions[order]
        nets = nets[order]
        timestamps = np.asarray(chunk.timestamps)[positions].tolist()
        indices = (positions + chunk.base_index).tolist()
        bounds = np.flatnonzero(nets[1:] != nets[:-1]) + 1
        by_prefix = self._by_prefix
        lo = 0
        for hi in bounds.tolist() + [len(positions)]:
            by_prefix.setdefault(int(nets[lo]), []).extend(
                zip(timestamps[lo:hi], indices[lo:hi])
            )
            lo = hi

    def _bucket(self, prefix: IPv4Prefix) -> list[tuple[float, int]]:
        if prefix.length != self.prefix_length:
            raise ValueError(
                f"index is /{self.prefix_length}, got /{prefix.length}"
            )
        net = prefix.network >> self._shift
        if self._nets is not None and net not in self._nets:
            raise ValueError(f"{prefix} is not among the indexed prefixes")
        return self._by_prefix.get(net, [])

    def records_in_window(
        self, prefix: IPv4Prefix, start: float, end: float
    ) -> list[int]:
        """Indices of records to ``prefix`` with start <= t <= end."""
        bucket = self._bucket(prefix)
        lo = bisect_left(bucket, (start, -1))
        hi = bisect_right(bucket, (end, 1 << 62))
        return [index for _, index in bucket[lo:hi]]

    def has_non_member(
        self,
        prefix: IPv4Prefix,
        start: float,
        end: float,
        members: set[int],
    ) -> bool:
        """True if the window contains a record outside ``members``."""
        return any(
            index not in members
            for index in self.records_in_window(prefix, start, end)
        )


def candidate_prefix_index(candidates: list[ReplicaStream], chunks,
                           prefix_length: int = 24) -> PrefixIndex:
    """The :class:`PrefixIndex` steps 2 and 3 need for ``candidates``:
    the records of ``chunks`` (a trace's columnar chunks, in order) whose
    destination falls in a candidate stream's prefix, and no others."""
    shift = 32 - prefix_length
    index = PrefixIndex(
        prefix_length=prefix_length,
        nets={stream.dst_prefix(prefix_length).network >> shift
              for stream in candidates},
    )
    if candidates:
        for chunk in chunks:
            index.add_chunk(chunk)
    return index


def validate_streams(
    candidates: list[ReplicaStream],
    trace: Trace,
    min_stream_size: int = 3,
    prefix_length: int = 24,
    check_prefix_consistency: bool = True,
    prefix_index: PrefixIndex | None = None,
) -> ValidationResult:
    """Apply the paper's two validation rules to candidate streams.

    The membership set used for the prefix-consistency check contains every
    replica of every *candidate* stream (including 2-element ones): the
    paper's rule is about packets that show no looping behaviour at all,
    not about streams that merely failed the size cut.
    """
    result = ValidationResult()
    if not candidates:
        return result
    if check_prefix_consistency and prefix_index is None:
        prefix_index = PrefixIndex(trace, prefix_length)

    members: set[int] = set()
    for stream in candidates:
        members.update(stream.member_indices())

    for stream in candidates:
        if stream.size < min_stream_size:
            result.rejected_too_small += 1
            continue
        if check_prefix_consistency:
            assert prefix_index is not None
            prefix = stream.dst_prefix(prefix_length)
            if prefix_index.has_non_member(
                prefix, stream.start, stream.end, members
            ):
                result.rejected_prefix_conflict += 1
                continue
        result.valid.append(stream)
    return result
