"""In-memory spans around calls into the program's public layer entry
points.

:func:`traced` swaps each public name listed in :data:`LAYER_CALLS` for
a wrapper that records one span per call — name, start, end, parent —
and puts the originals back on exit.  Nothing inside ``src/`` is
changed; the wrappers only see calls made through the module or class
attribute, which is how the program and :mod:`passes` reach them.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import repro.core.detector as detector_mod
import repro.net.pcap as pcap_mod
import repro.obs.live as live_mod
from repro.core.streaming import StreamingLoopDetector
from repro.core.streams import PrefixIndex
from repro.obs.live import LiveMonitor

#: (span name, owner, attribute): every layer entry point the traced run
#: wraps.  The detector facade imports its step functions by name, so
#: those are wrapped in ``repro.core.detector``'s namespace.
LAYER_CALLS = (
    ("net.pcap.read_pcap_columnar", pcap_mod, "read_pcap_columnar"),
    ("core.detector.detect_columnar", detector_mod.LoopDetector,
     "detect_columnar"),
    ("core.replica.detect_replicas_with_kernel", detector_mod,
     "detect_replicas_with_kernel"),
    ("core.streams.PrefixIndex.add_chunk", PrefixIndex, "add_chunk"),
    ("core.streams.validate_streams", detector_mod, "validate_streams"),
    ("core.merge.merge_streams", detector_mod, "merge_streams"),
    ("core.streaming.process_chunk", StreamingLoopDetector, "process_chunk"),
    ("core.streaming.flush", StreamingLoopDetector, "flush"),
    ("core.streaming.state_snapshot", StreamingLoopDetector,
     "state_snapshot"),
    ("obs.live.feed_chunk", live_mod, "feed_chunk"),
    ("obs.live.LiveMonitor.sample", LiveMonitor, "sample"),
    ("obs.live.LiveMonitor.finish", LiveMonitor, "finish"),
)

#: Generator entry points: one span per chunk produced.
LAYER_ITERATORS = (
    ("net.pcap.iter_pcap_columnar", pcap_mod, "iter_pcap_columnar"),
)


class SpanRecorder:
    """Spans of one thread, as ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, function):
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    def _wrap_iterator(self, name: str, function):
        span = self.span

        def wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                with span(name):
                    item = next(iterator, StopIteration)
                if item is StopIteration:
                    return
                yield item

        wrapper.__wrapped__ = function
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for index, (name, start, end, parent) in enumerate(self.spans):
                sink.write(json.dumps({"id": index, "name": name,
                                       "start": start, "end": end,
                                       "parent": parent}) + "\n")


@contextmanager
def traced(recorder: SpanRecorder):
    """Record spans around every layer entry point for the duration of
    the block."""
    saved = []
    try:
        for name, owner, attribute in LAYER_CALLS:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder._wrap(name, original))
        for name, owner, attribute in LAYER_ITERATORS:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder._wrap_iterator(name, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def summarize(spans: list[list], root: int) -> dict:
    """Per-name totals, counts and self times of the spans under
    ``root``, plus the share of the root's wall time they cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)
    totals: dict[str, float] = {}
    self_times: dict[str, float] = {}
    counts: dict[str, int] = {}
    stack = list(children.get(root, ()))
    while stack:
        index = stack.pop()
        name, start, end, _ = spans[index]
        kids = children.get(index, ())
        duration = end - start
        inner = sum(spans[k][2] - spans[k][1] for k in kids)
        totals[name] = totals.get(name, 0.0) + duration
        self_times[name] = self_times.get(name, 0.0) + duration - inner
        counts[name] = counts.get(name, 0) + 1
        stack.extend(kids)
    wall = spans[root][2] - spans[root][1]
    covered = sum(self_times.values())
    return {"wall": wall, "covered": covered, "totals": totals,
            "self": self_times, "counts": counts}
