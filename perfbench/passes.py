"""The three timed passes — offline, live, fleet — and their checks.

Every pass calls the program only through its public entry points, the
same calls ``repro-loops detect``, ``monitor`` and ``fleet`` make,
returns its elapsed wall time, and raises :class:`Mismatch` when its
output differs from the oracle reference.  Module attributes are looked up at call time, so
the traced run's wrappers (see :mod:`spans`) see every call.
"""

from __future__ import annotations

import asyncio
import gc
import time
from contextlib import nullcontext

import repro.core.detector as detector_mod
import repro.net.pcap as pcap_mod
import repro.obs.live as live_mod
from repro.core.streaming import StreamingLoopDetector
from repro.fleet import FleetConfig, build_supervisor
from repro.obs.live import LiveMonitor
from repro.obs.metrics import MetricsRegistry

from inputs import loop_key


class Mismatch(Exception):
    """A pass produced output that differs from the oracle reference."""


def _check(link: dict, loops, what: str) -> None:
    got = sorted(loop_key(loop) for loop in loops)
    if got != link["loops"]:
        raise Mismatch(f"{what} on {link['id']}: {len(got)} loops, "
                       f"reference has {len(link['loops'])}")


def _root(recorder, name: str):
    return nullcontext() if recorder is None else recorder.span(name)


def offline_pass(links: list[dict], stats: dict | None = None,
                 recorder=None) -> float:
    """pcap → loops for every link, as ``repro-loops detect`` runs it.
    ``recorder`` (a :class:`spans.SpanRecorder`) gets a ``pass.offline``
    root span around exactly the timed region."""
    gc.collect()
    with _root(recorder, "pass.offline"):
        started = time.perf_counter()
        results = []
        for link in links:
            ctrace = pcap_mod.read_pcap_columnar(link["path"])
            results.append(
                detector_mod.LoopDetector().detect_columnar(ctrace))
        elapsed = time.perf_counter() - started
    for link, result in zip(links, results):
        _check(link, result.loops, "offline")
    if stats is not None:
        stats["core.replica.candidate_streams"] = sum(
            len(result.candidate_streams) for result in results)
        stats["core.streams.valid_streams"] = sum(
            result.stream_count for result in results)
        stats["core.merge.loops"] = sum(
            len(result.loops) for result in results)
    return elapsed


def _monitored(registry: MetricsRegistry):
    monitor = LiveMonitor(registry=registry)
    streaming = StreamingLoopDetector()
    streaming.register_metrics(registry)
    live_mod.attach_detector(monitor, streaming)
    return streaming, monitor


def live_pass(links: list[dict], on_chunk=None, recorder=None) -> float:
    """One monitored link per pcap, fed chunk by chunk as ``monitor``
    and every fleet link feed it; ``on_chunk(streaming)`` runs after
    each chunk (the traced run samples detector state there)."""
    built = [_monitored(MetricsRegistry(enabled=True)) for _ in links]
    gc.collect()
    with _root(recorder, "pass.live"):
        started = time.perf_counter()
        outputs = []
        for link, (streaming, monitor) in zip(links, built):
            loops = []
            for chunk in pcap_mod.iter_pcap_columnar(link["path"]):
                loops.extend(live_mod.feed_chunk(streaming, monitor, chunk))
                if on_chunk is not None:
                    on_chunk(streaming)
            loops.extend(streaming.flush())
            monitor.finish()
            outputs.append(loops)
        elapsed = time.perf_counter() - started
    for link, loops in zip(links, outputs):
        _check(link, loops, "live")
    return elapsed


def bare_pass(links: list[dict]) -> float:
    """``process_chunk`` over pre-read chunks with no monitor: the
    denominator of the monitored-versus-bare ratio."""
    traces = [pcap_mod.read_pcap_columnar(link["path"]) for link in links]
    detectors = [StreamingLoopDetector() for _ in links]
    gc.collect()
    started = time.perf_counter()
    outputs = []
    for ctrace, streaming in zip(traces, detectors):
        loops = []
        for chunk in ctrace.chunks:
            loops.extend(streaming.process_chunk(chunk))
        loops.extend(streaming.flush())
        outputs.append(loops)
    elapsed = time.perf_counter() - started
    for link, loops in zip(links, outputs):
        _check(link, loops, "bare streaming")
    return elapsed


def fleet_config(links: list[dict]) -> FleetConfig:
    """One pcap-replay link per input file, every other setting at its
    default (thread backend)."""
    return FleetConfig.from_dict({"links": [
        {"id": link["id"], "source": {"kind": "pcap", "path": link["path"]}}
        for link in links
    ]})


def fleet_pass(links: list[dict], layers: dict | None = None) -> float:
    """``asyncio.run(supervisor.run())`` over the workload's links;
    building the supervisor is not timed.  ``layers`` receives the
    build time, the links' summed ``detect.feed`` and ``source.wait``
    stage times from their ``perf()`` snapshots, and the run time the
    busiest link spent in neither."""
    config = fleet_config(links)
    started = time.perf_counter()
    supervisor = build_supervisor(config)
    built = time.perf_counter()
    gc.collect()
    run_started = time.perf_counter()
    asyncio.run(supervisor.run())
    elapsed = time.perf_counter() - run_started
    rows = {row["id"]: row for row in supervisor.snapshot()["links"]}
    for link in links:
        row = rows[link["id"]]
        if row["crashes_total"] or row["records"] != link["records"] \
                or row["loops"] != len(link["loops"]):
            raise Mismatch(
                f"fleet row {link['id']}: records {row['records']}, "
                f"loops {row['loops']}, crashes {row['crashes_total']}; "
                f"reference {link['records']} records, "
                f"{len(link['loops'])} loops"
            )
        _check(link, supervisor.pipelines[link["id"]].current.loops,
               "fleet")
    if layers is not None:
        stages = [{stage["name"]: stage["seconds"]
                   for stage in pipeline.perf()["stages"]}
                  for pipeline in supervisor.pipelines.values()]
        busiest = max(link.get("detect.feed", 0.0)
                      + link.get("source.wait", 0.0) for link in stages)
        layers.update({
            "fleet.build_s": built - started,
            "fleet.run_s": elapsed,
            "fleet.detect_feed_s": sum(link.get("detect.feed", 0.0)
                                       for link in stages),
            "fleet.source_wait_s": sum(link.get("source.wait", 0.0)
                                       for link in stages),
            # Links feed concurrently on the executor, so summed feed
            # time can exceed the wall time; what no link spent feeding
            # or waiting is the event loop's own share.
            "fleet.loop_overhead_s": elapsed - busiest,
        })
    return elapsed
