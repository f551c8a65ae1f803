"""Fresh-interpreter probes, launched by :mod:`run` as child processes.

``python3 perfbench/child.py setup INPUT_DIR``
    Becomes ready for the first record of the workload the way a fresh
    ``repro-loops`` process does — import ``repro.cli``, build the
    offline detector, a monitored streaming detector per link, and the
    fleet supervisor, and open every pcap up to its first record — then
    prints one JSON line (``import_s``: seconds spent importing
    ``repro.cli``).  The parent times the launch up to that line.

``python3 perfbench/child.py live INPUT_DIR``
    Runs only the live pass over the workload and prints one JSON line
    with the process's peak RSS and whether the loops matched.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def setup(links: list[dict]) -> dict:
    started = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - started
    from repro.core.detector import LoopDetector
    from repro.core.streaming import StreamingLoopDetector
    from repro.fleet import FleetConfig, build_supervisor
    from repro.net.pcap import iter_pcap_columnar
    from repro.obs.live import LiveMonitor, attach_detector
    from repro.obs.metrics import MetricsRegistry

    LoopDetector()
    for _ in links:
        registry = MetricsRegistry(enabled=True)
        monitor = LiveMonitor(registry=registry)
        streaming = StreamingLoopDetector()
        streaming.register_metrics(registry)
        attach_detector(monitor, streaming)
    build_supervisor(FleetConfig.from_dict({"links": [
        {"id": link["id"], "source": {"kind": "pcap", "path": link["path"]}}
        for link in links
    ]}))
    for link in links:
        next(iter_pcap_columnar(link["path"], chunk_records=1))
    return {"import_s": import_s}


def live(links: list[dict]) -> dict:
    import logging
    import resource

    import passes

    logging.disable(logging.CRITICAL)
    try:
        passes.live_pass(links)
        error = None
    except Exception as exc:  # reported to the parent as a failed pass
        error = f"{type(exc).__name__}: {exc}"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"rss_mib": peak, "error": error}


def main() -> int:
    mode, directory = sys.argv[1], Path(sys.argv[2])
    links = json.loads((directory / "manifest.json").read_text())["links"]
    for link in links:
        link["path"] = str(directory / link["pcap"])
    result = setup(links) if mode == "setup" else live(links)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
