"""Seeded benchmark inputs and their oracle references.

Each workload is a list of links; each link is one pcap file written
from the seed plus the loops the plain-Python oracle
(``LoopDetector().detect`` over the file as read back by ``read_pcap``)
finds in it.  Both are cached per ``(workload, seed, scale)`` under the
checkout's ``.bench_cache/`` directory, so simulation and the oracle run
once per seed and never inside a timed region.  Each link is generated
in its own ``python3 inputs.py SPEC DIR`` process: the simulator's
per-packet objects never enter the measuring process's heap.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-mix", "high-rate", "loop-storm")

#: Bump when generated inputs change, so stale caches are not reused.
INPUT_VERSION = 10

#: Paper-mix: each Table I scenario is simulated for this many seconds,
#: and at most this many of its first records are kept: Backbone 2's
#: configured 300 s are 110,000 records, too long a sample to repeat
#: often in one run...
PAPER_SIM_SECONDS = 150.0
PAPER_BASE_RECORDS = 25_000
#: ...and each link replays that capture, rotated to a seeded start, as
#: many whole times as it takes to reach this many records — every seed
#: replays the same records.
PAPER_LINK_RECORDS = 15_000
#: Trace seconds between replayed copies: more than the 60 s merge gap
#: plus the 5 s chaining gap, so copies never chain or merge.
PAPER_COPY_GAP = 120.0

#: High-rate: records and trace seconds per link, background /24s,
#: planted loops.
HIGH_RATE_RECORDS = 80_000
HIGH_RATE_SECONDS = 10.0
HIGH_RATE_PREFIXES = 50_000
HIGH_RATE_LOOPS = 36

#: Loop-storm: background records, trace seconds, prefixes carrying
#: background, the subset that also carries loops, planted loops.
STORM_BACKGROUND = 40_000
STORM_SECONDS = 60.0
STORM_PREFIXES = 3_000
STORM_LOOP_PREFIXES = 300
STORM_LOOPS = 128

PAPER_SCENARIOS = ("backbone1", "backbone2", "backbone3", "backbone4")


def link_specs(cache: Path, workload: str, seed: int,
               scale: float) -> list[dict]:
    """The links of ``workload``: id, generator kind, and parameters."""
    if workload == "paper-mix":
        captures = cache / f"v{INPUT_VERSION}-table1-scale{scale:g}"
        return [{"id": name, "kind": "scenario", "scenario": name,
                 "capture": str(captures / f"{name}.pcap"),
                 "seed": seed * 10 + i, "scale": scale}
                for i, name in enumerate(PAPER_SCENARIOS)]
    if workload == "high-rate":
        return [{"id": f"oc12-{i}", "kind": "high-rate",
                 "seed": seed * 10 + i, "scale": scale} for i in range(2)]
    if workload == "loop-storm":
        return [{"id": f"storm-{i}", "kind": "loop-storm",
                 "seed": seed * 10 + i, "scale": scale} for i in range(2)]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choices: {', '.join(WORKLOADS)}")


def _prefix(a: int, b: int, c: int):
    from repro.net.addr import IPv4Prefix

    return IPv4Prefix((a << 24) | (b << 16) | (c << 8), 24)


def _scenario_capture(spec: dict) -> list:
    """The monitored link's capture of one Table I scenario, simulated
    for :data:`PAPER_SIM_SECONDS` with the scenario's own configuration
    (seed included) once per cache and shared by every benchmark seed.

    A different scenario seed draws a different topology, and the
    monitored link's load then varies 27-fold between seeds (1.5k to 40k
    records per simulated minute on Backbone 2) — the benchmark would
    measure that lottery instead of the program."""
    from repro.net.pcap import read_pcap, write_pcap
    from repro.sim.scenarios import TABLE1_SCENARIOS, table1_scenario

    path = Path(spec["capture"])
    if not path.exists():
        name = spec["scenario"]
        duration = min(TABLE1_SCENARIOS[name].duration, PAPER_SIM_SECONDS)
        if spec["scale"] < 1:
            duration = max(10.0, duration * spec["scale"])
        trace = table1_scenario(name, duration=duration).run().trace
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.with_name(f"{path.name}.tmp{os.getpid()}")
        write_pcap(trace, staging)
        os.replace(staging, path)
    return read_pcap(path).records


def _scenario_trace(spec: dict):
    """A Table I scenario's capture, rotated to a seeded start and
    replayed back to back in whole copies up to the link's record
    count."""
    from repro.net.trace import Trace, TraceRecord

    base = _scenario_capture(spec)[:PAPER_BASE_RECORDS]
    start = random.Random(spec["seed"]).randrange(len(base))
    copies = -(-int(PAPER_LINK_RECORDS * spec["scale"]) // len(base))
    period = float(int(base[-1].timestamp)) + PAPER_COPY_GAP
    trace = Trace(link_name=spec["id"])
    for index in range(start, start + copies * len(base)):
        copy, position = divmod(index, len(base))
        record = base[position]
        trace.append(TraceRecord(record.timestamp + copy * period,
                                 record.data, record.wire_length))
    return trace


def _high_rate_trace(spec: dict):
    """Background 40-byte traffic over tens of thousands of /24s at an
    OC-12-class record rate, plus a few dozen planted loops."""
    from repro.traffic.synthetic import SyntheticTraceBuilder

    rng = random.Random(spec["seed"])
    scale = spec["scale"]
    builder = SyntheticTraceBuilder(rng=rng)
    n_prefixes = max(100, int(HIGH_RATE_PREFIXES * scale))
    prefixes = [_prefix(10, (i >> 8) & 0xFF, i & 0xFF)
                for i in range(n_prefixes)]
    n_loops = max(2, int(HIGH_RATE_LOOPS * min(1.0, scale * 10)))
    seconds = HIGH_RATE_SECONDS
    for i in range(n_loops):
        builder.add_loop(
            start=seconds * (i + rng.random()) / (n_loops + 1),
            prefix=_prefix(192, 168, i),
            n_packets=rng.randint(3, 6),
            replicas_per_packet=rng.randint(4, 10),
            spacing=0.01,
            packet_gap=0.012,
            entry_ttl=40,
        )
    looped = sum(len(stream) for loop in builder.loops
                 for stream in loop.streams)
    total = max(1_000, int(HIGH_RATE_RECORDS * scale))
    builder.add_background(total - looped, 0.0, seconds, prefixes=prefixes)
    return builder.build(link_name=spec["id"])


def _loop_storm_trace(spec: dict):
    """Hundreds of overlapping loops on a few thousand busy /24s, about a
    quarter of all records replicas."""
    from repro.traffic.synthetic import SyntheticTraceBuilder

    rng = random.Random(spec["seed"])
    scale = spec["scale"]
    builder = SyntheticTraceBuilder(rng=rng)
    seconds = STORM_SECONDS
    n_prefixes = max(20, int(STORM_PREFIXES * scale))
    prefixes = [_prefix(172, 16 + (i >> 8), i & 0xFF)
                for i in range(n_prefixes)]
    loop_prefixes = prefixes[:max(10, int(STORM_LOOP_PREFIXES * scale))]
    for _ in range(max(10, int(STORM_LOOPS * scale))):
        delta = 2 if rng.random() < 0.8 else 3
        builder.add_loop(
            start=rng.uniform(0.0, seconds - 5.0),
            prefix=rng.choice(loop_prefixes),
            ttl_delta=delta,
            n_packets=rng.randint(3, 7),
            spacing=rng.uniform(0.002, 0.01),
            packet_gap=rng.uniform(0.05, 0.5),
            entry_ttl=rng.randint(30, 60),
        )
    builder.add_background(max(1_000, int(STORM_BACKGROUND * scale)),
                           0.0, seconds, prefixes=prefixes)
    return builder.build(link_name=spec["id"])


_BUILDERS = {
    "scenario": _scenario_trace,
    "high-rate": _high_rate_trace,
    "loop-storm": _loop_storm_trace,
}


def loop_key(loop) -> list:
    """A loop as the comparison key every pass is checked with: prefix,
    start and end rounded to the microsecond, stream and replica
    counts."""
    return [str(loop.prefix), round(loop.start, 6), round(loop.end, 6),
            loop.stream_count, loop.replica_count]


def _generate_link(spec: dict, directory: str) -> dict:
    """Write one link's pcap and compute its oracle reference (runs in
    its own process)."""
    from repro.core.detector import LoopDetector
    from repro.net.pcap import read_pcap, write_pcap

    path = Path(directory) / f"{spec['id']}.pcap"
    write_pcap(_BUILDERS[spec["kind"]](spec), path)
    result = LoopDetector().detect(read_pcap(path))
    return {
        "id": spec["id"],
        "pcap": path.name,
        "records": len(result.trace.records),
        "loops": sorted(loop_key(loop) for loop in result.loops),
    }


def _run_generators(specs: list[dict], directory: Path,
                    workers: int) -> list[dict]:
    """Generate every link in fresh ``python3 inputs.py`` processes, at
    most ``workers`` at a time; returns their manifest rows in order."""
    pending = list(enumerate(specs))
    running: list[tuple[int, subprocess.Popen]] = []
    rows: dict[int, dict] = {}
    try:
        while pending or running:
            while pending and len(running) < workers:
                index, spec = pending.pop(0)
                running.append((index, subprocess.Popen(
                    [sys.executable, __file__, json.dumps(spec),
                     str(directory)],
                    stdout=subprocess.PIPE, text=True,
                )))
            index, proc = running.pop(0)
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(
                    f"generating {specs[index]['id']} failed "
                    f"(exit {proc.returncode})"
                )
            rows[index] = json.loads(out.strip().splitlines()[-1])
    finally:
        for _, proc in running:
            proc.kill()
            proc.wait()
    return [rows[index] for index in range(len(specs))]


def ensure_inputs(root: Path, workload: str, seed: int,
                  scale: float = 1.0, workers: int = 2) -> tuple[Path, dict]:
    """Generate (or find in the cache) the workload's pcaps and oracle
    reference; returns the cache directory and its manifest."""
    cache = root / ".bench_cache"
    specs = link_specs(cache, workload, seed, scale)
    name = f"v{INPUT_VERSION}-{workload}-seed{seed}-scale{scale:g}"
    directory = cache / name
    if not (directory / "manifest.json").exists():
        cache.mkdir(exist_ok=True)
        staging = cache / f"{name}.tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        try:
            links = _run_generators(specs, staging, workers)
            (staging / "manifest.json").write_text(json.dumps(
                {"workload": workload, "seed": seed, "scale": scale,
                 "links": links}))
            shutil.rmtree(directory, ignore_errors=True)
            os.replace(staging, directory)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    manifest = json.loads((directory / "manifest.json").read_text())
    for link in manifest["links"]:
        link["path"] = str(directory / link["pcap"])
    return directory, manifest


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(_generate_link(json.loads(sys.argv[1]), sys.argv[2])))
