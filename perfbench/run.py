"""Loop-detection benchmark: offline, live and fleet throughput.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Inputs come from the seed (see
:mod:`inputs`, cached in ``.bench_cache/``); every pass is checked
against the oracle reference.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Diagnostics go to stderr.  See ``perfbench/README.md`` for what each
metric measures and why each workload exists.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import logging
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "offline_records_per_s": "1/s",
    "live_records_per_s": "1/s",
    "fleet_records_per_s": "1/s",
    "setup_s": "s",
    "live_peak_rss_mib": "MiB",
}

PER_LAYER = {
    "net.pcap.ingest_s": "s",
    "net.pcap.short_capture_share": "share",
    "net.pcap.irregular_chunk_share": "share",
    "core.replica.step1_s": "s",
    "core.replica.candidate_streams": "count",
    "core.streams.index_s": "s",
    "core.streams.validate_s": "s",
    "core.streams.valid_streams": "count",
    "core.merge.merge_s": "s",
    "core.merge.loops": "count",
    "core.detector.self_s": "s",
    "core.streaming.process_chunk_s": "s",
    "core.streaming.flush_s": "s",
    "core.streaming.bare_records_per_s": "1/s",
    "core.streaming.peak_tracked_prefixes": "count",
    "core.streaming.peak_singletons": "count",
    "core.streaming.peak_open_streams": "count",
    "obs.live.feed_chunk_s": "s",
    "obs.live.monitor_self_s": "s",
    "obs.live.windows": "count",
    "obs.live.sample_s": "s",
    "obs.live.finish_s": "s",
    "fleet.build_s": "s",
    "fleet.run_s": "s",
    "fleet.detect_feed_s": "s",
    "fleet.source_wait_s": "s",
    "fleet.loop_overhead_s": "s",
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    "host.calib_s": "s",
    "trace.coverage_offline": "share",
    "trace.coverage_live": "share",
    "trace.unattributed_offline_s": "s",
    "trace.unattributed_live_s": "s",
    "trace.overhead": "ratio",
}

#: Fresh-interpreter launches of the traced run, for setup.import_s;
#: one more runs first and is discarded (it warms the page cache).
SETUP_LAUNCHES = 7
INTERPRETER_LAUNCHES = 5
CHILD_TIMEOUT = 150.0
#: Every pass runs at least this often, so one slow pass cannot move a
#: median.
MIN_ROUNDS = 3
#: About what :func:`calibrate` takes on the 2-core VM the benchmark
#: was tuned on.  Times are reported in seconds of a host whose
#: calibration takes this long (see :func:`host_seconds`), so rates
#: read close to raw rates there.
CALIB_REFERENCE_S = 0.007
#: How strongly each kind of pass slows with the host, as the power of
#: the calibration its time scales with.  Fitted on 60 ten-seed runs
#: (see README.md, Noise): offline and live passes slow more than the
#: calibration kernels do, the fleet's threads less.  The factor never
#: depends on the program, so a change to the program reads the same
#: at any power.
HOST_ELASTICITY = {"offline": 1.5, "live": 1.5, "fleet": 1.0}
CALIB_REPEATS = 3


@functools.cache
def _calib_table() -> tuple[dict, list]:
    rng = random.Random(0)
    table = {rng.getrandbits(32): i for i in range(300_000)}
    keys = list(table)
    rng.shuffle(keys)
    return table, keys[:15_000]


def _arith_kernel() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return time.perf_counter() - started


def _memory_kernel() -> float:
    table, keys = _calib_table()
    started = time.perf_counter()
    buckets: dict = {}
    for key in keys:
        buckets.setdefault(table[key] & 4095, []).append(key)
    return time.perf_counter() - started


def calibrate() -> float:
    """The host's current speed, independent of the program: the
    geometric mean of the best of three runs each of a pure-Python
    arithmetic loop and of random lookups in a 300,000-entry dict (6 to
    8 ms on the VM the benchmark was tuned on).  Both slow with the
    host, the dict kernel also with contention for memory."""
    arith = min(_arith_kernel() for _ in range(CALIB_REPEATS))
    memory = min(_memory_kernel() for _ in range(CALIB_REPEATS))
    return (arith * memory) ** 0.5


def host_seconds(result: dict, kind: str) -> float:
    """A pass's ``elapsed`` in seconds of the reference host: scaled by
    the mean of the calibrations taken just before and just after it,
    to the power :data:`HOST_ELASTICITY` gives its kind."""
    scale = CALIB_REFERENCE_S / result["calib"]
    return result["elapsed"] * scale ** HOST_ELASTICITY[kind]


class Ledger:
    """Operations attempted and failed; a failed operation's time is
    dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, operation):
        self.attempted += 1
        try:
            return operation()
        except Exception as exc:  # every failure is counted, then reported
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def interleave(ledger: Ledger, seconds: float, passes: dict,
               warmups=None, during_warmup=None) -> tuple[dict, list]:
    """Run each pass named in ``warmups`` (default: all) once and discard
    it, then run rounds of every pass for about ``seconds`` and at least
    :data:`MIN_ROUNDS` times, each pass between two calibrations.  A
    pass returns a dict with at least ``elapsed``, to which ``calib``,
    the mean of those two calibrations, is added; returns the successful
    results per pass and the calibration times.

    ``during_warmup`` (a started :class:`subprocess.Popen`) is a child
    whose timing does not matter — it shares the host only with the
    discarded warm-ups, and is waited for before the first timed pass.
    """
    for name in passes if warmups is None else warmups:
        ledger.attempt(passes[name])
    if during_warmup is not None:
        during_warmup.wait(timeout=CHILD_TIMEOUT)
    results = {name: [] for name in passes}
    calib = [calibrate()]
    rounds = 0
    started = time.perf_counter()
    last_round = 0.0
    # Past the minimum, a round starts only while at least half of it
    # still fits, so the measured time stays near ``seconds``.
    while rounds < MIN_ROUNDS or \
            time.perf_counter() - started + last_round / 2 < seconds:
        round_started = time.perf_counter()
        for name, operation in passes.items():
            result = ledger.attempt(operation)
            calib.append(calibrate())
            if result is not None:
                result["calib"] = (calib[-2] + calib[-1]) / 2
                results[name].append(result)
        rounds += 1
        last_round = time.perf_counter() - round_started
    return results, calib


def median_of(results: list[dict], field: str = "elapsed") -> float:
    values = [result[field] for result in results if field in result]
    return statistics.median(values) if values else 0.0


def _launch_setup(directory: Path) -> dict:
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "setup", str(directory)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT)
    if code != 0 or not line:
        raise RuntimeError(f"setup probe exited {code}")
    return {"elapsed": ready, **json.loads(line)}


def setup_launches(ledger: Ledger, directory: Path) -> list[dict]:
    ledger.attempt(lambda: _launch_setup(directory))
    launches = [ledger.attempt(lambda: _launch_setup(directory))
                for _ in range(SETUP_LAUNCHES)]
    return [launch for launch in launches if launch is not None]


def _start_live_child(directory: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "live", str(directory)],
        stdout=subprocess.PIPE, text=True,
    )


def _live_child_result(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"live child exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if result["error"]:
        raise RuntimeError(f"live child: {result['error']}")
    return result


def _interpreter_launch() -> dict:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   timeout=CHILD_TIMEOUT)
    return {"elapsed": time.perf_counter() - started}


def untraced_run(ledger: Ledger, directory: Path, links: list[dict],
                 seconds: float) -> tuple[dict, dict]:
    import passes

    records = sum(link["records"] for link in links)
    # Offline and live time each link on its own, so each sample is
    # short and close to its calibrations.  The short offline passes
    # and the whole-workload fleet run twice per round, to get as many
    # samples as the rest.  Set-up launches are spread over the rounds
    # too, so a brief slow spell of the host cannot move all of them.
    def offline(link):
        return lambda: {"elapsed": passes.offline_pass([link])}

    def live(link):
        return lambda: {"elapsed": passes.live_pass([link])}

    def setup():
        return _launch_setup(directory)

    def fleet():
        return {"elapsed": passes.fleet_pass(links)}

    runs = {"setup:0": setup}
    runs.update({f"offline:{link['id']}:0": offline(link) for link in links})
    runs["fleet:0"] = fleet
    runs["setup:1"] = setup
    runs.update({f"live:{link['id']}": live(link) for link in links})
    runs.update({f"offline:{link['id']}:1": offline(link) for link in links})
    runs["fleet:1"] = fleet
    # Peak RSS does not depend on timing: the child runs alongside the
    # discarded warm-ups.
    child = _start_live_child(directory)
    try:
        results, calib = interleave(ledger, seconds, runs,
                                    during_warmup=child)
        rss = ledger.attempt(lambda: _live_child_result(child))
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()

    def samples(prefix: str) -> list[dict]:
        return [result for name, runs_of in results.items()
                if name == prefix or name.startswith(prefix + ":")
                for result in runs_of]

    def rate(kind: str, per_link: bool) -> float:
        prefixes = [f"{kind}:{link['id']}" for link in links] \
            if per_link else [kind]
        times = [[host_seconds(result, kind) for result in samples(prefix)]
                 for prefix in prefixes]
        if not all(times):
            return 0.0
        return records / sum(statistics.median(got) for got in times)

    metrics = {
        "offline_records_per_s": rate("offline", per_link=True),
        "live_records_per_s": rate("live", per_link=True),
        "fleet_records_per_s": rate("fleet", per_link=False),
        "setup_s": median_of(samples("setup")),
        "live_peak_rss_mib": rss["rss_mib"] if rss else 0.0,
    }
    detail = {name: len(got) for name, got in results.items()}
    detail["samples"] = {name: [[r["elapsed"], r["calib"]] for r in got]
                         for name, got in results.items()}
    detail["records"] = {link["id"]: link["records"] for link in links}
    detail["host.calib_s"] = statistics.median(calib) if calib else 0.0
    return metrics, detail


def _rate(records: int, results: list[dict]) -> float:
    elapsed = median_of(results)
    return records / elapsed if elapsed else 0.0


def _input_shares(links: list[dict]) -> dict:
    import repro.net.pcap as pcap_mod

    records = short = chunks = irregular = 0
    for link in links:
        for chunk in pcap_mod.iter_pcap_columnar(link["path"]):
            records += len(chunk)
            short += sum(1 for length in chunk.lengths if length < 40)
            chunks += 1
            irregular += chunk.stride is None
    return {
        "net.pcap.short_capture_share": short / records if records else 0.0,
        "net.pcap.irregular_chunk_share":
            irregular / chunks if chunks else 0.0,
    }


def traced_run(ledger: Ledger, directory: Path, links: list[dict],
               seconds: float) -> tuple[dict, dict]:
    import passes
    from spans import SpanRecorder, summarize, traced

    recorder = SpanRecorder()
    counts: dict = {}
    peaks = {"tracked_prefixes": 0, "singletons": 0, "open_streams": 0}

    def on_chunk(streaming) -> None:
        state = streaming.state_snapshot()
        peaks["tracked_prefixes"] = max(peaks["tracked_prefixes"],
                                        state["tracked_prefixes"])
        peaks["singletons"] = max(peaks["singletons"], state["singletons"])
        peaks["open_streams"] = max(peaks["open_streams"],
                                    len(state["open_streams"]))

    def traced_pass(run) -> dict:
        root = len(recorder.spans)
        with traced(recorder):
            elapsed = run()
        summary = summarize(recorder.spans, root)
        return {"elapsed": elapsed, **summary}

    def fleet() -> dict:
        layers: dict = {}
        elapsed = passes.fleet_pass(links, layers)
        return {"elapsed": elapsed, **layers}

    records = sum(link["records"] for link in links)
    launches = setup_launches(ledger, directory)
    interpreter = [ledger.attempt(_interpreter_launch)
                   for _ in range(INTERPRETER_LAUNCHES)]
    results, calib = interleave(ledger, seconds, {
        "offline": lambda: {"elapsed": passes.offline_pass(links)},
        "offline.traced": lambda: traced_pass(
            lambda: passes.offline_pass(links, counts, recorder)),
        "live": lambda: {"elapsed": passes.live_pass(links)},
        "live.traced": lambda: traced_pass(
            lambda: passes.live_pass(links, on_chunk, recorder)),
        "bare": lambda: {"elapsed": passes.bare_pass(links)},
        "fleet": fleet,
    }, warmups=("offline", "live", "fleet"))
    offline, live = results["offline.traced"], results["live.traced"]

    def layer(runs: list[dict], name: str, of: str = "totals") -> float:
        values = [run[of].get(name, 0) for run in runs]
        return statistics.median(values) if values else 0.0

    def unattributed(runs: list[dict]) -> float:
        values = [run["wall"] - run["covered"] for run in runs]
        return statistics.median(values) if values else 0.0

    def coverage(runs: list[dict]) -> float:
        values = [run["covered"] / run["wall"] for run in runs if run["wall"]]
        return statistics.median(values) if values else 0.0

    feed = layer(live, "obs.live.feed_chunk")
    untraced = median_of(results["offline"]) + median_of(results["live"])
    metrics = {
        "net.pcap.ingest_s": layer(offline, "net.pcap.read_pcap_columnar"),
        **_input_shares(links),
        "core.replica.step1_s":
            layer(offline, "core.replica.detect_replicas_with_kernel"),
        "core.replica.candidate_streams":
            counts.get("core.replica.candidate_streams", 0),
        "core.streams.index_s":
            layer(offline, "core.streams.PrefixIndex.add_chunk"),
        "core.streams.validate_s":
            layer(offline, "core.streams.validate_streams"),
        "core.streams.valid_streams":
            counts.get("core.streams.valid_streams", 0),
        "core.merge.merge_s": layer(offline, "core.merge.merge_streams"),
        "core.merge.loops": counts.get("core.merge.loops", 0),
        "core.detector.self_s":
            layer(offline, "core.detector.detect_columnar", "self"),
        "core.streaming.process_chunk_s":
            layer(live, "core.streaming.process_chunk"),
        "core.streaming.flush_s": layer(live, "core.streaming.flush"),
        "core.streaming.bare_records_per_s": _rate(records, results["bare"]),
        "core.streaming.peak_tracked_prefixes": peaks["tracked_prefixes"],
        "core.streaming.peak_singletons": peaks["singletons"],
        "core.streaming.peak_open_streams": peaks["open_streams"],
        "obs.live.feed_chunk_s": feed,
        "obs.live.monitor_self_s":
            feed - layer(live, "core.streaming.process_chunk"),
        "obs.live.windows":
            layer(live, "obs.live.LiveMonitor.sample", "counts"),
        "obs.live.sample_s": layer(live, "obs.live.LiveMonitor.sample"),
        "obs.live.finish_s": layer(live, "obs.live.LiveMonitor.finish"),
        "fleet.build_s": median_of(results["fleet"], "fleet.build_s"),
        "fleet.run_s": median_of(results["fleet"], "fleet.run_s"),
        "fleet.detect_feed_s":
            median_of(results["fleet"], "fleet.detect_feed_s"),
        "fleet.source_wait_s":
            median_of(results["fleet"], "fleet.source_wait_s"),
        "fleet.loop_overhead_s":
            median_of(results["fleet"], "fleet.loop_overhead_s"),
        "setup.interpreter_s":
            median_of([t for t in interpreter if t is not None]),
        "setup.import_s": median_of(launches, "import_s"),
        "host.calib_s": statistics.median(calib) if calib else 0.0,
        "trace.coverage_offline": coverage(offline),
        "trace.coverage_live": coverage(live),
        "trace.unattributed_offline_s": unattributed(offline),
        "trace.unattributed_live_s": unattributed(live),
        "trace.overhead": (median_of(offline) + median_of(live)) / untraced
        if untraced else 0.0,
    }
    spans_dir = ROOT / ".bench_cache" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(spans_dir / f"{directory.name}.jsonl")
    detail = {name: len(runs) for name, runs in results.items()}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (tests use small values)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Setup launches import from bytecode, as an installed package does.
    compileall.compile_dir(str(SRC), quiet=1)
    directory, manifest = inputs.ensure_inputs(
        ROOT, args.workload, args.seed, args.scale)
    # Alert notices are logged per window; they are not what is timed.
    logging.disable(logging.CRITICAL)
    ledger = Ledger()
    run = traced_run if args.trace else untraced_run
    metrics, detail = run(ledger, directory, manifest["links"], args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"passes": detail, "errors": ledger.errors[:5]}),
          file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
