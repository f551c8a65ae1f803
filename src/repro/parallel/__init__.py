"""Many traces at once.

One trace is detected by one process: the paper's detector is a single
time-ordered scan, and splitting it over processes measured slower than
one process at every width tried (PERFORMANCE.md, "Sharded engine:
removed").  What does parallelize is whole traces —
:mod:`repro.parallel.batch` runs each target (a pcap or a Table I
scenario) in its own worker process and aggregates the per-trace
counters into one report.
"""

from repro.parallel.batch import BatchItemResult, BatchResult, run_batch

__all__ = [
    "BatchItemResult",
    "BatchResult",
    "run_batch",
]
