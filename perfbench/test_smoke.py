"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced at a small ``--scale``, checks
that every metric ``BENCHMARK.json`` declares is printed with its unit
and that every pass matched the oracle, then corrupts one cached
reference and checks that the passes over it count as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = 0.02


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _run(workload: str, trace: int, scale: float = SCALE) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--scale", str(scale)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["paper-mix", "high-rate",
                                      "loop-storm"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_correct(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == declared
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())
    else:
        metrics = {name: metric["value"]
                   for name, metric in result["metrics"].items()}
        irregular = metrics["net.pcap.irregular_chunk_share"]
        assert (irregular > 0) == (workload == "paper-mix")


def test_wrong_reference_counts_as_failed():
    scale = 0.011  # inputs of its own, removed afterwards
    sys.path.insert(0, str(HERE))
    import inputs

    directory, manifest = inputs.ensure_inputs(ROOT, "loop-storm", 3, scale)
    try:
        loops = manifest["links"][0]["loops"]
        assert loops, "the tiny loop-storm link should have loops"
        loops[0][4] += 1  # one replica more than the oracle found
        for link in manifest["links"]:
            del link["path"]
        (directory / "manifest.json").write_text(json.dumps(manifest))
        result = _run("loop-storm", 0, scale)
        assert result["correct"] is False
        assert result["failed"] >= 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
