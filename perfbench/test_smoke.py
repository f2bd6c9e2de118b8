"""Smoke test of the benchmark harness on tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload named in BENCHMARK.json must emit every metric it lists,
with its unit, in both modes; the traced run's self times must account for
the traced wall.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _check_metrics(result, listed):
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in listed}
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float)
    return metrics


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    doc = run.run(workload, seed=1, seconds=0.01, trace=0, sizes=run.TINY)
    metrics = _check_metrics(doc["result"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_wall(workload):
    doc = run.run(workload, seed=1, seconds=0.01, trace=1, sizes=run.TINY)
    metrics = _check_metrics(doc["result"], SPEC["per_layer"])
    overhead = metrics["trace.overhead_s"]["value"]
    spans = doc["spans"]
    harness = sum(own for name, (_, _, own) in spans.items() if name.startswith("bench."))
    layers = sum(own for name, (_, _, own) in spans.items() if not name.startswith("bench."))
    traced_wall = spans["bench.pass"][1]
    assert layers > 0
    # self times partition the pass exactly ...
    assert harness + layers == pytest.approx(traced_wall, rel=1e-9)
    assert traced_wall <= doc["traced_wall_s"]
    # ... and what no layer claims is harness glue plus tracing cost
    assert traced_wall - layers <= abs(overhead) + 0.1 * traced_wall
