"""BENCHMARK.json agrees with what the benchmark reports."""

import json
from pathlib import Path

import layers
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text("utf-8"))


def test_workloads_are_the_measured_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.MEASURE)
    assert list(workloads.MEASURE) == list(workloads.TRACE) == list(layers.WORKLOADS)


def test_per_layer_metrics_are_the_traced_ones():
    want = [{k: m[k] for k in ("name", "unit", "better")} for m in layers.metrics()]
    assert SPEC["per_layer"] == want


def test_end_to_end_metrics_are_the_measured_ones():
    reported = set(workloads._latency_metrics([0.1, 0.2], 1.0)) | {"setup_s"}
    assert {m["name"] for m in SPEC["end_to_end"]} == reported
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
