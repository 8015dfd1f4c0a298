"""Smoke test of the benchmark harness itself.

One ``run.py --smoke`` (Q3 at 0.1 MB SIMULATED through all four
workloads' code paths, about 25 s) and assertions on what it emitted:
every metric BENCHMARK.json declares, for every workload, and the
three parts-sum-to-the-whole checks.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def report():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, "a smoke operation or check failed"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_the_catalog(declared):
    assert declared == catalog.benchmark_json()


def test_benchmark_json_meets_the_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in declared[key]
    ]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in declared["end_to_end"])}]
    assert len(declared["per_layer"]) <= 128


def test_every_declared_metric_for_every_workload(declared, report):
    assert report["correct"] and report["failed"] == 0
    assert set(report["workloads"]) == {
        w["name"] for w in declared["workloads"]}
    for name, res in report["workloads"].items():
        for m in declared["end_to_end"]:
            assert res["end_to_end"][m["name"]] > 0, (name, m["name"])
        assert set(res["layers"]) == {
            m["name"] for m in declared["per_layer"]}, name


def test_parts_sum_to_the_whole(report):
    for name, res in report["workloads"].items():
        assert res["sums"] == {
            "node_seconds_plus_unattributed_is_wall": True,
            "byte_classes_sum_to_comm_bytes": True,
            "node_bytes_sum_to_comm_bytes": True,
        }, name
        layers = res["layers"]
        comm_bytes = res["end_to_end"]["comm_bytes"]
        assert sum(
            layers[f"mpc.bytes.{c}"] for c, _ in catalog.BYTE_CLASSES
        ) == comm_bytes, name
        assert sum(
            layers[f"exec.node.{k}.bytes"] for k in catalog.NODE_KINDS
        ) == comm_bytes, name


def test_spans_name_their_parent_and_workload(report):
    spans = json.loads((HERE / "out" / "spans.json").read_text())
    ids = {(s["workload"], s["id"]) for s in spans}
    assert {s["workload"] for s in spans} == set(catalog.WORKLOADS)
    for s in spans:
        assert s["end"] >= s["start"]
        assert s["parent"] is None or (s["workload"], s["parent"]) in ids
