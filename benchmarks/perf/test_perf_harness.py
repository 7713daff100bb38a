"""Smoke test of the benchmark harness at quick sizes (under a minute).

Run explicitly; it is not part of the tier-1 suite::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from layertrace import UNATTRIBUTED, LayerTracer, layer_table  # noqa: E402
from workloads import WORKLOADS, ServiceProbe  # noqa: E402

SPEC = run.load_benchmark()


def test_benchmark_json_within_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert run.NAME_RE.match(name) and len(name) <= 64, name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert len(SPEC["per_layer"]) <= 128


def _single_run(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--quick",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_single_run_prints_every_end_to_end_metric(workload):
    result = _single_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert entry["value"] > 0


def test_traced_form_prints_every_per_layer_metric():
    result = _single_run("serve-steady", 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def _quick_fleet(workers, tracer=None):
    workload = WORKLOADS["fleet-4shard"]
    params = {"config": dict(workload.quick["config"], workers=workers)}
    probe = ServiceProbe()
    probe.install()
    try:
        if tracer is None:
            raw, wall, setup = workload.execute(params, 5, probe)
        else:
            with tracer.run("bench.fleet-4shard", f"test-{workers}"):
                raw, wall, setup = workload.execute(params, 5, probe)
        return workload.summarize(params, raw, wall, setup, probe)
    finally:
        probe.uninstall()


def test_fleet_digest_is_identical_for_one_and_two_workers():
    one = _quick_fleet(1)
    two = _quick_fleet(2)
    assert not one.errors and not two.errors
    assert one.digest == two.digest


def test_layer_rows_sum_to_traced_wall(tmp_path):
    tracer = LayerTracer(tmp_path)
    outcome = _quick_fleet(2, tracer)
    tables = layer_table(tracer.spans, "bench.fleet-4shard")
    main = tables.pop(os.getpid())
    rows = sum(v for k, v in main.items() if k != "_total")
    assert UNATTRIBUTED in main
    assert rows == pytest.approx(outcome.wall_s, rel=0.01)
    # forked workers dumped their spans, and their rows add up too
    assert tables, "no worker spans collected"
    for table in tables.values():
        rows = sum(v for k, v in table.items() if k != "_total")
        assert rows == pytest.approx(table["_total"], rel=1e-6)
    assert not list(tmp_path.glob(".spans-*"))


def _doc(workload, values, failed=0):
    return {
        "runs": [
            {
                "workload": workload, "attempted": 10, "failed": failed,
                "metrics": {"wall_s": {"value": v, "unit": "s"}},
            }
            for v in values
        ]
    }


def test_compare_judges_against_the_bounds():
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    ]}
    base = _doc("w", [1.0, 1.01, 0.99, 1.0])
    verdicts = {
        "unchanged": _doc("w", [1.02, 1.01, 1.03, 1.02]),
        "worse": _doc("w", [1.3, 1.31, 1.29, 1.3]),
        "better": _doc("w", [0.8, 0.81, 0.79, 0.8]),
        "unresolved": _doc("w", [0.7, 1.4, 1.0, 1.2]),
    }
    for expected, doc in verdicts.items():
        row = compare.compare(base, doc, spec)[0]
        assert row[5] == expected
    failed = compare.compare(base, _doc("w", [1.0] * 4, failed=1), spec)
    assert [r[5] for r in failed if r[1] == "failed_frac"] == ["worse"]
