"""Matching throughput: the real-time constraint of section 4.6.

"Matching must be done efficiently, since the delay caused by the
matching algorithm directly affects the maximum throughput of the
system."  This benchmark measures events/second for the vectorised
point test as the subscription population grows, plus the full
grid-matcher pipeline.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import bench_stamp
from repro.sim import build_evaluation_scenario
from repro.workload import EvaluationSubscriptionModel

from conftest import print_banner

POPULATIONS = (1000, 5000, 20000)
N_QUERIES = 300

#: where the before/after perf record is written (repo root, committed,
#: so the trajectory of the hot path is tracked across PRs)
BENCH_RECORD = Path(__file__).resolve().parent.parent / "BENCH_matching.json"

#: wall-clock of the same workloads at the pre-batching seed commit
#: (per-event matching, no cost memo, full-matrix argmin agglomeration)
SEED_BASELINE = {
    "evaluate_matcher_s": 0.134,
    "pairwise_fit_m1500_s": 2.36,
}


def _measure(stab, points):
    start = time.perf_counter()
    for point in points:
        stab(point)
    elapsed = time.perf_counter() - start
    return len(points) / elapsed


def test_stabbing_throughput(benchmark):
    scenario = build_evaluation_scenario(modes=1, n_subscriptions=100, seed=0)
    model = EvaluationSubscriptionModel(scenario.topology)
    rng = np.random.default_rng(0)
    events = scenario.sample_events(N_QUERIES, np.random.default_rng(1))
    points = [e.point for e in events]

    def run():
        rows = []
        for k in POPULATIONS:
            subs = model.generate(np.random.default_rng(2), k)
            rows.append(
                {
                    "k": k,
                    "brute": _measure(subs.matching_subscriptions, points),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Matching throughput (events/second) vs subscriptions")
    print(f"{'subs':>7} {'brute':>10}")
    for row in rows:
        print(f"{row['k']:>7} {row['brute']:>10.0f}")

    # the vectorised scan sustains real-time rates at these populations
    for row in rows:
        assert row["brute"] > 500
    assert rows[0]["brute"] > 1000


def test_grid_matcher_throughput(benchmark, eval_ctx):
    """The full Figure 5 pipeline over one event batch: locate cells,
    group lookup, interest check, plan assembly."""
    from repro.clustering import ForgyKMeansClustering
    from repro.matching import GridMatcher

    cells = eval_ctx.cells(2000)
    clustering = ForgyKMeansClustering().fit(cells, 60)
    matcher = GridMatcher(clustering, eval_ctx.scenario.subscriptions)
    points = [e.point for e in eval_ctx.events]

    def run():
        start = time.perf_counter()
        matcher.match_batch(points)
        return len(points) / (time.perf_counter() - start)

    rate = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Grid matcher end-to-end throughput")
    print(f"  {rate:.0f} events/second "
          f"({len(eval_ctx.scenario.subscriptions)} subscriptions, K=60)")
    assert rate > 200


def test_batch_pipeline_record(benchmark):
    """The Figure-7 hot path, before vs after batching.

    Times the batched ``evaluate_matcher`` pipeline (vectorised matching +
    batched plan pricing) and the nearest-neighbour Pairwise Grouping
    against the recorded seed baselines, then writes the numbers to
    ``BENCH_matching.json`` so the perf trajectory survives across PRs.
    """
    from repro.clustering import ForgyKMeansClustering, PairwiseGroupingClustering
    from repro.matching import GridMatcher
    from repro.sim import ExperimentContext

    scenario = build_evaluation_scenario(modes=1, n_subscriptions=1000, seed=0)
    ctx = ExperimentContext(scenario, n_events=300)
    cells = ctx.cells(2000)
    clustering = ForgyKMeansClustering().fit(cells, 60)
    matcher = GridMatcher(clustering, scenario.subscriptions)
    points = [e.point for e in ctx.events]

    def run():
        ctx.reference_costs("dense")  # shared with the seed measurement

        # one-event batches: what serving events one at a time costs
        start = time.perf_counter()
        for point in points:
            matcher.match_batch([point])
        match_loop_s = time.perf_counter() - start

        start = time.perf_counter()
        matcher.match_batch(points)
        match_batch_s = time.perf_counter() - start

        start = time.perf_counter()
        ctx.evaluate_matcher(matcher, "dense")
        eval_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        ctx.evaluate_matcher(matcher, "dense")
        eval_warm_s = time.perf_counter() - start

        # a Figure-9-style threshold sweep over the same clustering
        start = time.perf_counter()
        for threshold in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            sweep_matcher = GridMatcher(
                clustering, scenario.subscriptions, threshold=threshold
            )
            ctx.evaluate_matcher(sweep_matcher, "dense")
        threshold_sweep_s = time.perf_counter() - start

        pair_cells = ctx.cells(1500)
        start = time.perf_counter()
        PairwiseGroupingClustering().fit(pair_cells, 40)
        pairwise_s = time.perf_counter() - start

        return {
            "match_loop_s": match_loop_s,
            "match_batch_s": match_batch_s,
            "evaluate_matcher_cold_s": eval_cold_s,
            "evaluate_matcher_warm_s": eval_warm_s,
            "threshold_sweep_s": threshold_sweep_s,
            "pairwise_fit_m1500_s": pairwise_s,
            "pairwise_m": len(pair_cells),
        }

    current = benchmark.pedantic(run, rounds=1, iterations=1)
    record = {
        "config": {
            "scenario": scenario.name,
            "n_events": ctx.n_events,
            "n_groups": 60,
            "max_cells": 2000,
            "pairwise_max_cells": 1500,
            "pairwise_n_groups": 40,
        },
        "seed": SEED_BASELINE,
        "current": current,
        "speedup": {
            "evaluate_matcher": SEED_BASELINE["evaluate_matcher_s"]
            / current["evaluate_matcher_cold_s"],
            "pairwise_fit": SEED_BASELINE["pairwise_fit_m1500_s"]
            / current["pairwise_fit_m1500_s"],
        },
    }
    record["stamp"] = bench_stamp()
    BENCH_RECORD.write_text(json.dumps(record, indent=2) + "\n")

    print_banner("Batch pipeline vs seed (BENCH_matching.json)")
    print(f"  match loop      {current['match_loop_s'] * 1e3:8.1f} ms")
    print(f"  match batch     {current['match_batch_s'] * 1e3:8.1f} ms")
    print(f"  evaluate cold   {current['evaluate_matcher_cold_s'] * 1e3:8.1f} ms "
          f"(seed {SEED_BASELINE['evaluate_matcher_s'] * 1e3:.1f} ms, "
          f"{record['speedup']['evaluate_matcher']:.1f}x)")
    print(f"  evaluate warm   {current['evaluate_matcher_warm_s'] * 1e3:8.1f} ms")
    print(f"  pairwise m=1500 {current['pairwise_fit_m1500_s'] * 1e3:8.1f} ms "
          f"(seed {SEED_BASELINE['pairwise_fit_m1500_s'] * 1e3:.1f} ms, "
          f"{record['speedup']['pairwise_fit']:.1f}x)")
    print(f"  threshold sweep {current['threshold_sweep_s'] * 1e3:8.1f} ms")

    # conservative guards (the acceptance numbers leave headroom for
    # slower CI machines)
    assert record["speedup"]["evaluate_matcher"] > 3.0
    assert record["speedup"]["pairwise_fit"] > 2.0


#: JSONL trace of the instrumentation-overhead benchmark (uploaded as a
#: CI artifact alongside BENCH_matching.json)
BENCH_TRACE = Path(__file__).resolve().parent.parent / "BENCH_trace.jsonl"


def test_instrumentation_overhead(benchmark, eval_ctx):
    """Tracing must stay near-free on the evaluation hot path.

    Times the warm ``evaluate_matcher`` pipeline (batch matching +
    batched plan pricing) with the tracer disabled and enabled,
    records the ratio into ``BENCH_matching.json`` and writes the JSONL
    trace of the enabled pass to ``BENCH_trace.jsonl``.  Spans sit at
    batch granularity, so the enabled run adds a handful of
    ``perf_counter_ns`` calls per sweep — the ratio guard fails the
    build if instrumentation ever creeps into the per-event loop.
    """
    from repro.clustering import ForgyKMeansClustering
    from repro.matching import GridMatcher
    from repro.obs import (
        RunManifest,
        disable_tracing,
        enable_tracing,
        get_registry,
        get_tracer,
        write_jsonl,
    )

    cells = eval_ctx.cells(2000)
    clustering = ForgyKMeansClustering().fit(cells, 60)
    matcher = GridMatcher(clustering, eval_ctx.scenario.subscriptions)
    reps = 15

    def one_pass():
        start = time.perf_counter()
        eval_ctx.evaluate_matcher(matcher, "dense")
        return time.perf_counter() - start

    def run():
        # interleave the two modes so CPU-frequency / cache drift hits
        # both equally; best-of filters scheduler noise
        eval_ctx.evaluate_matcher(matcher, "dense")  # warm the caches
        disabled_s = enabled_s = float("inf")
        try:
            for _ in range(reps):
                disable_tracing()
                disabled_s = min(disabled_s, one_pass())
                enable_tracing(clear=False)
                enabled_s = min(enabled_s, one_pass())
        finally:
            disable_tracing()
        return disabled_s, enabled_s

    disabled_s, enabled_s = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead_ratio = enabled_s / disabled_s

    manifest = eval_ctx.manifest(argv=["benchmarks", "overhead"])
    manifest.add_phase("evaluate_matcher_disabled", disabled_s, reps=reps)
    manifest.add_phase("evaluate_matcher_enabled", enabled_s, reps=reps)
    n_records = write_jsonl(
        BENCH_TRACE,
        tracer=get_tracer(),
        registry=get_registry(),
        manifest=manifest,
    )

    if BENCH_RECORD.exists():
        record = json.loads(BENCH_RECORD.read_text())
    else:  # pragma: no cover - test-ordering fallback
        record = {}
    record["instrumentation"] = {
        "evaluate_matcher_disabled_s": disabled_s,
        "evaluate_matcher_enabled_s": enabled_s,
        "overhead_ratio": overhead_ratio,
        "best_of": reps,
    }
    record["stamp"] = bench_stamp()
    BENCH_RECORD.write_text(json.dumps(record, indent=2) + "\n")

    print_banner("Instrumentation overhead (warm evaluate_matcher)")
    print(f"  tracing disabled {disabled_s * 1e3:8.2f} ms (best of {reps})")
    print(f"  tracing enabled  {enabled_s * 1e3:8.2f} ms (best of {reps})")
    print(f"  overhead         {100 * (overhead_ratio - 1):+8.2f} %")
    print(f"  trace written    {BENCH_TRACE.name} ({n_records} records)")

    assert overhead_ratio < 1.05, (
        f"enabled tracing costs {100 * (overhead_ratio - 1):.1f}% on the "
        f"eval hot path (budget: 5%)"
    )
