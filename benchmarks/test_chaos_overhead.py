"""Instrumentation overhead on the fault-injection path.

The chaos replay exercises every layer the tracer hooks into — routing
invalidation, debounced rebuilds, degraded delivery — so it is where instrumentation creep would hurt first.  The
guard replays the same seeded schedule with tracing disabled and
enabled, fails the build if the enabled run costs more than the budget,
and writes the degradation report of the traced pass to
``CHAOS_report.jsonl`` (uploaded as a CI artifact).
"""

import time
from pathlib import Path

from repro.broker import BrokerConfig
from repro.faults import ChaosRunner, FaultSchedule
from repro.network import TransitStubParams
from repro.obs import (
    RunManifest,
    disable_tracing,
    enable_tracing,
    get_registry,
    get_tracer,
)
from repro.sim import build_evaluation_scenario

from conftest import print_banner

CHAOS_REPORT = Path(__file__).resolve().parent.parent / "CHAOS_report.jsonl"

PARAMS = TransitStubParams(
    n_transit_blocks=3,
    transit_nodes_per_block=2,
    stubs_per_transit=1,
    nodes_per_stub=4,
)
CONFIG = BrokerConfig(
    n_groups=8,
    max_cells=200,
    rebalance_after=10**9,
    rebuild_debounce=2.0,
    rebuild_backoff_base=1.0,
)


def _make_runner(scenario):
    schedule = FaultSchedule.generate(
        scenario.topology,
        horizon=40.0,
        seed=5,
        node_fraction=0.1,
        n_link_faults=2,
        n_churn=2,
        n_subscribers=40,
    )
    return ChaosRunner(
        scenario, schedule, config=CONFIG, n_events=30, seed=5
    )


def test_chaos_instrumentation_overhead(benchmark):
    # balanced schedules hand the topology back pristine, so one
    # scenario serves every pass; the runner itself is single-shot
    scenario = build_evaluation_scenario(
        modes=1, n_subscriptions=40, params=PARAMS, seed=7
    )
    reps = 7

    def one_pass():
        start = time.perf_counter()
        report = _make_runner(scenario).run()
        return time.perf_counter() - start, report

    def run():
        _make_runner(scenario).run()  # warm every lazy routing table
        disabled_s = enabled_s = float("inf")
        report = None
        try:
            for _ in range(reps):
                disable_tracing()
                elapsed, _ = one_pass()
                disabled_s = min(disabled_s, elapsed)
                enable_tracing(clear=True)
                elapsed, report = one_pass()
                enabled_s = min(enabled_s, elapsed)
        finally:
            disable_tracing()
        return disabled_s, enabled_s, report

    disabled_s, enabled_s, report = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    overhead_ratio = enabled_s / disabled_s

    manifest = RunManifest.capture(
        argv=["benchmarks", "chaos-overhead"],
        scenario=scenario.name,
        reps=reps,
        overhead_ratio=overhead_ratio,
    )
    n_records = report.write_jsonl(CHAOS_REPORT, manifest=manifest)

    print_banner("Chaos-path instrumentation overhead")
    print(f"  tracing disabled {disabled_s * 1e3:8.2f} ms (best of {reps})")
    print(f"  tracing enabled  {enabled_s * 1e3:8.2f} ms (best of {reps})")
    print(f"  overhead         {100 * (overhead_ratio - 1):+8.2f} %")
    print(f"  availability     {100 * report.availability:8.2f} %")
    print(f"  report written   {CHAOS_REPORT.name} ({n_records} records)")

    # the degraded run still satisfies the delivery contract
    assert report.silently_lost == 0
    assert report.n_degraded > 0  # the schedule really degraded delivery
    # spans sit at rebuild/run granularity, so tracing must stay
    # near-free even while faults are active
    assert overhead_ratio < 1.10, (
        f"enabled tracing costs {100 * (overhead_ratio - 1):.1f}% on the "
        f"chaos path (budget: 10%)"
    )
