"""Rendezvous-tree delivery vs dense-mode SPT at equal K.

The structured-overlay backend must stay competitive with the paper's
network-supported multicast: with cluster subgrouping enabled, pricing
the same Forgy clustering's delivery plans over Scribe-style rendezvous
trees may cost **at most 1.5x** the dense shortest-path-tree backend —
root affinity plus proximity-anycast grafting is what keeps the trees
near Steiner quality (see docs/overlay_multicast.md).

Overlay routing is deterministic: a freshly built delivery layer must
reprice every group to the exact same float.  The run's record goes to
``BENCH_overlay.json`` (uploaded as a CI artifact).
"""

import json
from pathlib import Path

import numpy as np

from repro.clustering import ForgyKMeansClustering
from repro.dht import overlay_for
from repro.dht.scribe import RendezvousDelivery
from repro.matching import GridMatcher
from repro.obs import bench_stamp

from conftest import print_banner

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_overlay.json"

K = 40  # equal multicast-group budget on both backends
N_EVENTS = 100
CELL_BUDGET = 6000
COST_RATIO_BUDGET = 1.5


def test_overlay_within_budget_of_dense_at_equal_k(benchmark, eval_ctx):
    scenario = eval_ctx.scenario
    events = eval_ctx.events[:N_EVENTS]

    def run():
        cells = eval_ctx.cells(CELL_BUDGET)
        clustering = ForgyKMeansClustering().fit(cells, K)
        matcher = GridMatcher(clustering, scenario.subscriptions)
        dense = eval_ctx.dispatcher("dense")
        overlay = eval_ctx.dispatcher("overlay")
        plans = matcher.match_batch([event.point for event in events])
        publishers = [event.publisher for event in events]
        dense_total = float(dense.plan_costs(publishers, plans)[0].sum())
        overlay_total = float(overlay.plan_costs(publishers, plans)[0].sum())
        unicast_total = sum(
            dense.unicast_reference(event.publisher, plan.interested)
            for event, plan in zip(events, plans)
        )
        # determinism: a fresh delivery layer (no shared tree cache)
        # must reprice every group to the same float
        fresh = RendezvousDelivery(scenario.routing)
        replayed = 0
        for event, plan in zip(events[:25], plans[:25]):
            for members in plan.group_members:
                nodes = scenario.subscriptions.nodes_of_subscribers(members)
                if nodes.size == 0:
                    continue
                shared = overlay.group_cost(event.publisher, nodes)
                rebuilt = fresh.group_cost(event.publisher, nodes)
                assert rebuilt == shared
                replayed += 1
        trees = list(overlay_for(scenario.routing)._trees.values())
        return {
            "dense": dense_total / len(events),
            "overlay": overlay_total / len(events),
            "unicast": unicast_total / len(events),
            "replayed": replayed,
            "max_subgroups": max(t.n_subgroups for t in trees),
            "n_trees": len(trees),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = results["overlay"] / results["dense"]

    print_banner(f"rendezvous trees vs dense SPT at equal K={K}")
    print(f"  unicast reference:  {results['unicast']:9.1f} per event")
    print(f"  dense SPT:          {results['dense']:9.1f}")
    print(f"  overlay trees:      {results['overlay']:9.1f}")
    print(f"  ratio:              {ratio:9.3f}  (budget {COST_RATIO_BUDGET})")
    print(
        f"  trees built: {results['n_trees']}, "
        f"max subgroups: {results['max_subgroups']}, "
        f"determinism replays: {results['replayed']}"
    )

    # the tentpole gate: overlay delivery within 1.5x of dense SPT
    assert ratio <= COST_RATIO_BUDGET, (
        f"overlay delivery is {ratio:.3f}x dense SPT at K={K} "
        f"(budget: {COST_RATIO_BUDGET}x)"
    )
    # both backends must still beat naive unicast
    assert results["overlay"] < results["unicast"]
    # subgrouping was actually exercised
    assert results["max_subgroups"] > 1
    assert results["replayed"] > 0

    record = {
        "benchmark": "overlay_multicast",
        "k": K,
        "n_events": N_EVENTS,
        "dense_cost": results["dense"],
        "overlay_cost": results["overlay"],
        "unicast_cost": results["unicast"],
        "ratio": ratio,
        "ratio_budget": COST_RATIO_BUDGET,
        "subgrouping": True,
        "max_subgroups": results["max_subgroups"],
        "n_trees": results["n_trees"],
        "stamp": bench_stamp(),
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    parsed = json.loads(BENCH_PATH.read_text())
    assert parsed["benchmark"] == "overlay_multicast"
    assert set(parsed["stamp"]) == {"git_sha", "created", "kernel_backend"}
    print(f"bench record written to {BENCH_PATH}")
