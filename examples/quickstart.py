"""Quickstart: build a pub-sub system, cluster subscriptions, match events.

Walks the full pipeline on a small instance:

1. generate a transit-stub network (the GT-ITM model of the paper),
2. generate stock-market subscriptions and a publication model,
3. run the grid-based preprocessing (membership vectors, hyper-cells),
4. cluster the hyper-cells into multicast groups with Forgy K-means,
5. match a few published events and price their delivery plans against
   unicast, broadcast and the per-event ideal multicast.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.clustering import ForgyKMeansClustering
from repro.delivery import Dispatcher
from repro.grid import build_cell_set
from repro.matching import GridMatcher
from repro.network import RoutingTables, TransitStubGenerator, TransitStubParams
from repro.workload import (
    EvaluationSubscriptionModel,
    MixturePublicationModel,
    single_mode_mixture,
)


def main():
    rng = np.random.default_rng(7)

    # 1. network: 3 transit blocks, ~120 nodes
    params = TransitStubParams(
        n_transit_blocks=3,
        transit_nodes_per_block=3,
        stubs_per_transit=2,
        nodes_per_stub=6,
    )
    topology = TransitStubGenerator(params, rng).generate()
    routing = RoutingTables(topology.graph)
    print(f"network: {topology.n_nodes} nodes, {topology.n_stubs} stubs, "
          f"{topology.graph.n_edges} edges")

    # 2. workload: 300 stock subscriptions + 1-mode gaussian publications
    subscriptions = EvaluationSubscriptionModel(topology).generate(rng, 300)
    publications = MixturePublicationModel(
        topology, single_mode_mixture(), space=subscriptions.space
    )
    print(f"subscriptions: {len(subscriptions)} over "
          f"{len(set(int(n) for n in subscriptions.subscriber_nodes))} nodes")

    # 3. grid preprocessing: membership vectors -> hyper-cells
    cells = build_cell_set(
        subscriptions.space, subscriptions, publications.cell_pmf(),
        max_cells=800,
    )
    print(f"hyper-cells: {len(cells)} "
          f"(grid has {subscriptions.space.n_cells} cells)")

    # 4. clustering: 30 multicast groups with Forgy K-means
    algorithm = ForgyKMeansClustering()
    clustering = algorithm.fit(cells, n_groups=30)
    sizes = clustering.group_sizes()
    print(f"groups: {clustering.n_groups} "
          f"(subscriber counts: min={sizes.min()}, max={sizes.max()}), "
          f"converged in {algorithm.n_iterations_} iterations, "
          f"expected waste {clustering.total_expected_waste():.4f}")

    # 5. match events and price the plans
    matcher = GridMatcher(clustering, subscriptions)
    dispatcher = Dispatcher(routing, subscriptions, scheme="dense")
    print()
    print(f"{'event':>26} {'interested':>10} {'plan':>9} "
          f"{'unicast':>8} {'ideal':>7}")
    events = publications.sample(rng, 8)
    plans = matcher.match_batch([event.point for event in events])
    for event, plan in zip(events, plans):
        plan.audit()  # raises if an interested subscriber is unreached
        cost = dispatcher.plan_cost(event.publisher, plan)
        unicast = dispatcher.unicast_reference(event.publisher, plan.interested)
        ideal = dispatcher.ideal_reference(event.publisher, plan.interested)
        kind = "multicast" if plan.uses_multicast else "unicast"
        print(f"{str(event.point):>26} {len(plan.interested):>10} "
              f"{kind:>9} {unicast:>8.0f} {ideal:>7.0f}  -> {cost:.0f}")


if __name__ == "__main__":
    main()
