"""A running pub-sub broker: churn, lazy re-balancing, live statistics.

Simulates a day in the life of a content broker: subscribers join and
leave while publishers keep emitting events.  The broker re-balances its
multicast groups lazily (warm-started Forgy K-means) and accounts for
every delivery.  At the end it reports the realised improvement over
unicast — the deployed-system counterpart of the paper's offline
evaluation.

Run with:  python examples/broker_simulation.py
"""

import numpy as np

from repro.broker import BrokerConfig, ContentBroker
from repro.network import RoutingTables, TransitStubGenerator, TransitStubParams
from repro.workload import (
    EvaluationSubscriptionModel,
    MixturePublicationModel,
    single_mode_mixture,
)


def main():
    rng = np.random.default_rng(17)
    params = TransitStubParams(
        n_transit_blocks=3,
        transit_nodes_per_block=4,
        stubs_per_transit=2,
        nodes_per_stub=10,
    )
    topology = TransitStubGenerator(params, rng).generate()
    routing = RoutingTables(topology.graph)
    publications = MixturePublicationModel(topology, single_mode_mixture())

    broker = ContentBroker(
        routing,
        publications.space,
        publications.cell_pmf(),
        config=BrokerConfig(
            n_groups=30,
            max_cells=1200,
            algorithm="forgy",
            rebalance_after=40,
            warm_start=True,
        ),
    )

    # a pool of candidate subscriptions to draw joins from
    sub_model = EvaluationSubscriptionModel(topology)
    pool = sub_model.generate(rng, 900).subscriptions

    print(f"network: {topology.n_nodes} nodes | broker: "
          f"{broker.config.n_groups} groups, rebalance every "
          f"{broker.config.rebalance_after} changes")
    print()
    print(f"{'epoch':>6} {'subs':>6} {'groups':>7} {'rebuilds':>9} "
          f"{'multicast%':>11} {'improve%':>9}")

    live_handles = []
    pool_index = 0
    for epoch in range(1, 9):
        # churn: ~60 joins, ~20 leaves per epoch
        for _ in range(60):
            if pool_index >= len(pool):
                break
            sub = pool[pool_index]
            pool_index += 1
            live_handles.append(broker.subscribe(sub.node, sub.rectangle))
        rng.shuffle(live_handles)
        for _ in range(min(20, max(0, len(live_handles) - 40))):
            broker.unsubscribe(live_handles.pop())

        # traffic: 120 events this epoch, one batch
        events = publications.sample(rng, 120)
        broker.publish_batch(
            [event.point for event in events],
            [event.publisher for event in events],
        )

        stats = broker.stats
        # share of the events with interest that used a multicast group
        with_interest = stats.n_events - stats.n_no_interest
        multicast = stats.n_multicast / with_interest if with_interest else 0.0
        print(f"{epoch:>6} {broker.n_subscriptions:>6} {broker.n_groups:>7} "
              f"{stats.n_rebuilds:>9} {100 * multicast:>10.0f}% "
              f"{stats.improvement_percentage:>9.1f}")

    print()
    final = broker.stats.as_dict()
    print(f"total: {final['n_events']:.0f} events, "
          f"{final['n_rebuilds']:.0f} group rebuilds, "
          f"{final['total_wasted_deliveries']:.0f} wasted deliveries")
    print(f"realised improvement over unicast: "
          f"{final['improvement_percentage']:.1f}% of the ideal headroom")


if __name__ == "__main__":
    main()
