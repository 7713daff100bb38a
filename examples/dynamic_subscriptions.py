"""Subscription dynamics: warm-started re-balancing (section 4.2 / item 5
of the paper's discussion).

Subscribers join over time.  Instead of re-clustering from scratch after
every batch of arrivals, the multicast groups are *re-balanced*: the new
hyper-cell set inherits its group assignment from the previous clustering
(via the grid cells it covers) and a few warm-started K-means iterations
repair the partition.  The example compares the warm-started repair
against a cold re-clustering, in quality and in iterations used.

Run with:  python examples/dynamic_subscriptions.py
"""

import numpy as np

from repro.clustering import ForgyKMeansClustering
from repro.grid import build_cell_set
from repro.network import TransitStubGenerator, TransitStubParams
from repro.workload import (
    EvaluationSubscriptionModel,
    MixturePublicationModel,
    SubscriptionSet,
    single_mode_mixture,
)


def inherit_assignment(old_clustering, new_cells, n_groups, rng):
    """Map each new hyper-cell to a group of the previous clustering.

    A hyper-cell inherits the group of the grid cells it covers (majority
    vote); hyper-cells covering only previously unassigned territory get
    a random existing group — the re-balancing iterations will place them
    properly.
    """
    assignment = np.empty(len(new_cells), dtype=np.int64)
    for h, cell_ids in enumerate(new_cells.cell_ids):
        votes = old_clustering.groups_of_grid_cells(cell_ids)
        votes = votes[votes >= 0]
        if len(votes):
            assignment[h] = np.bincount(votes).argmax()
        else:
            assignment[h] = rng.integers(0, n_groups)
    return assignment


def main():
    rng = np.random.default_rng(21)
    params = TransitStubParams(
        n_transit_blocks=3,
        transit_nodes_per_block=3,
        stubs_per_transit=2,
        nodes_per_stub=8,
    )
    topology = TransitStubGenerator(params, rng).generate()
    model = EvaluationSubscriptionModel(topology)

    # the full population arrives in 4 batches of 150
    all_subs = model.generate(rng, 600).subscriptions
    publications = MixturePublicationModel(
        topology, single_mode_mixture()
    )
    pmf = publications.cell_pmf()
    space = publications.space
    n_groups = 25

    print(f"{'batch':>6} {'subs':>6} {'cells':>6} "
          f"{'warm waste':>11} {'warm iters':>11} "
          f"{'cold waste':>11} {'cold iters':>11}")

    clustering = None
    for batch_end in (150, 300, 450, 600):
        subs = SubscriptionSet(space, all_subs[:batch_end])
        cells = build_cell_set(space, subs, pmf, max_cells=600)

        cold_algo = ForgyKMeansClustering()
        cold = cold_algo.fit(cells, n_groups)

        if clustering is None:
            warm, warm_algo = cold, cold_algo
        else:
            initial = inherit_assignment(clustering, cells, n_groups, rng)
            warm_algo = ForgyKMeansClustering(
                max_iters=10, initial_assignment=initial
            )
            warm = warm_algo.fit(cells, n_groups)

        print(f"{batch_end // 150:>6} {len(subs):>6} {len(cells):>6} "
              f"{warm.total_expected_waste():>11.4f} "
              f"{warm_algo.n_iterations_:>11} "
              f"{cold.total_expected_waste():>11.4f} "
              f"{cold_algo.n_iterations_:>11}")
        clustering = warm

    print()
    print("warm-started re-balancing tracks the cold re-clustering quality "
          "while touching the partition for only a few iterations —")
    print("the property the paper credits iterative clustering with "
          "(section 4.2 and discussion item 5).")


if __name__ == "__main__":
    main()
