"""Unit tests for the grid-based clustering algorithms (sections 4.2-4.4)."""

import numpy as np
import pytest

from repro.clustering import (
    ApproximatePairwiseClustering,
    Clustering,
    ForgyKMeansClustering,
    KMeansClustering,
    MSTClustering,
    PairwiseGroupingClustering,
    expected_waste,
    pairwise_waste_matrix,
)
from repro.clustering import mst
from repro.geometry import Dimension, EventSpace
from repro.grid import CellSet, build_cell_set, cell_set_from_membership

from tests.helpers import (
    make_subscription_set,
    mst_reference,
    observed_fit,
    packed_rows,
)

ALL_ALGORITHMS = [
    KMeansClustering,
    ForgyKMeansClustering,
    MSTClustering,
    PairwiseGroupingClustering,
    ApproximatePairwiseClustering,
]


@pytest.fixture(scope="module")
def cells():
    """A deterministic CellSet with clear cluster structure.

    Two 'communities' of subscribers with overlapping rectangles in
    opposite corners of a 8x8 grid, plus a few loners.
    """
    space = EventSpace([Dimension("x", 0, 7), Dimension("y", 0, 7)])
    specs = []
    # community A: lower-left corner
    for k in range(4):
        specs.append((k, [(-1 + 0.5 * k, 3), (-1, 3 - 0.5 * k)]))
    # community B: upper-right corner
    for k in range(4):
        specs.append((4 + k, [(3 - 0.5 * k, 7), (3, 7 - 0.5 * k)]))
    # loners
    specs.append((8, [(-1, 7), (1, 2)]))
    specs.append((9, [(5, 6), (-1, 7)]))
    subs = make_subscription_set(space, specs)
    pmf = np.full(space.n_cells, 1.0 / space.n_cells)
    return build_cell_set(space, subs, pmf)


def brute_total_waste(cells, assignment):
    total = 0.0
    for g in np.unique(assignment):
        members = np.nonzero(assignment == g)[0]
        union = cells.membership[members].any(axis=0)
        for cell in members:
            extra = np.count_nonzero(union & ~cells.membership[cell])
            total += cells.probs[cell] * extra
    return total


class TestClusteringResult:
    def test_group_membership_is_union(self, cells):
        clustering = ForgyKMeansClustering().fit(cells, 3)
        for g in range(clustering.n_groups):
            members = clustering.assignment == g
            expected = cells.membership[members].any(axis=0)
            np.testing.assert_array_equal(
                clustering.group_membership[g], expected
            )

    def test_group_probs_sum(self, cells):
        clustering = ForgyKMeansClustering().fit(cells, 3)
        np.testing.assert_allclose(
            clustering.group_probs.sum(), cells.probs.sum()
        )

    def test_total_expected_waste_matches_brute(self, cells):
        clustering = KMeansClustering().fit(cells, 3)
        assert clustering.total_expected_waste() == pytest.approx(
            brute_total_waste(cells, clustering.assignment), rel=1e-5
        )

    def test_group_of_grid_cell(self, cells):
        clustering = ForgyKMeansClustering().fit(cells, 3)
        for h, ids in enumerate(cells.cell_ids):
            groups = clustering.groups_of_grid_cells(ids)
            assert (groups == int(clustering.assignment[h])).all()
        # a cell outside any hyper-cell (if any), and an event outside
        # the grid (-1), map to -1
        dropped = np.nonzero(cells.hypercell_of_cell < 0)[0]
        assert clustering.groups_of_grid_cells(
            np.concatenate([[-1], dropped[:1]])
        ).tolist() == [-1] * (1 + len(dropped[:1]))

    def test_empty_group_rejected(self, cells):
        bad = np.zeros(len(cells), dtype=int)
        bad[0] = 2  # group 1 empty
        with pytest.raises(ValueError):
            Clustering(cells, bad)

    def test_unassigned_cell_rejected(self, cells):
        bad = np.zeros(len(cells), dtype=int)
        bad[0] = -1
        with pytest.raises(ValueError):
            Clustering(cells, bad)


@pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
class TestCommonInvariants:
    def fit(self, algorithm_cls, cells, k):
        return algorithm_cls().fit(cells, k, rng=np.random.default_rng(0))

    def test_partition_is_valid(self, algorithm_cls, cells):
        clustering = self.fit(algorithm_cls, cells, 4)
        assert clustering.assignment.shape == (len(cells),)
        assert clustering.n_groups <= 4
        counts = np.bincount(clustering.assignment)
        assert (counts > 0).all()

    def test_respects_group_budget(self, algorithm_cls, cells):
        for k in (1, 2, 5):
            clustering = self.fit(algorithm_cls, cells, k)
            assert clustering.n_groups <= k

    def test_k_one_merges_everything(self, algorithm_cls, cells):
        clustering = self.fit(algorithm_cls, cells, 1)
        assert clustering.n_groups == 1
        np.testing.assert_array_equal(
            clustering.group_membership[0],
            cells.membership.any(axis=0),
        )

    def test_k_geq_cells_gives_singletons(self, algorithm_cls, cells):
        clustering = self.fit(algorithm_cls, cells, len(cells) + 5)
        assert clustering.n_groups == len(cells)
        assert clustering.total_expected_waste() == pytest.approx(0.0)

    def test_better_than_random_partition(self, algorithm_cls, cells):
        """Every algorithm beats the average random partition (MST's
        single-linkage chaining can lose to a *lucky* random draw, so the
        bar is the mean, not the minimum)."""
        clustering = self.fit(algorithm_cls, cells, 3)
        rng = np.random.default_rng(99)
        random_wastes = []
        for _ in range(20):
            random_assignment = rng.integers(0, 3, size=len(cells))
            # ensure all three groups occupied
            random_assignment[:3] = [0, 1, 2]
            random_wastes.append(brute_total_waste(cells, random_assignment))
        assert clustering.total_expected_waste() <= np.mean(random_wastes) + 1e-9

    def test_invalid_inputs(self, algorithm_cls, cells):
        with pytest.raises(ValueError):
            algorithm_cls().fit(cells, 0)


class TestKMeansSpecifics:
    def test_macqueen_records_iterations(self, cells):
        algo = KMeansClustering(max_iters=50)
        algo.fit(cells, 3)
        assert 1 <= algo.n_iterations_ <= 50

    def test_forgy_records_iterations(self, cells):
        algo = ForgyKMeansClustering(max_iters=50)
        algo.fit(cells, 3)
        assert 1 <= algo.n_iterations_ <= 50

    def test_single_iteration_still_valid(self, cells):
        clustering = ForgyKMeansClustering(max_iters=1).fit(cells, 3)
        assert clustering.n_groups <= 3

    def test_iterating_does_not_hurt(self, cells):
        """More iterations never worsen the Forgy objective (monotone
        descent of batch K-means on this objective is expected here)."""
        w1 = ForgyKMeansClustering(max_iters=1).fit(cells, 3).total_expected_waste()
        w10 = ForgyKMeansClustering(max_iters=20).fit(cells, 3).total_expected_waste()
        assert w10 <= w1 + 1e-9

    def test_max_iters_validation(self):
        with pytest.raises(ValueError):
            KMeansClustering(max_iters=0)

    def test_kmeans_and_forgy_similar_quality(self, cells):
        wk = KMeansClustering().fit(cells, 3).total_expected_waste()
        wf = ForgyKMeansClustering().fit(cells, 3).total_expected_waste()
        # the paper observes near-identical performance
        assert wk == pytest.approx(wf, rel=0.5, abs=1e-3)


class TestMSTSpecifics:
    def test_matches_single_linkage_oracle(self, cells):
        """Stopping Kruskal at K components == cutting the K-1 heaviest
        edges of the MST of the complete waste-distance graph."""
        import networkx as nx

        k = 3
        distances = pairwise_waste_matrix(cells.membership, cells.probs)
        g = nx.Graph()
        m = len(cells)
        for i in range(m):
            for j in range(i + 1, m):
                g.add_edge(i, j, weight=float(distances[i, j]))
        tree = nx.minimum_spanning_tree(g)
        edges = sorted(
            tree.edges(data="weight"), key=lambda e: e[2], reverse=True
        )
        for u, v, _ in edges[: k - 1]:
            tree.remove_edge(u, v)
        oracle_components = list(nx.connected_components(tree))

        clustering = MSTClustering().fit(cells, k)
        ours = {}
        for cell, group in enumerate(clustering.assignment):
            ours.setdefault(int(group), set()).add(cell)
        # same partition (note: ties in edge weights could differ, but the
        # waste distances here are distinct)
        assert sorted(map(sorted, ours.values())) == sorted(
            map(sorted, oracle_components)
        )

    def test_hierarchical_nesting(self, cells):
        """MST clusterings are nested: the K=2 partition refines K=1,
        K=4 refines K=2, etc. (the paper's 'monotone improvement')."""
        prev = MSTClustering().fit(cells, 2)
        for k in (3, 4, 5):
            nxt = MSTClustering().fit(cells, k)
            # every new group must be inside a single old group
            for g in range(nxt.n_groups):
                members = np.nonzero(nxt.assignment == g)[0]
                parents = {int(prev.assignment[c]) for c in members}
                assert len(parents) == 1
            prev = nxt


def _tied_cells(seed, m, n_bits=12):
    """A cell set whose rows and probabilities repeat, so many edge
    lengths tie (duplicated rows are zero-length edges)."""
    rng = np.random.default_rng(seed)
    base = rng.random((max(2, m // 3), n_bits)) < 0.3
    membership = base[rng.integers(0, len(base), size=m)]
    probs = rng.choice([0.01, 0.02, 0.05], size=m)
    space = EventSpace([Dimension("x", 0, m - 1)])
    return CellSet(
        space=space,
        membership=membership,
        probs=probs,
        cell_ids=[np.array([i]) for i in range(m)],
        hypercell_of_cell=np.arange(m, dtype=np.int32),
    )


def _random_cells(seed):
    rng = np.random.default_rng(seed)
    space = EventSpace([Dimension("x", 0, 11), Dimension("y", 0, 11)])
    membership = rng.random((space.n_cells, 40)) < 0.2
    membership[0] = True
    pmf = rng.random(space.n_cells)
    return cell_set_from_membership(
        space, *packed_rows(membership), pmf / pmf.sum()
    )


class TestMSTBandScan:
    """The prefix-band Kruskal scan against a stable sort of every edge:
    same assignment, same number of edges scanned."""

    @pytest.mark.parametrize(
        "make, k",
        [
            (lambda: _tied_cells(1, 60), 1),
            (lambda: _tied_cells(0, 60), 59),
            (lambda: _tied_cells(2, 80), 7),
            (lambda: _random_cells(4), 1),
            (lambda: _random_cells(5), 10),
        ],
        ids=["ties-k1", "ties-k-m-1", "ties-k7", "random-k1", "random-k10"],
    )
    def test_matches_full_stable_sort(self, make, k):
        cells = make()
        expected, scanned = mst_reference(cells, k)
        clustering, attrs, _ = observed_fit(MSTClustering(), cells, k)
        assert np.array_equal(clustering.assignment, expected)
        assert attrs["edges_scanned"] == scanned

    @pytest.mark.parametrize(
        "make", [lambda: _tied_cells(1, 60), lambda: _random_cells(4)],
        ids=["ties", "random"],
    )
    def test_first_band_cannot_finish(self, make):
        """The K = 1 cases above need edges past the first band."""
        cells = make()
        _, scanned = mst_reference(cells, 1)
        assert scanned > mst._FIRST_BAND_PER_CELL * len(cells)


class TestPairwiseSpecifics:
    def test_matches_brute_force_greedy(self, cells):
        """The implementation reproduces a straightforward reimplementation
        of greedy minimum-distance agglomeration."""
        k = 3
        groups = [{i} for i in range(len(cells))]
        membership = [cells.membership[i].copy() for i in range(len(cells))]
        probs = list(cells.probs)
        active = list(range(len(cells)))
        while len(active) > k:
            best = None
            for ai in range(len(active)):
                for aj in range(ai + 1, len(active)):
                    i, j = active[ai], active[aj]
                    d = expected_waste(
                        membership[i], probs[i], membership[j], probs[j]
                    )
                    if best is None or d < best[0] - 1e-12:
                        best = (d, i, j)
            _, i, j = best
            groups[i] |= groups[j]
            membership[i] = membership[i] | membership[j]
            probs[i] += probs[j]
            active.remove(j)
        oracle = sorted(sorted(g) for g in (groups[i] for i in active))

        clustering = PairwiseGroupingClustering().fit(cells, k)
        ours = {}
        for cell, group in enumerate(clustering.assignment):
            ours.setdefault(int(group), []).append(cell)
        assert sorted(sorted(g) for g in ours.values()) == oracle

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_matrix_argmin(self, seed):
        """The maintained nearest-neighbour selection reproduces the
        row-major full-matrix ``argmin`` merge-for-merge, including
        tie-breaking, on randomised inputs."""
        from repro.clustering.pairwise import _AgglomerativeState

        rng = np.random.default_rng(seed)
        space = EventSpace([Dimension("x", 0, 9), Dimension("y", 0, 9)])
        specs = []
        for node in range(24):
            lo = rng.integers(-1, 8, size=2)
            hi = lo + rng.integers(1, 4, size=2)
            subs_bounds = [
                (float(lo[0]), float(min(hi[0], 9))),
                (float(lo[1]), float(min(hi[1], 9))),
            ]
            specs.append((node % 5, subs_bounds))
        subs = make_subscription_set(space, specs)
        pmf = np.full(space.n_cells, 1.0 / space.n_cells)
        cells = build_cell_set(space, subs, pmf)
        k = 4
        if len(cells) <= k:
            pytest.skip("not enough hyper-cells for this seed")

        # reference: one full-matrix argmin per merge (the seed algorithm)
        state = _AgglomerativeState(cells)
        m = len(cells)
        while state.n_active > k:
            flat = int(np.argmin(state.distances))
            i, j = divmod(flat, m)
            state.merge(i, j)
        reference = state.assignment()

        ours = PairwiseGroupingClustering().fit(cells, k)
        np.testing.assert_array_equal(ours.assignment, reference)

    def test_approximate_close_to_exact(self, cells):
        exact = PairwiseGroupingClustering().fit(cells, 3)
        approx = ApproximatePairwiseClustering().fit(
            cells, 3, rng=np.random.default_rng(1)
        )
        # quality within a factor of the exact greedy result
        assert approx.total_expected_waste() <= max(
            4.0 * exact.total_expected_waste(), 1e-6
        )

    def test_approx_params_validated(self):
        with pytest.raises(ValueError):
            ApproximatePairwiseClustering(chunk_size=0)
        with pytest.raises(ValueError):
            ApproximatePairwiseClustering(observe_cap=0)


class TestWarmStart:
    """Warm-started K-means supports the paper's subscription dynamics."""

    def test_warm_start_preserved_when_optimal(self, cells):
        base = ForgyKMeansClustering().fit(cells, 3)
        warm = ForgyKMeansClustering(
            initial_assignment=base.assignment
        ).fit(cells, 3)
        # restarting from a converged partition does not degrade it
        assert warm.total_expected_waste() <= base.total_expected_waste() + 1e-9

    def test_warm_start_macqueen(self, cells):
        base = KMeansClustering().fit(cells, 3)
        algo = KMeansClustering(initial_assignment=base.assignment, max_iters=5)
        warm = algo.fit(cells, 3)
        assert warm.total_expected_waste() <= base.total_expected_waste() + 1e-9
        assert algo.n_iterations_ <= 5

    def test_warm_start_with_fewer_groups(self, cells):
        """A warm partition with fewer groups keeps its group count."""
        two_groups = np.zeros(len(cells), dtype=np.int64)
        two_groups[len(cells) // 2 :] = 1
        warm = ForgyKMeansClustering(initial_assignment=two_groups).fit(
            cells, 5
        )
        assert warm.n_groups == 2

    def test_warm_start_validation(self, cells):
        with pytest.raises(ValueError):
            ForgyKMeansClustering(
                initial_assignment=np.zeros(3, dtype=int)
            ).fit(cells, 3)
        bad = np.zeros(len(cells), dtype=int)
        bad[0] = -2
        with pytest.raises(ValueError):
            ForgyKMeansClustering(initial_assignment=bad).fit(cells, 3)
        too_many = np.arange(len(cells)) % 7
        with pytest.raises(ValueError):
            ForgyKMeansClustering(initial_assignment=too_many).fit(cells, 3)
