"""Round-trip tests for the persistence layer."""

import numpy as np
import pytest

from repro.clustering import ForgyKMeansClustering, NoLossAlgorithm
from repro.grid import build_cell_set
from repro.persistence import (
    load_cell_set,
    load_clustering,
    load_noloss_result,
    load_subscriptions,
    load_topology,
    save_cell_set,
    save_clustering,
    save_noloss_result,
    save_subscriptions,
    save_topology,
)


@pytest.fixture()
def path(tmp_path):
    return tmp_path / "artefact.npz"


class TestTopologyRoundTrip:
    def test_graph_identical(self, small_topology, path):
        save_topology(small_topology, path)
        loaded = load_topology(path)
        assert loaded.n_nodes == small_topology.n_nodes
        assert sorted(loaded.graph.edges()) == sorted(
            small_topology.graph.edges()
        )

    def test_roles_identical(self, small_topology, path):
        save_topology(small_topology, path)
        loaded = load_topology(path)
        assert loaded.transit_block == small_topology.transit_block
        assert loaded.stub_of == small_topology.stub_of
        assert loaded.stubs == small_topology.stubs
        assert loaded.stub_block == small_topology.stub_block
        assert loaded.transit_nodes == small_topology.transit_nodes

    def test_routing_equivalent(self, small_topology, path):
        save_topology(small_topology, path)
        loaded = load_topology(path)
        sp_a = small_topology.graph.shortest_paths(0)
        sp_b = loaded.graph.shortest_paths(0)
        np.testing.assert_allclose(sp_a.dist, sp_b.dist)


class TestSubscriptionRoundTrip:
    def test_identical(self, small_subscriptions, path):
        save_subscriptions(small_subscriptions, path)
        loaded = load_subscriptions(path)
        assert len(loaded) == len(small_subscriptions)
        assert loaded.n_subscribers == small_subscriptions.n_subscribers
        a_los, a_his = small_subscriptions.bounds()
        b_los, b_his = loaded.bounds()
        np.testing.assert_array_equal(a_los, b_los)
        np.testing.assert_array_equal(a_his, b_his)
        np.testing.assert_array_equal(
            loaded.subscriber_nodes, small_subscriptions.subscriber_nodes
        )

    def test_matching_equivalent(self, small_subscriptions, path, rng):
        save_subscriptions(small_subscriptions, path)
        loaded = load_subscriptions(path)
        for _ in range(30):
            point = tuple(rng.uniform(-1, 21, size=4))
            np.testing.assert_array_equal(
                loaded.interested_subscribers(point),
                small_subscriptions.interested_subscribers(point),
            )

    def test_infinite_bounds_survive(self, small_subscriptions, path):
        """Wildcard sides (±inf) round-trip through npz."""
        los, _ = small_subscriptions.bounds()
        assert np.isinf(los).any(), "fixture should contain wildcards"
        save_subscriptions(small_subscriptions, path)
        loaded_los, _ = load_subscriptions(path).bounds()
        np.testing.assert_array_equal(los, loaded_los)


class TestCellSetAndClusteringRoundTrip:
    @pytest.fixture()
    def cells(self, small_subscriptions, small_publications):
        return build_cell_set(
            small_subscriptions.space,
            small_subscriptions,
            small_publications.cell_pmf(),
            max_cells=150,
        )

    def test_cell_set(self, cells, path):
        save_cell_set(cells, path)
        loaded = load_cell_set(path)
        np.testing.assert_array_equal(loaded.membership, cells.membership)
        np.testing.assert_allclose(loaded.probs, cells.probs)
        np.testing.assert_array_equal(
            loaded.hypercell_of_cell, cells.hypercell_of_cell
        )
        assert len(loaded.cell_ids) == len(cells.cell_ids)
        for a, b in zip(loaded.cell_ids, cells.cell_ids):
            np.testing.assert_array_equal(a, b)

    def test_clustering(self, cells, path):
        clustering = ForgyKMeansClustering().fit(cells, 6)
        save_clustering(clustering, path)
        loaded = load_clustering(path)
        np.testing.assert_array_equal(loaded.assignment, clustering.assignment)
        np.testing.assert_array_equal(
            loaded.group_membership, clustering.group_membership
        )
        assert loaded.total_expected_waste() == pytest.approx(
            clustering.total_expected_waste()
        )

    def test_loaded_clustering_matches_events(
        self, cells, path, small_subscriptions
    ):
        """A reloaded clustering produces identical matcher decisions."""
        from repro.matching import GridMatcher

        clustering = ForgyKMeansClustering().fit(cells, 6)
        save_clustering(clustering, path)
        loaded = load_clustering(path)
        m1 = GridMatcher(clustering, small_subscriptions)
        m2 = GridMatcher(loaded, small_subscriptions)
        space = small_subscriptions.space
        rng = np.random.default_rng(3)
        for _ in range(25):
            point = tuple(
                int(rng.integers(d.lo, d.hi + 1)) for d in space.dimensions
            )
            p1, p2 = m1.match(point), m2.match(point)
            assert p1.group_ids == p2.group_ids
            np.testing.assert_array_equal(
                p1.unicast_subscribers, p2.unicast_subscribers
            )


class TestNoLossRoundTrip:
    def test_identical(self, small_subscriptions, small_publications, path):
        algo = NoLossAlgorithm(n_keep=100, iterations=2)
        result = algo.fit(
            small_subscriptions,
            small_publications.cell_pmf(),
            8,
            rng=np.random.default_rng(0),
        )
        save_noloss_result(result, path)
        loaded = load_noloss_result(path)
        np.testing.assert_array_equal(loaded.los, result.los)
        np.testing.assert_array_equal(loaded.his, result.his)
        np.testing.assert_allclose(loaded.weights, result.weights)
        assert loaded.n_groups == result.n_groups
        np.testing.assert_array_equal(loaded.group_of, result.group_of)
        for a, b in zip(loaded.group_members, result.group_members):
            np.testing.assert_array_equal(a, b)


class TestFormatSafety:
    def test_kind_mismatch_detected(self, small_topology, path):
        save_topology(small_topology, path)
        with pytest.raises(ValueError):
            load_subscriptions(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_topology(tmp_path / "nope.npz")


class TestSubscriptionChurnRoundTrip:
    """Sets mutated online (add/deactivate) must still round-trip."""

    def _churned_set(self, small_topology):
        from repro.workload import EvaluationSubscriptionModel

        model = EvaluationSubscriptionModel(small_topology)
        subs = model.generate(np.random.default_rng(5), 30)
        rect = subs.subscriptions[0].rectangle
        for victim in (3, 11, 19):
            subs.deactivate(victim)
        for node in (0, 1):
            subs.add(node, rect)
        return subs

    def test_compacts_to_active_only(self, small_topology, path):
        subs = self._churned_set(small_topology)
        assert subs.n_active_subscribers == 29
        save_subscriptions(subs, path)
        loaded = load_subscriptions(path)
        assert loaded.n_subscribers == 29
        assert loaded.n_active_subscribers == 29
        # deactivated rows carry never-matching sentinel bounds
        # (lo > hi); none may survive the trip
        los, his = loaded.bounds()
        assert np.all(los <= his)

    def test_matching_equivalent_after_churn(self, small_topology, path):
        subs = self._churned_set(small_topology)
        save_subscriptions(subs, path)
        loaded = load_subscriptions(path)
        compacted, mapping = subs.compact()
        rng = np.random.default_rng(8)
        for _ in range(20):
            point = tuple(rng.uniform(-1, 21, size=4))
            np.testing.assert_array_equal(
                loaded.interested_subscribers(point),
                compacted.interested_subscribers(point),
            )


class TestCompactionMappingRegression:
    """`save_subscriptions` compacts churned sets to their live rows; a
    clustering fitted *before* the churn keeps one column per original
    subscriber.  Persisting the two without re-aligning the columns used
    to produce a checkpoint whose clustering referenced the pre-compaction
    ids — the mapping returned by `save_subscriptions` plus the
    `subscriber_mapping` argument of `save_clustering` is the fix."""

    def _churned(self, small_subscriptions, small_publications):
        from repro.workload import Subscription, SubscriptionSet

        base = small_subscriptions
        subs = SubscriptionSet(
            base.space,
            [
                Subscription(s.subscriber, s.node, s.rectangle)
                for s in base.subscriptions
            ],
        )
        cells = build_cell_set(
            subs.space, subs, small_publications.cell_pmf(), max_cells=150
        )
        clustering = ForgyKMeansClustering().fit(
            cells, 6, rng=np.random.default_rng(4)
        )
        for victim in (2, 7, 31, 44):
            subs.deactivate(victim)
        return subs, clustering

    def test_mapping_is_none_without_churn(self, small_subscriptions, path):
        assert save_subscriptions(small_subscriptions, path) is None

    def test_mapping_marks_departed(
        self, small_subscriptions, small_publications, path
    ):
        subs, _ = self._churned(small_subscriptions, small_publications)
        mapping = save_subscriptions(subs, path)
        assert mapping is not None
        assert mapping.shape == (subs.n_subscribers,)
        for victim in (2, 7, 31, 44):
            assert mapping[victim] == -1
        live = mapping[mapping >= 0]
        np.testing.assert_array_equal(np.sort(live), np.arange(len(live)))

    def test_checkpoint_pair_stays_aligned(
        self, small_subscriptions, small_publications, tmp_path
    ):
        """The regression: a (subscriptions, clustering) checkpoint of a
        churned set must reload as an aligned pair."""
        from repro.matching import GridMatcher

        subs, clustering = self._churned(
            small_subscriptions, small_publications
        )
        subs_path = tmp_path / "subs.npz"
        clus_path = tmp_path / "clustering.npz"
        mapping = save_subscriptions(subs, subs_path)
        save_clustering(clustering, clus_path, subscriber_mapping=mapping)
        loaded_subs = load_subscriptions(subs_path)
        loaded_clustering = load_clustering(clus_path)
        assert (
            loaded_clustering.cells.n_subscribers
            == loaded_subs.n_subscribers
        )
        # ground truth: the same churn applied in memory
        compacted, _ = subs.compact()
        reference = GridMatcher(clustering, subs)
        restored = GridMatcher(loaded_clustering, loaded_subs)
        rng = np.random.default_rng(9)
        id_of = {old: new for old, new in enumerate(mapping) if new >= 0}
        for _ in range(25):
            point = tuple(rng.uniform(-1, 21, size=4))
            np.testing.assert_array_equal(
                restored.match(point).interested,
                compacted.interested_subscribers(point),
            )
            # and the restored plan is the old plan renumbered
            old_plan = reference.match(point)
            expected = np.sort(
                [
                    id_of[int(s)]
                    for s in old_plan.interested
                    if int(s) in id_of
                ]
            )
            np.testing.assert_array_equal(
                restored.match(point).interested, expected
            )

    def test_mapping_shape_validated(
        self, small_subscriptions, small_publications, path
    ):
        _, clustering = self._churned(
            small_subscriptions, small_publications
        )
        with pytest.raises(ValueError, match="mapping"):
            save_clustering(
                clustering,
                path,
                subscriber_mapping=np.array([0, 1, -1], dtype=np.int64),
            )


class TestWeightedCellSetRoundTrip:
    @pytest.fixture()
    def weighted(self, tiny_space):
        from tests.helpers import make_subscription_set

        from repro.aggregation import (
            aggregate_subscriptions,
            build_aggregate_cells,
        )

        spec = [(-1, 2), (-1, 2)]
        big = [(-1, 4), (-1, 4)]
        subs = make_subscription_set(
            tiny_space, [(0, spec), (1, big), (2, spec), (0, big), (1, spec)]
        )
        pmf = np.full(tiny_space.n_cells, 1.0 / tiny_space.n_cells)
        agg = aggregate_subscriptions(subs)
        agg_cells, _ = build_aggregate_cells(tiny_space, subs, agg, pmf)
        return agg, agg_cells

    def test_weights_round_trip(self, weighted, path):
        _, agg_cells = weighted
        assert agg_cells.weights is not None
        save_cell_set(agg_cells, path)
        loaded = load_cell_set(path)
        np.testing.assert_array_equal(loaded.weights, agg_cells.weights)
        np.testing.assert_array_equal(loaded.sizes, agg_cells.sizes)

    def test_weighted_clustering_round_trip(self, weighted, path):
        _, agg_cells = weighted
        clustering = ForgyKMeansClustering().fit(
            agg_cells, 2, rng=np.random.default_rng(0)
        )
        save_clustering(clustering, path)
        loaded = load_clustering(path)
        np.testing.assert_array_equal(
            loaded.cells.weights, agg_cells.weights
        )
        assert loaded.total_expected_waste() == pytest.approx(
            clustering.total_expected_waste()
        )

    def test_weighted_clustering_rejects_mapping(self, weighted, path):
        """Aggregate-level columns are not subscriber columns; remapping
        them with a subscriber mapping would corrupt the checkpoint."""
        _, agg_cells = weighted
        clustering = ForgyKMeansClustering().fit(
            agg_cells, 2, rng=np.random.default_rng(0)
        )
        mapping = np.arange(agg_cells.n_subscribers, dtype=np.int64)
        with pytest.raises(ValueError, match="weighted"):
            save_clustering(clustering, path, subscriber_mapping=mapping)

    def test_aggregates_round_trip(self, weighted, path):
        from repro.persistence import load_aggregates, save_aggregates

        agg, _ = weighted
        save_aggregates(agg, path)
        loaded = load_aggregates(path)
        np.testing.assert_array_equal(loaded.los, agg.los)
        np.testing.assert_array_equal(loaded.his, agg.his)
        np.testing.assert_array_equal(loaded.multiplicity, agg.multiplicity)
        np.testing.assert_array_equal(loaded.parent, agg.parent)
        np.testing.assert_array_equal(loaded.agg_of_row, agg.agg_of_row)
        assert loaded.n_subscriptions == agg.n_subscriptions
        assert len(loaded.members) == len(agg.members)
        for a, b in zip(loaded.members, agg.members):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.owners, agg.owners):
            np.testing.assert_array_equal(a, b)

    def test_aggregates_kind_guard(self, small_topology, path):
        from repro.persistence import load_aggregates

        save_topology(small_topology, path)
        with pytest.raises(ValueError):
            load_aggregates(path)


class TestShardCheckpointRoundTrip:
    @pytest.fixture()
    def online(self, small_topology):
        from repro.broker import BrokerConfig, ContentBroker
        from repro.network import RoutingTables
        from repro.online import ClusterMaintainer
        from repro.workload import (
            MixturePublicationModel,
            single_mode_mixture,
        )

        publications = MixturePublicationModel(
            small_topology, single_mode_mixture()
        )
        space = publications.space
        broker = ContentBroker(
            RoutingTables(small_topology.graph),
            space,
            publications.cell_pmf(),
            config=BrokerConfig(
                n_groups=6, max_cells=200, rebalance_after=10**9
            ),
        )
        rng = np.random.default_rng(21)
        for _ in range(20):
            los, his = [], []
            for dim in space.dimensions:
                lo = rng.uniform(dim.lo - 1, dim.hi - 1)
                los.append(lo)
                his.append(lo + rng.uniform(1, 6))
            from repro.geometry import Rectangle

            broker.subscribe(
                int(rng.integers(0, small_topology.graph.n_nodes)),
                Rectangle.from_bounds(los, his),
            )
        broker.rebuild()
        return broker, ClusterMaintainer(broker), space, rng

    @staticmethod
    def _service(broker, maintainer, shard_id=0):
        from repro.online import BrokerService, QueueConfig, ServiceConfig

        queue = QueueConfig(
            capacity=64, policy="shed-oldest", rate=500.0, burst=8
        )
        return BrokerService(
            broker, maintainer,
            ServiceConfig(churn_queue=queue, pub_queue=queue),
            shard_id=shard_id,
        )

    def test_round_trip(self, online, path):
        from repro.geometry import Rectangle
        from repro.online import ClusterMaintainer, FleetJoin, StreamEvent
        from repro.persistence import (
            load_shard_checkpoint,
            save_shard_checkpoint,
        )

        broker, maintainer, space, rng = online
        service = self._service(broker, maintainer, shard_id=3)
        handles = broker.handles()
        for gid, handle in enumerate(handles):
            # the last registration is match-only (forward policy)
            service.register_initial(
                gid, handle, member=gid < len(handles) - 1
            )
        los = [dim.lo for dim in space.dimensions]
        his = [dim.hi for dim in space.dimensions]
        service.run([
            StreamEvent(
                0.5, "churn",
                FleetJoin(100, 0, Rectangle.from_bounds(los, his)),
            ),
        ])
        save_shard_checkpoint(path, service, k=6, policy="forward")
        state = load_shard_checkpoint(path)
        arrays = maintainer.state_arrays()
        np.testing.assert_array_equal(state.cell_group, arrays["cell_group"])
        np.testing.assert_allclose(state.group_mass, arrays["group_mass"])
        assert state.fit_waste == pytest.approx(maintainer.fit_waste)
        assert state.current_waste == pytest.approx(maintainer.current_waste)
        assert state.counters["joins"] == 1
        assert state.counters["captures"] == 1
        assert (state.shard, state.k, state.policy) == (3, 6, "forward")
        assert state.handle_of_gid == service.handle_of_gid
        assert state.forward_gids == {len(handles) - 1}
        assert state.busy_until == service.busy_until > 0.0

        saved_inflation = maintainer.inflation
        broker.rebuild()
        resumed = self._service(broker, ClusterMaintainer(broker))
        state.apply(resumed)
        assert resumed.maintainer.inflation == pytest.approx(saved_inflation)
        assert resumed.maintainer.joins == 1
        assert (
            resumed.maintainer.unassigned_joins
            == maintainer.unassigned_joins
        )
        assert resumed.maintainer.forward_handles == (
            maintainer.forward_handles
        )
        assert resumed.busy_until == service.busy_until
        for name in ("churn", "pub"):
            assert (
                resumed._queues[name].token_state()
                == service._queues[name].token_state()
            )

    def test_kind_guard(self, online, path, small_topology):
        from repro.persistence import load_shard_checkpoint

        save_topology(small_topology, path)
        with pytest.raises(ValueError):
            load_shard_checkpoint(path)
