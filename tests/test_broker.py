"""Unit and integration tests for the content broker facade."""

import numpy as np
import pytest

from repro.broker import BrokerConfig, ContentBroker, DeliveryStats
from repro.geometry import Rectangle
from repro.network import RoutingTables
from repro.workload import MixturePublicationModel, single_mode_mixture

from tests.helpers import publish_one, record_one


@pytest.fixture(scope="module")
def broker_env(small_topology):
    publications = MixturePublicationModel(
        small_topology, single_mode_mixture()
    )
    return {
        "routing": RoutingTables(small_topology.graph),
        "space": publications.space,
        "pmf": publications.cell_pmf(),
        "publications": publications,
        "topology": small_topology,
    }


def make_broker(env, **config_kwargs):
    defaults = dict(n_groups=8, max_cells=300, rebalance_after=5)
    defaults.update(config_kwargs)
    return ContentBroker(
        env["routing"], env["space"], env["pmf"],
        config=BrokerConfig(**defaults),
    )


def random_rectangle(env, rng):
    space = env["space"]
    sides = []
    los, his = [], []
    for dim in space.dimensions:
        lo = rng.uniform(dim.lo - 1, dim.hi - 1)
        los.append(lo)
        his.append(lo + rng.uniform(1, (dim.hi - dim.lo) / 2 + 1))
    return Rectangle.from_bounds(los, his)


class TestSubscriptionLifecycle:
    def test_subscribe_returns_handles(self, broker_env, rng):
        broker = make_broker(broker_env)
        h1 = broker.subscribe(0, random_rectangle(broker_env, rng))
        h2 = broker.subscribe(1, random_rectangle(broker_env, rng))
        assert h1 != h2
        assert broker.n_subscriptions == 2

    def test_unsubscribe(self, broker_env, rng):
        broker = make_broker(broker_env)
        handle = broker.subscribe(0, random_rectangle(broker_env, rng))
        broker.unsubscribe(handle)
        assert broker.n_subscriptions == 0
        with pytest.raises(KeyError):
            broker.unsubscribe(handle)

    def test_invalid_subscription_rejected(self, broker_env):
        broker = make_broker(broker_env)
        with pytest.raises(ValueError):
            broker.subscribe(0, Rectangle.full(2))  # wrong dimensionality
        with pytest.raises(ValueError):
            broker.subscribe(10**6, Rectangle.full(4))  # unknown node

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BrokerConfig(algorithm="mst")
        with pytest.raises(ValueError):
            BrokerConfig(n_groups=0)
        with pytest.raises(ValueError):
            BrokerConfig(rebalance_after=0)


class TestPublishing:
    @pytest.fixture()
    def populated(self, broker_env):
        rng = np.random.default_rng(5)
        broker = make_broker(broker_env)
        stub_nodes = broker_env["topology"].stub_nodes()
        for _ in range(40):
            node = int(rng.choice(stub_nodes))
            broker.subscribe(node, random_rectangle(broker_env, rng))
        return broker

    def test_publish_without_subscribers(self, broker_env):
        broker = make_broker(broker_env)
        receipt = publish_one(broker, (0, 5, 5, 5), publisher=0)
        assert receipt.cost == 0.0
        assert receipt.n_interested == 0

    def test_publish_receipt_consistency(self, populated, broker_env):
        rng = np.random.default_rng(6)
        events = broker_env["publications"].sample(rng, 30)
        for event in events:
            receipt = publish_one(populated, event.point, event.publisher)
            assert receipt.cost >= receipt.ideal_cost - 1e-9
            assert receipt.unicast_cost >= receipt.ideal_cost - 1e-9
            if receipt.n_interested == 0:
                assert receipt.cost == 0.0

    def test_stats_accumulate(self, populated, broker_env):
        rng = np.random.default_rng(7)
        events = broker_env["publications"].sample(rng, 25)
        for event in events:
            publish_one(populated, event.point, event.publisher)
        stats = populated.stats
        assert stats.n_events == 25
        assert (
            stats.n_multicast + stats.n_unicast_only + stats.n_no_interest
            == 25
        )
        assert stats.total_cost >= stats.total_ideal_cost - 1e-6
        row = stats.as_dict()
        assert row["n_events"] == 25

    def test_lazy_rebuild(self, broker_env, rng):
        broker = make_broker(broker_env, rebalance_after=10)
        stub_nodes = broker_env["topology"].stub_nodes()
        for _ in range(5):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        publish_one(broker, (0, 5, 5, 5), publisher=0)
        rebuilds_after_first = broker.stats.n_rebuilds
        assert rebuilds_after_first == 1  # first publish forces a build
        # fewer changes than the threshold: no rebuild on next publish
        broker.subscribe(
            int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
        )
        publish_one(broker, (0, 5, 5, 5), publisher=0)
        assert broker.stats.n_rebuilds == rebuilds_after_first
        # crossing the threshold triggers one
        for _ in range(12):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        publish_one(broker, (0, 5, 5, 5), publisher=0)
        assert broker.stats.n_rebuilds == rebuilds_after_first + 1

    def test_warm_start_survives_churn(self, broker_env):
        rng = np.random.default_rng(8)
        broker = make_broker(broker_env, rebalance_after=10, warm_start=True)
        stub_nodes = broker_env["topology"].stub_nodes()
        handles = []
        for _ in range(30):
            handles.append(
                broker.subscribe(
                    int(rng.choice(stub_nodes)),
                    random_rectangle(broker_env, rng),
                )
            )
        events = broker_env["publications"].sample(rng, 10)
        for event in events:
            publish_one(broker, event.point, event.publisher)
        # churn: drop a third, add replacements
        for handle in handles[:10]:
            broker.unsubscribe(handle)
        for _ in range(10):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        for event in broker_env["publications"].sample(rng, 10):
            receipt = publish_one(broker, event.point, event.publisher)
            assert receipt.cost >= 0
        assert broker.stats.n_rebuilds >= 2
        assert broker.n_groups > 0

    def test_inherited_assignment_is_the_cell_majority(
        self, broker_env, monkeypatch
    ):
        """Warm refits seed each new hyper-cell with the most common old
        group of its grid cells (ties to the lowest group, unvoted
        hyper-cells to group 0), as a per-cell vote loop computes it."""
        calls = []
        inherit = ContentBroker._inherit_assignment

        def spy(self, old_clustering, cells):
            got = inherit(self, old_clustering, cells)
            calls.append((old_clustering, cells, got, self.config.n_groups))
            return got

        monkeypatch.setattr(ContentBroker, "_inherit_assignment", spy)
        rng = np.random.default_rng(21)
        broker = make_broker(broker_env, rebalance_after=3, warm_start=True)
        stub_nodes = broker_env["topology"].stub_nodes()
        handles = [
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
            for _ in range(30)
        ]
        for round_ in range(4):
            for event in broker_env["publications"].sample(rng, 3):
                publish_one(broker, event.point, event.publisher)
            for handle in handles[3 * round_:3 * round_ + 3]:
                broker.unsubscribe(handle)
            for _ in range(3):
                broker.subscribe(
                    int(rng.choice(stub_nodes)),
                    random_rectangle(broker_env, rng),
                )
        publish_one(broker, (0, 5, 5, 5), publisher=0)
        assert calls
        for old_clustering, cells, got, n_groups in calls:
            expected = np.zeros(len(cells), dtype=np.int64)
            for h, cell_ids in enumerate(cells.cell_ids):
                votes = old_clustering.groups_of_grid_cells(cell_ids)
                votes = votes[votes >= 0]
                if len(votes):
                    expected[h] = np.bincount(votes).argmax()
            expected = np.minimum(expected, min(n_groups, len(cells)) - 1)
            np.testing.assert_array_equal(got, expected)

    def test_interested_handles_roundtrip(self, broker_env):
        broker = make_broker(broker_env)
        space = broker_env["space"]
        full = Rectangle.full(space.n_dims)
        handle = broker.subscribe(0, full)
        publish_one(broker, (0, 5, 5, 5), publisher=0)
        (interested,) = broker.last_interested
        assert interested.tolist() == [broker.internal_id(handle)]


class TestDeliveryStats:
    def test_improvement_percentage(self):
        stats = DeliveryStats()
        record_one(stats, 60, 100, 20, True, 5, 1)
        assert stats.improvement_percentage == pytest.approx(50.0)

    def test_no_headroom(self):
        stats = DeliveryStats()
        record_one(stats, 0, 0, 0, False, 0, 0)
        assert stats.improvement_percentage == 0.0

    def test_multicast_rate_ignores_empty_events(self):
        stats = DeliveryStats()
        record_one(stats, 1, 1, 1, True, 3, 0)
        record_one(stats, 0, 0, 0, False, 0, 0)
        assert stats.multicast_rate == 1.0


class TestGroupChurn:
    def test_membership_churn_counter(self, broker_env):
        rng = np.random.default_rng(11)
        broker = make_broker(broker_env, rebalance_after=5)
        stub_nodes = broker_env["topology"].stub_nodes()
        for _ in range(20):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        publish_one(broker, (0, 5, 5, 5), publisher=0)
        assert broker.stats.group_membership_changes == 0  # first build
        for _ in range(10):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        publish_one(broker, (0, 5, 5, 5), publisher=0)
        assert broker.stats.n_rebuilds == 2
        # adding subscribers must have changed some group memberships
        assert broker.stats.group_membership_changes > 0

    def test_churn_static_workload_zero(self, broker_env, rng):
        """Rebuilding with an unchanged subscription set installs the
        same groups: zero churn (warm start keeps the partition)."""
        broker = make_broker(broker_env, rebalance_after=1)
        stub_nodes = broker_env["topology"].stub_nodes()
        for _ in range(15):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        publish_one(broker, (0, 5, 5, 5), publisher=0)
        before = broker.stats.group_membership_changes
        broker.rebuild()  # no subscription changes in between
        assert broker.stats.group_membership_changes == before

    def test_churn_helper_exact_cases(self, broker_env):
        broker = make_broker(broker_env)
        churn = broker._membership_churn(
            [frozenset({1, 2}), frozenset({3})],
            [frozenset({1, 2}), frozenset({3, 4})],
        )
        assert churn == 1  # node 4 joins one group
        churn = broker._membership_churn([], [frozenset({1, 2, 3})])
        assert churn == 3  # brand-new group: three joins
        churn = broker._membership_churn([frozenset({7})], [])
        assert churn == 1  # group torn down: one leave
        churn = broker._membership_churn(
            [frozenset({1, 2})], [frozenset({1, 3})]
        )
        assert churn == 2  # node 2 leaves, node 3 joins

    def test_rebuild_accounting_mirrors_registry(self, broker_env, rng):
        """Rebuild count, join/leave churn and rebuild wall clock land
        both on DeliveryStats and on the process-wide metrics registry."""
        from repro.obs import get_registry

        registry = get_registry()
        rebuilds = registry.counter("broker_rebuilds_total")
        changes = registry.counter("broker_membership_changes_total")
        rebuilds_before = rebuilds.value
        changes_before = changes.value

        broker = make_broker(broker_env, rebalance_after=5)
        stub_nodes = broker_env["topology"].stub_nodes()
        for _ in range(20):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        publish_one(broker, (0, 5, 5, 5), publisher=0)
        for _ in range(10):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        publish_one(broker, (0, 5, 5, 5), publisher=0)

        stats = broker.stats
        assert stats.n_rebuilds == 2
        assert stats.total_rebuild_seconds > 0.0
        assert stats.as_dict()["total_rebuild_seconds"] == pytest.approx(
            stats.total_rebuild_seconds
        )
        assert rebuilds.value - rebuilds_before == stats.n_rebuilds
        assert (
            changes.value - changes_before == stats.group_membership_changes
        )


class TestAdaptiveBroker:
    def test_adaptive_never_worse_than_unicast(self, broker_env):
        rng = np.random.default_rng(13)
        broker = make_broker(broker_env, adaptive=True)
        stub_nodes = broker_env["topology"].stub_nodes()
        for _ in range(30):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        for event in broker_env["publications"].sample(rng, 30):
            receipt = publish_one(broker, event.point, event.publisher)
            assert receipt.cost <= receipt.unicast_cost + 1e-9
            assert receipt.mode in ("unicast", "multicast", "broadcast")
        assert broker.stats.total_cost <= broker.stats.total_unicast_cost + 1e-6

    def test_adaptive_beats_fixed_policy(self, broker_env):
        """Replaying the same events, the adaptive broker's total cost
        is at most the fixed-policy broker's."""
        rng = np.random.default_rng(14)
        stub_nodes = broker_env["topology"].stub_nodes()
        subscriptions = [
            (int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng))
            for _ in range(35)
        ]
        events = broker_env["publications"].sample(rng, 40)

        costs = {}
        for adaptive in (False, True):
            broker = make_broker(broker_env, adaptive=adaptive)
            for node, rect in subscriptions:
                broker.subscribe(node, rect)
            for event in events:
                publish_one(broker, event.point, event.publisher)
            costs[adaptive] = broker.stats.total_cost
        assert costs[True] <= costs[False] + 1e-6

    def test_mode_counts_survive_rebuilds(self, broker_env):
        rng = np.random.default_rng(15)
        broker = make_broker(broker_env, adaptive=True, rebalance_after=5)
        stub_nodes = broker_env["topology"].stub_nodes()
        for _ in range(10):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        for event in broker_env["publications"].sample(rng, 10):
            publish_one(broker, event.point, event.publisher)
        counts_before = dict(broker._policy.mode_counts)
        for _ in range(10):
            broker.subscribe(
                int(rng.choice(stub_nodes)), random_rectangle(broker_env, rng)
            )
        publish_one(broker, (0, 5, 5, 5), publisher=0)  # triggers rebuild
        total_after = sum(broker._policy.mode_counts.values())
        assert total_after == sum(counts_before.values()) + 1

    def test_penalty_validated_in_config(self):
        with pytest.raises(ValueError):
            BrokerConfig(adaptive=True, broadcast_penalty=0.5)
