"""Unit tests for the delivery dispatcher and cost accounting."""

import numpy as np
import pytest

from repro.delivery import SCHEMES, Dispatcher
from repro.geometry import Dimension, EventSpace
from repro.matching import DeliveryPlan
from repro.network import (
    Graph,
    RoutingTables,
    application_multicast_cost,
    dense_multicast_cost,
    select_core,
)

from tests.helpers import make_subscription_set


@pytest.fixture
def line_setup():
    """Path network 0-1-2-3 with one subscriber per node 1..3."""
    g = Graph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(2, 3, 4.0)
    routing = RoutingTables(g)
    space = EventSpace([Dimension("x", 0, 9)])
    subs = make_subscription_set(
        space,
        [
            (1, [(-1, 9)]),
            (2, [(-1, 9)]),
            (3, [(-1, 9)]),
        ],
    )
    return routing, subs


class TestPlanCost:
    def test_pure_unicast_plan(self, line_setup):
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "dense")
        plan = DeliveryPlan(
            interested=np.array([0, 1, 2]),
            unicast_subscribers=np.array([0, 1, 2]),
        )
        # nodes 1,2,3 at distances 1,3,7
        assert dispatcher.plan_cost(0, plan) == pytest.approx(11.0)

    def test_pure_multicast_plan_dense(self, line_setup):
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "dense")
        plan = DeliveryPlan(
            interested=np.array([0, 1, 2]),
            group_ids=[0],
            group_members=[np.array([0, 1, 2])],
        )
        # SPT edges 0-1,1-2,2-3 once each
        assert dispatcher.plan_cost(0, plan) == pytest.approx(7.0)

    def test_multicast_plus_unicast(self, line_setup):
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "dense")
        plan = DeliveryPlan(
            interested=np.array([0, 2]),
            group_ids=[0],
            group_members=[np.array([0])],  # node 1
            unicast_subscribers=np.array([2]),  # node 3
        )
        assert dispatcher.plan_cost(0, plan) == pytest.approx(1.0 + 7.0)

    def test_unicast_deduped_against_multicast_coverage(self, line_setup):
        """A node already covered by a group gets no extra unicast copy."""
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "dense")
        plan = DeliveryPlan(
            interested=np.array([0, 1]),
            group_ids=[0],
            group_members=[np.array([0, 1])],  # nodes 1, 2
            unicast_subscribers=np.array([1]),  # node 2: already covered
        )
        assert dispatcher.plan_cost(0, plan) == pytest.approx(3.0)

    def test_alm_scheme_uses_overlay(self, line_setup):
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "alm")
        members = np.array([0, 1, 2])
        plan = DeliveryPlan(
            interested=members, group_ids=[0], group_members=[members]
        )
        expected = application_multicast_cost(routing, 0, [1, 2, 3])
        assert dispatcher.plan_cost(0, plan) == pytest.approx(expected)

    def test_alm_never_cheaper_than_dense(self, line_setup):
        routing, subs = line_setup
        members = np.array([0, 2])
        plan = DeliveryPlan(
            interested=members, group_ids=[0], group_members=[members]
        )
        dense = Dispatcher(routing, subs, "dense").plan_cost(0, plan)
        alm = Dispatcher(routing, subs, "alm").plan_cost(0, plan)
        assert alm >= dense - 1e-9

    def test_invalid_scheme(self, line_setup):
        routing, subs = line_setup
        with pytest.raises(ValueError):
            Dispatcher(routing, subs, "smoke-signals")


class TestReferenceSchemes:
    def test_unicast_reference(self, line_setup):
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "dense")
        assert dispatcher.unicast_reference(0, [0, 1, 2]) == pytest.approx(11.0)
        assert dispatcher.unicast_reference(0, []) == 0.0

    def test_broadcast_reference_constant_in_interest(self, line_setup):
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "dense")
        assert dispatcher.broadcast_reference(0) == pytest.approx(7.0)

    def test_ideal_reference_dense(self, line_setup):
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "dense")
        expected = dense_multicast_cost(routing, 0, [1, 3])
        assert dispatcher.ideal_reference(0, [0, 2]) == pytest.approx(expected)

    def test_ideal_reference_alm(self, line_setup):
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "alm")
        expected = application_multicast_cost(routing, 0, [1, 3])
        assert dispatcher.ideal_reference(0, [0, 2]) == pytest.approx(expected)

    def test_ideal_no_interest_is_free(self, line_setup):
        routing, subs = line_setup
        for scheme in SCHEMES:
            dispatcher = Dispatcher(routing, subs, scheme)
            assert dispatcher.ideal_reference(0, []) == 0.0

    def test_ordering_invariant(self, line_setup):
        """ideal <= plan cost <= unicast holds for complete single-group
        plans covering exactly the interested subscribers."""
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "dense")
        interested = np.array([0, 1, 2])
        plan = DeliveryPlan(
            interested=interested,
            group_ids=[0],
            group_members=[interested],
        )
        ideal = dispatcher.ideal_reference(0, interested)
        uni = dispatcher.unicast_reference(0, interested)
        cost = dispatcher.plan_cost(0, plan)
        assert ideal - 1e-9 <= cost <= uni + 1e-9


def _mixed_plan():
    """One group (subscribers 0, 1) plus a unicast leg (subscriber 2)."""
    return DeliveryPlan(
        interested=np.array([0, 1, 2]),
        group_ids=[0],
        group_members=[np.array([0, 1])],
        unicast_subscribers=np.array([2]),
    )


class TestPlanCosts:
    def test_plan_costs_batch_matches_loop(self, line_setup):
        routing, subs = line_setup
        batch = Dispatcher(routing, subs, "dense")
        loop = Dispatcher(routing, subs, "dense")
        publishers = [0, 1, 0, 2]
        plans = [_mixed_plan() for _ in publishers]
        costs, wasted = batch.plan_costs(publishers, plans)
        expected = [loop.plan_cost(p, pl) for p, pl in zip(publishers, plans)]
        np.testing.assert_allclose(costs, expected)
        assert wasted.tolist() == [plan.audit() for plan in plans]

    def test_plan_costs_length_mismatch(self, line_setup):
        routing, subs = line_setup
        dispatcher = Dispatcher(routing, subs, "dense")
        with pytest.raises(ValueError):
            dispatcher.plan_costs([0, 1], [_mixed_plan()])


@pytest.fixture
def ring_setup():
    """Ring 0..5 with a 0-3 chord; subscribers on nodes 1, 2, 4 and 5.

    Nodes 0 and 3 carry no subscriber, so failing either leaves every
    subscriber reachable over the other side of the ring.  Publisher 1's
    tree uses link 1-2 and node 3, so failing either moves its prices.
    """
    g = Graph(6)
    for u, v, cost in (
        (0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0),
        (3, 4, 3.0), (4, 5, 1.0), (5, 0, 5.0), (0, 3, 4.0),
    ):
        g.add_edge(u, v, cost)
    routing = RoutingTables(g)
    space = EventSpace([Dimension("x", 0, 9)])
    subs = make_subscription_set(
        space, [(node, [(-1, 9)]) for node in (1, 2, 4, 5)]
    )
    return routing, subs


# (setup, mutation) per topology change: the warm dispatcher first
# prices after ``setup`` and must then see through the mutation
MUTATIONS = {
    "fail_link": (lambda r: None, lambda r: r.fail_link(1, 2)),
    "heal_link": (lambda r: r.fail_link(1, 2), lambda r: r.heal_link(1, 2)),
    "fail_node": (lambda r: None, lambda r: r.fail_node(3)),
    "heal_node": (lambda r: r.fail_node(3), lambda r: r.heal_node(3)),
}


class TestTopologyChanges:
    """A dispatcher that priced before a topology change prices exactly
    like one built fresh on the mutated routing."""

    PUBLISHER = 1
    INTERESTED = np.array([1, 2, 3])

    def _plan(self):
        # group over nodes 2 and 4, unicast to node 5
        return DeliveryPlan(
            interested=self.INTERESTED,
            group_ids=[0],
            group_members=[np.array([1, 2])],
            unicast_subscribers=np.array([3]),
        )

    def _prices(self, dispatcher):
        return (
            dispatcher.plan_cost(self.PUBLISHER, self._plan()),
            dispatcher.ideal_reference(self.PUBLISHER, self.INTERESTED),
        )

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_fresh_dispatcher(self, ring_setup, scheme, mutation):
        routing, subs = ring_setup
        setup, mutate = MUTATIONS[mutation]
        setup(routing)
        warm = Dispatcher(routing, subs, scheme)
        before = self._prices(warm)
        mutate(routing)
        after = self._prices(warm)
        assert after == self._prices(Dispatcher(routing, subs, scheme))
        if mutation.startswith("fail"):
            # the failed element was on the publisher's tree
            assert after != before

    def test_unpinned_sparse_core_reelected(self, ring_setup):
        routing, subs = ring_setup
        auto = Dispatcher(routing, subs, "sparse")
        assert auto.core == select_core(routing) == 2
        routing.fail_link(0, 1)  # the 1-median moves to node 3
        assert auto.core == select_core(routing) == 3

    def test_pinned_sparse_core_kept(self, ring_setup):
        routing, subs = ring_setup
        pinned = Dispatcher(routing, subs, "sparse", core=4)
        routing.fail_link(1, 2)  # the 1-median moves to node 3
        assert pinned.core == 4
