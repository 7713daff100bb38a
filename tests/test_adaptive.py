"""Tests for the adaptive unicast/multicast/broadcast policy."""

import numpy as np
import pytest

from repro.delivery import AdaptiveDeliveryPolicy, Dispatcher
from repro.geometry import Dimension, EventSpace
from repro.matching import GroupTable, PlanRun
from repro.network import Graph, RoutingTables

from tests.helpers import decision_of, make_subscription_set


@pytest.fixture
def setup():
    """Path network 0-1-2-3-4 with one subscriber per node 1..4."""
    g = Graph(5)
    for i in range(4):
        g.add_edge(i, i + 1, 1.0)
    routing = RoutingTables(g)
    space = EventSpace([Dimension("x", 0, 9)])
    subs = make_subscription_set(
        space, [(i + 1, [(-1, 9)]) for i in range(4)]
    )
    dispatcher = Dispatcher(routing, subs, "dense")
    return dispatcher


def plan_for(interested, members=None):
    """A one-event run: unicast to ``interested``, or multicast to
    group 0 of ``members`` plus unicast to the interested non-members."""
    interested = np.asarray(interested, dtype=np.int64)
    if members is None:
        return PlanRun.of_interest([interested])
    table = GroupTable.of([np.asarray(members, dtype=np.int64)], 4)
    run, _ = PlanRun.assemble(
        interested, np.array([len(interested)]), np.array([0]), table
    )
    return run


def decide(policy, publisher, run):
    """The policy's decision for a one-event run, priced by its
    dispatcher."""
    priced = policy.dispatcher.price_run(
        [publisher], interested=run.interested, plans=run
    )
    unicast, _, plan_cost, broadcast = priced.T
    return decision_of(
        policy.decide(run, unicast, plan_cost, broadcast), 0, run, priced,
        policy.broadcast_penalty,
    )


class TestDecision:
    def test_single_subscriber_prefers_unicast(self, setup):
        policy = AdaptiveDeliveryPolicy(setup)
        # one interested subscriber at node 1: unicast costs 1, broadcast 4
        decision = decide(policy, 0, plan_for([0]))
        assert decision.mode == "unicast"
        assert decision.cost == pytest.approx(1.0)

    def test_everyone_interested_prefers_broadcast_or_ties(self, setup):
        policy = AdaptiveDeliveryPolicy(setup)
        # all four subscribers: unicast 1+2+3+4=10, broadcast 4
        decision = decide(policy, 0, plan_for([0, 1, 2, 3]))
        assert decision.mode == "broadcast"
        assert decision.cost == pytest.approx(4.0)

    def test_good_group_prefers_multicast(self, setup):
        policy = AdaptiveDeliveryPolicy(
            setup, broadcast_penalty=2.0
        )
        # group covering exactly the interested pair {2,3} (nodes 3,4):
        # multicast 4, unicast 3+4=7, broadcast 4*2=8
        decision = decide(policy, 0, plan_for([2, 3], members=[2, 3]))
        assert decision.mode == "multicast"
        assert decision.cost == pytest.approx(4.0)

    def test_no_interest_unicasts_nothing(self, setup):
        policy = AdaptiveDeliveryPolicy(setup)
        decision = decide(policy, 0, plan_for([]))
        assert decision.mode == "unicast"
        assert decision.cost == 0.0
        assert "broadcast" not in decision.candidate_costs

    def test_broadcast_penalty(self, setup):
        cheap = AdaptiveDeliveryPolicy(setup, broadcast_penalty=1.0)
        pricey = AdaptiveDeliveryPolicy(setup, broadcast_penalty=3.0)
        plan = plan_for([0, 1, 2, 3])
        assert decide(cheap, 0, plan).mode == "broadcast"
        assert decide(pricey, 0, plan).mode == "unicast"

    def test_penalty_validated(self, setup):
        with pytest.raises(ValueError):
            AdaptiveDeliveryPolicy(setup, broadcast_penalty=0.5)

    def test_savings_accounting(self, setup):
        policy = AdaptiveDeliveryPolicy(setup)
        decision = decide(policy, 0, plan_for([0, 1, 2, 3]))
        saving = decision.candidate_costs["unicast"] - decision.cost
        assert saving == pytest.approx(10.0 - 4.0)

    def test_mode_rates(self, setup):
        policy = AdaptiveDeliveryPolicy(setup)
        decide(policy, 0, plan_for([0]))
        decide(policy, 0, plan_for([0, 1, 2, 3]))
        assert policy.mode_counts == {
            "unicast": 1,
            "multicast": 0,
            "broadcast": 1,
        }

    def test_empty_rates(self, setup):
        policy = AdaptiveDeliveryPolicy(setup)
        assert policy.mode_counts == {
            "unicast": 0,
            "multicast": 0,
            "broadcast": 0,
        }


class TestAdaptiveNeverWorse:
    def test_decision_at_most_every_candidate(self, setup, rng):
        """The chosen mode's cost is the minimum by construction; spot
        check against random plans."""
        policy = AdaptiveDeliveryPolicy(setup)
        for _ in range(20):
            interested = np.unique(rng.integers(0, 4, size=3))
            members = np.unique(rng.integers(0, 4, size=2))
            plan = plan_for(interested, members=members)
            decision = decide(policy, 0, plan)
            for cost in decision.candidate_costs.values():
                assert decision.cost <= cost + 1e-9


class TestObsInstrumentation:
    """decide() must feed the mode counter and cost-gap histogram."""

    def test_mode_counter_increments(self, setup):
        from repro.obs import get_registry

        counter = get_registry().counter(
            "delivery_mode_total", "adaptive per-event mode decisions"
        )
        policy = AdaptiveDeliveryPolicy(setup)
        before = counter.labels(mode="unicast").value
        decision = decide(policy, 0, plan_for([0]))
        assert decision.mode == "unicast"
        assert counter.labels(mode="unicast").value == before + 1

    def test_gap_histogram_observes(self, setup):
        from repro.obs import get_registry

        policy = AdaptiveDeliveryPolicy(setup)
        child = get_registry().get("delivery_mode_cost_gap").labels()
        before = child.count
        decide(policy, 0, plan_for([0]))
        decide(policy, 0, plan_for([0, 1, 2, 3]))
        assert child.count == before + 2

    def test_realized_gap_vs_fixed_policy(self, setup):
        policy = AdaptiveDeliveryPolicy(setup)
        # a wasteful group: the fixed policy executes the plan, the
        # adaptive one pays the cheaper unicast — the gap is the spread
        decision = decide(policy, 0, plan_for([0], members=[0, 1, 2, 3]))
        fixed = decision.candidate_costs.get(
            "multicast", decision.candidate_costs["unicast"]
        )
        assert decision.realized_gap == pytest.approx(fixed - decision.cost)
        assert decision.realized_gap >= 0.0

    def test_realized_gap_zero_when_plan_wins(self, setup):
        policy = AdaptiveDeliveryPolicy(setup)
        # everyone interested and grouped: the plan is the cheapest mode
        decision = decide(
            policy, 0, plan_for([0, 1, 2, 3], members=[0, 1, 2, 3])
        )
        if decision.mode == "multicast":
            assert decision.realized_gap == 0.0
        else:
            assert decision.realized_gap >= 0.0
