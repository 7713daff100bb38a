"""The publish run's array form against the per-event reference.

A run of plans (:class:`repro.matching.PlanRun`) is priced, audited,
decided and folded into the stats as columns.  On random runs, on every
kernel backend, each column must equal what the per-event path computes
bit for bit: ``Dispatcher._price_events`` for the costs,
``DeliveryPlan.audit`` for the wasted deliveries, a per-event ``min``
over the candidate costs for the adaptive decision, and one receipt at a
time for the stats totals.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import DeliveryReceipt, DeliveryStats, ReceiptRun
from repro.clustering import NoLossResult
from repro.delivery import AdaptiveDeliveryPolicy, Dispatcher
from repro.delivery.adaptive import MODES
from repro.delivery.dispatcher import route_table
from repro.geometry import Dimension, EventSpace
from repro.kernels import available_backends, set_backend
from repro.kernels import backends as _backends
from repro.matching import GroupTable, NoLossMatcher, PlanRun
from repro.network import Graph, RoutingTables

from tests.helpers import decision_of, make_subscription_set


def _on_each_backend(check):
    try:
        for name in available_backends():
            set_backend(name)
            check(name)
    finally:
        _backends._reset_for_testing()


def _dispatcher(rng, n_nodes, n_subs):
    """Dense pricing over a random connected graph whose edge costs
    span seven orders of magnitude (so a float sum's order shows in its
    last bits), with subscribers on random nodes."""
    graph = Graph(n_nodes)
    edges = {}
    for v in range(1, n_nodes):
        edges[(int(rng.integers(0, v)), v)] = None
    for _ in range(n_nodes // 3):
        u, v = sorted(int(x) for x in rng.integers(0, n_nodes, 2))
        if u != v:
            edges[(u, v)] = None
    for u, v in edges:
        graph.add_edge(
            u, v, float(rng.uniform(1.0, 50.0) * 10.0 ** rng.integers(-3, 4))
        )
    space = EventSpace([Dimension("x", 0, 9)])
    subs = make_subscription_set(
        space,
        [(int(node), [(0, 5)]) for node in rng.integers(0, n_nodes, n_subs)],
    )
    return Dispatcher(RoutingTables(graph), subs, "dense")


def _random_run(rng, n_subs, threshold):
    """A run assembled from random interest sets and candidate groups
    (empty interest, unicast-only events and, with a threshold,
    rejected groups all occur)."""
    n_groups = int(rng.integers(0, 4))
    lists = [
        np.unique(rng.integers(0, n_subs, rng.integers(1, n_subs + 1)))
        for _ in range(n_groups)
    ]
    table = GroupTable.of(lists, n_subs)
    n_events = int(rng.integers(0, 12))
    interested = [
        np.unique(rng.integers(0, n_subs, rng.integers(0, n_subs + 1)))
        for _ in range(n_events)
    ]
    counts = np.array([len(ids) for ids in interested], dtype=np.int64)
    ids = (
        np.concatenate(interested).astype(np.int64)
        if n_events else np.empty(0, dtype=np.int64)
    )
    groups = rng.integers(-1, n_groups, n_events) if n_groups else np.full(
        n_events, -1
    )
    return PlanRun.assemble(ids, counts, groups, table, threshold)


def _assert_run_matches_reference(dispatcher, publishers, run, penalty):
    """Every column of the run form equals its per-event reference."""
    plans = [run[e] for e in range(len(run))]
    interested = [plan.interested for plan in plans]
    want, _ = dispatcher._price_events(publishers, interested, plans, False)
    want_wasted = [plan.audit() for plan in plans]

    priced, wasted = dispatcher.price_audited(
        publishers, interested=run.interested, plans=run
    )
    assert priced.tobytes() == want.tobytes()
    assert wasted.tolist() == want_wasted
    # the interest sets alone, and the plans alone, price the same
    alone = dispatcher.price_run(publishers, interested=interested)
    assert alone[:, [0, 1, 3]].tobytes() == want[:, [0, 1, 3]].tobytes()
    plan_only = dispatcher.price_run(publishers, plans=run)
    assert plan_only[:, 2].tobytes() == want[:, 2].tobytes()

    policy = AdaptiveDeliveryPolicy(dispatcher, broadcast_penalty=penalty)
    unicast, ideal, plan_cost, broadcast = priced.T
    decisions = policy.decide(run, unicast, plan_cost, broadcast)
    receipts = []
    for e, plan in enumerate(plans):
        candidates = {"unicast": float(unicast[e])}
        if plan.uses_multicast:
            candidates["multicast"] = float(plan_cost[e])
        if len(plan.interested):
            candidates["broadcast"] = float(broadcast[e]) * penalty
        mode = min(candidates, key=candidates.get)
        decision = decision_of(decisions, e, run, priced, penalty)
        assert decision.mode == mode == MODES[decisions.mode[e]]
        assert decision.cost == candidates[mode] == decisions.cost[e]
        assert decision.candidate_costs == candidates
        receipts.append(DeliveryReceipt(
            n_interested=len(plan.interested),
            used_multicast=mode == "multicast",
            cost=candidates[mode],
            unicast_cost=float(unicast[e]),
            ideal_cost=float(ideal[e]),
            wasted_deliveries=want_wasted[e],
            mode=mode,
        ))

    columns = ReceiptRun(
        run.n_interested(), decisions.mode == 1, decisions.cost, unicast,
        ideal, wasted, decisions.mode, MODES,
    )
    assert list(columns) == receipts
    folded, one_by_one = DeliveryStats(), DeliveryStats()
    folded.total_cost = one_by_one.total_cost = 0.1
    folded.record_run(columns)
    for receipt in receipts:
        one_by_one.record_run(ReceiptRun.of([receipt]))
    assert folded.as_dict() == one_by_one.as_dict()


class TestRunForm:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from((None, 0.0, 0.5, 1.0)),
        penalty=st.sampled_from((1.0, 1.5)),
    )
    def test_run_equals_per_event_reference(self, seed, threshold, penalty):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(2, 60))
        n_subs = int(rng.integers(1, 2 * n_nodes + 2))
        dispatcher = _dispatcher(rng, n_nodes, n_subs)
        run, _ = _random_run(rng, n_subs, threshold)
        publishers = rng.integers(0, n_nodes, len(run)).tolist()
        _on_each_backend(lambda _: _assert_run_matches_reference(
            dispatcher, publishers, run, penalty
        ))

    def test_named_cases(self):
        """Empty interest, pure unicast and a threshold fallback, in one
        run: group 0 holds subscribers 0-5, of which event 2 wants only
        one (a sixth, at most the 0.5 threshold), so it falls back."""
        rng = np.random.default_rng(4)
        dispatcher = _dispatcher(rng, 30, 12)
        table = GroupTable.of([np.arange(6)], 12)
        interested = [[], [7, 9], [0, 8, 11], [0, 1, 2, 3, 10]]
        counts = np.array([len(ids) for ids in interested])
        ids = np.array(sum(interested, []), dtype=np.int64)
        run, n_fallbacks = PlanRun.assemble(
            ids, counts, np.array([0, -1, 0, 0]), table, threshold=0.5
        )
        assert n_fallbacks == 2  # events 0 (nobody) and 2 (one of six)
        assert run.groups.tolist() == [-1, -1, -1, 0]
        assert run[3].unicast_subscribers.tolist() == [10]
        unicast_only = run[1]
        assert unicast_only.unicast_subscribers is unicast_only.interested
        assert [plan.group_ids for plan in run[2:]] == [[], [0]]
        _on_each_backend(lambda _: _assert_run_matches_reference(
            dispatcher, [3, 17, 0, 29], run, 1.0
        ))

    def test_noloss_event_outside_every_region(self):
        """A No-Loss run with events inside a region (group plus its
        interested non-members) and one outside every region (pure
        unicast to its interest set)."""
        rng = np.random.default_rng(8)
        dispatcher = _dispatcher(rng, 20, 4)
        subs = dispatcher.subscriptions
        members = [np.array([0, 1], dtype=np.int64)]
        result = NoLossResult(
            space=subs.space,
            los=np.array([[1.0]]),
            his=np.array([[3.0]]),
            weights=np.array([1.0]),
            members=members,
            group_of=np.array([0]),
            group_members=members,
        )
        # every subscriber wants (0, 5]: event 7 lies outside (0, 5]
        # and outside the region (1, 3]
        points = [(2.0,), (4.0,), (7.0,), (2.5,)]

        def check(_):
            run = NoLossMatcher(result, subs).match_batch(points)
            assert run.groups.tolist() == [0, -1, -1, 0]
            assert run[0].unicast_subscribers.tolist() == [2, 3]
            assert run[2].interested.tolist() == []
            _assert_run_matches_reference(dispatcher, [5, 6, 7, 8], run, 1.0)

        _on_each_backend(check)

    @pytest.mark.parametrize("missing", [[0], [0, 2]])
    def test_incomplete_plan_raises_the_audit_text(self, missing):
        """A plan whose unicast ids miss an interested non-member fails
        the kernel's audit with ``DeliveryPlan.audit``'s own error."""
        rng = np.random.default_rng(2)
        dispatcher = _dispatcher(rng, 10, 6)
        table = GroupTable.of([np.array([4, 5])], 6)
        interested = [0, 1, 2, 4]
        unicast = [i for i in (0, 1, 2) if i not in missing]
        ids = np.array(interested + unicast, dtype=np.int64)
        run = PlanRun(
            np.array([0, 0, 0, 4, len(ids)]), np.array([-1, 0]), ids, table
        )
        with pytest.raises(AssertionError) as reference:
            run[1].audit()
        assert "misses interested subscribers" in str(reference.value)

        def check(_):
            with pytest.raises(AssertionError) as raised:
                dispatcher.price_audited(
                    [1, 2], interested=run.interested, plans=run
                )
            assert str(raised.value) == str(reference.value)
            # pricing without the audit does not raise
            dispatcher.price_run([1, 2], plans=run)

        _on_each_backend(check)

    def test_unreachable_node_raises_the_per_event_error(self):
        """Two components, nodes 0..3 and 4..5; subscriber s sits on
        node s, except that 4 and 5 sit on 5 and 4, so the error must
        name the smallest unreachable node, not the first one seen."""
        graph = Graph(6)
        for u, v, cost in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (4, 5, 1.0)]:
            graph.add_edge(u, v, cost)
        space = EventSpace([Dimension("x", 0, 9)])
        subs = make_subscription_set(
            space, [(node, [(0, 5)]) for node in (0, 1, 2, 3, 5, 4)]
        )
        dispatcher = Dispatcher(RoutingTables(graph), subs, "dense")
        table = GroupTable.of([np.array([2, 4, 5]), np.array([2])], 6)

        def run_of(interested, group=-1, unicast=()):
            # a reachable event first, then the failing one
            ids = np.array([1, 2, *interested, *unicast], dtype=np.int64)
            cut = 2 + len(interested)
            return PlanRun(
                np.array([0, 2, 2, cut, cut if group < 0 else len(ids)]),
                np.array([-1, group]), ids, table,
            )

        def error(call):
            with pytest.raises(ValueError) as info:
                call()
            return str(info.value)

        for run in (
            run_of([1, 4, 5]),                    # the unicast reference
            run_of([1], group=0, unicast=[1]),    # a group's tree
            run_of([1], group=1, unicast=[1, 4, 5]),  # the unicast top-up
        ):
            plans = [run[e] for e in range(len(run))]
            interested = [plan.interested for plan in plans]

            def check(_):
                got = error(lambda: dispatcher.price_run(
                    [0, 0], interested=run.interested, plans=run
                ))
                assert got == error(lambda: dispatcher._price_events(
                    [0, 0], interested, plans, False
                ))
                assert got.startswith("node 4 unreachable from")
                assert error(lambda: dispatcher.plan_costs([0, 0], run)) == (
                    error(lambda: [dispatcher.plan_cost(0, p) for p in plans])
                )

            _on_each_backend(check)

    def test_pickled_dispatcher_stages_its_own_routes(self):
        """A copy of a dispatcher that already priced a run stages its
        own shortest-path rows: it prices the same after the original
        restaged (a fail and a heal) and was freed, and the original's
        route table goes with its routing tables."""
        def check(_):
            rng = np.random.default_rng(6)
            original = _dispatcher(rng, 40, 30)
            run, _ = _random_run(rng, 30, 0.0)
            while not len(run):
                run, _ = _random_run(rng, 30, 0.0)
            publishers = rng.integers(0, 40, len(run)).tolist()
            want = original.price_audited(
                publishers, interested=run.interested, plans=run
            )
            copy = pickle.loads(pickle.dumps(original))
            assert route_table(copy.routing).n_rows == 0
            assert route_table(copy.routing) is not route_table(
                original.routing
            )
            original.routing.fail_node(publishers[0])
            original.routing.heal_node(publishers[0])
            original.price_run(publishers, interested=run.interested)
            staged = weakref.ref(route_table(original.routing))
            del original
            gc.collect()
            assert staged() is None
            # reuse the freed memory
            litter = [np.full(40, -1.0) for _ in range(200)]
            got = copy.price_audited(
                publishers, interested=run.interested, plans=run
            )
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tolist() == want[1].tolist()
            del litter

        _on_each_backend(check)
