"""Property-based tests (hypothesis) for subscription aggregation.

Workloads are drawn from a small integer lattice so exact duplicates
(the thing aggregation collapses) occur constantly, and every invariant
is checked against the unaggregated ground truth:

* multiplicities always sum to the number of live subscriptions;
* expanded interest/match sets equal the unaggregated ones across all
  three matchers (brute-force, grid, no-loss);
* aggregate → ``expand_rows`` de-aggregation is the identity on the
  stored bounds, including departed rows;
* under arbitrary online add/deactivate churn the incrementally
  maintained aggregator agrees with a fresh batch aggregation at every
  step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import (
    AggregateView,
    OnlineAggregator,
    aggregate_subscriptions,
    build_aggregate_cells,
)
from repro.clustering import Clustering, NoLossAlgorithm
from repro.geometry import Dimension, EventSpace, Interval, Rectangle
from repro.grid import build_cell_set
from repro.matching import BruteForceMatcher, GridMatcher, NoLossMatcher
from repro.sim.experiment import make_grid_algorithm
from repro.workload import Subscription, SubscriptionSet

SPACE = EventSpace([Dimension("x", 0, 5), Dimension("y", 0, 5)])
UNIFORM_PMF = np.full(SPACE.n_cells, 1.0 / SPACE.n_cells)

# integer lattice endpoints keep duplicate and containment relations
# frequent instead of measure-zero
coords = st.integers(min_value=-1, max_value=5)


@st.composite
def lattice_rectangles(draw):
    los = [draw(coords) for _ in range(2)]
    spans = [draw(st.integers(min_value=0, max_value=4)) for _ in range(2)]
    return Rectangle(
        tuple(
            Interval.make(lo, min(lo + span, 5))
            for lo, span in zip(los, spans)
        )
    )


@st.composite
def workloads(draw, max_subscribers=14):
    """A duplicate-heavy subscription set: few distinct rectangles,
    many subscribers assigned to them."""
    rects = draw(
        st.lists(lattice_rectangles(), min_size=1, max_size=5)
    )
    m = draw(st.integers(min_value=1, max_value=max_subscribers))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(rects) - 1),
            min_size=m,
            max_size=m,
        )
    )
    subs = SubscriptionSet(
        SPACE,
        [
            Subscription(i, i % 3, rects[spec])
            for i, spec in enumerate(assignment)
        ],
    )
    return subs, rects, assignment


@st.composite
def probe_point_lists(draw):
    pts = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=-1.5, max_value=6.5, allow_nan=False),
                st.floats(min_value=-1.5, max_value=6.5, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    # always include every lattice cell centre: lattice-aligned events
    # are the paper's discretised workload
    return pts + [SPACE.cell_value(c) for c in range(SPACE.n_cells)]


def assert_plans_equal(pa, pb):
    np.testing.assert_array_equal(pa.interested, pb.interested)
    assert pa.group_ids == pb.group_ids
    for ma, mb in zip(pa.group_members, pb.group_members):
        np.testing.assert_array_equal(ma, mb)
    np.testing.assert_array_equal(
        pa.unicast_subscribers, pb.unicast_subscribers
    )


class TestAggregationInvariants:
    @given(workloads())
    @settings(max_examples=60, deadline=None)
    def test_multiplicities_sum_to_m(self, workload):
        subs, _, assignment = workload
        agg = aggregate_subscriptions(subs)
        assert int(agg.multiplicity.sum()) == len(assignment)
        assert agg.n_subscriptions == len(assignment)
        assert agg.n_aggregates <= len(set(assignment))
        # members partition the live rows
        np.testing.assert_array_equal(
            np.sort(np.concatenate(agg.members)),
            np.arange(len(assignment)),
        )

    @given(workloads())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity(self, workload):
        subs, _, _ = workload
        agg = aggregate_subscriptions(subs)
        los, his = subs.bounds()
        rlos, rhis = agg.expand_rows(len(los))
        np.testing.assert_array_equal(rlos, los)
        np.testing.assert_array_equal(rhis, his)

    @given(workloads(), probe_point_lists())
    @settings(max_examples=40, deadline=None)
    def test_interest_equals_unaggregated(self, workload, points):
        subs, _, _ = workload
        view = AggregateView(subs)
        mine = view.batch_interested_subscribers(points)
        theirs = subs.batch_interested_subscribers(points)
        for a, b in zip(mine, theirs):
            np.testing.assert_array_equal(a, b)
        for point, ids in zip(points[:3], mine):
            np.testing.assert_array_equal(
                ids, subs.interested_subscribers(point)
            )


class TestMatcherProperties:
    @given(workloads(), probe_point_lists(), st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_all_four_matchers_agree(self, workload, points, seed):
        """Every event's expanded match set (full delivery plan) equals
        the unaggregated one under all four matchers."""
        subs, _, _ = workload
        agg = aggregate_subscriptions(subs)
        try:
            direct_cells = build_cell_set(SPACE, subs, UNIFORM_PMF)
        except ValueError:
            # nothing covers the grid (all-empty/off-grid rectangles):
            # the aggregated build must refuse identically
            with pytest.raises(ValueError, match="no grid cell"):
                build_aggregate_cells(SPACE, subs, agg, UNIFORM_PMF)
            return
        agg_cells, expanded = build_aggregate_cells(
            SPACE, subs, agg, UNIFORM_PMF
        )
        np.testing.assert_array_equal(
            expanded.membership, direct_cells.membership
        )
        view = AggregateView(subs, agg)
        interest = view.batch_interested_subscribers(points)

        # brute force: interest sets drive the whole plan
        brute = BruteForceMatcher(subs)
        for pa, pb in zip(
            brute.match_batch(points, interested=interest),
            brute.match_batch(points),
        ):
            assert_plans_equal(pa, pb)

        # grid: clusterings fitted on weighted aggregate
        # columns vs subscriber columns must produce identical plans
        n_groups = min(3, expanded.n_subscribers)
        direct_fit = make_grid_algorithm("kmeans").fit(
            direct_cells, n_groups, rng=np.random.default_rng(seed)
        )
        agg_fit = make_grid_algorithm("kmeans").fit(
            agg_cells, n_groups, rng=np.random.default_rng(seed)
        )
        via_agg = Clustering(expanded, agg_fit.assignment)
        np.testing.assert_array_equal(
            via_agg.assignment, direct_fit.assignment
        )
        for pa, pb in zip(
            GridMatcher(via_agg, subs).match_batch(points),
            GridMatcher(direct_fit, subs).match_batch(points),
        ):
            assert_plans_equal(pa, pb)

        # no-loss: aggregation only supplies the interest sets
        result = NoLossAlgorithm(n_keep=50, iterations=1).fit(
            subs, UNIFORM_PMF, n_groups, rng=np.random.default_rng(seed)
        )
        noloss = NoLossMatcher(result, subs)
        for pa, pb in zip(
            noloss.match_batch(points, interested=interest),
            noloss.match_batch(points),
        ):
            assert_plans_equal(pa, pb)


@st.composite
def churn_scripts(draw):
    """A sequence of online operations over a fixed rectangle pool:
    ``("add", spec)`` or ``("deactivate", victim_index)``."""
    rects = draw(st.lists(lattice_rectangles(), min_size=1, max_size=4))
    n_ops = draw(st.integers(min_value=1, max_value=12))
    ops = []
    n_live_bound = 0
    for _ in range(n_ops):
        if n_live_bound == 0 or draw(st.booleans()):
            ops.append(("add", draw(st.integers(0, len(rects) - 1))))
            n_live_bound += 1
        else:
            ops.append(("deactivate", draw(st.integers(0, n_live_bound - 1))))
            n_live_bound -= 1
    return rects, ops


class TestOnlineChurnProperties:
    @given(churn_scripts())
    @settings(max_examples=40, deadline=None)
    def test_incremental_aggregator_matches_batch(self, script):
        """After every add/deactivate, the online aggregator's snapshot
        agrees with a fresh batch aggregation of the live set, and the
        aggregate view's interest sets stay exact."""
        rects, ops = script
        aggregator = OnlineAggregator()
        live = []  # live handles in subscribe order
        rect_of = {}
        next_handle = 0
        probe = [SPACE.cell_value(c) for c in range(0, SPACE.n_cells, 7)]
        for op, arg in ops:
            if op == "add":
                handle = next_handle
                next_handle += 1
                aggregator.add(handle, rects[arg])
                rect_of[handle] = rects[arg]
                live.append(handle)
            else:
                victim = live.pop(arg % len(live))
                aggregator.remove(victim)
                del rect_of[victim]
            if not live:
                assert aggregator.snapshot([]).n_aggregates == 0
                continue
            handles = sorted(live)
            snap = aggregator.snapshot(handles)
            # (a) multiplicities sum to the live count
            assert int(snap.multiplicity.sum()) == len(live)
            # rebuild the same live set as a SubscriptionSet: internal
            # ids are positions in the sorted handle list, exactly the
            # broker's rebuild convention
            subs = SubscriptionSet(
                SPACE,
                [
                    Subscription(i, 0, rect_of[h])
                    for i, h in enumerate(handles)
                ],
            )
            batch = aggregate_subscriptions(subs)
            # (d) incremental == batch
            assert snap.n_aggregates == batch.n_aggregates
            np.testing.assert_array_equal(
                snap.multiplicity, batch.multiplicity
            )
            np.testing.assert_array_equal(
                snap.agg_of, batch.subscriber_map(len(handles))
            )
            # (b) interest stays exact at every step
            view = AggregateView(subs, batch)
            for a, b in zip(
                view.batch_interested_subscribers(probe),
                subs.batch_interested_subscribers(probe),
            ):
                np.testing.assert_array_equal(a, b)
            # (c) round trip stays the identity at every step
            los, his = subs.bounds()
            rlos, rhis = batch.expand_rows(len(los))
            np.testing.assert_array_equal(rlos, los)
            np.testing.assert_array_equal(rhis, his)
