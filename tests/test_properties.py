"""Property-based tests (hypothesis) for the core data structures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    LatticeBlockMass,
    expected_waste,
    pairwise_waste_matrix,
    waste_to_clusters,
)
from repro.geometry import Dimension, EventSpace, Interval, Rectangle
from repro.matching import RTree
from repro.network import Graph, UnionFind

from tests.helpers import locate, match_one, wasted_deliveries

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
# Coordinates are quantised to 3 decimals: attribute domains in the paper
# are integer lattices, and sub-nanoscale floats (denormals, 1e-165) only
# exercise the gap between exact comparison and floating-point arithmetic,
# not the geometry being specified.
finite = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
).map(lambda x: round(x, 3))
endpoints = st.one_of(
    finite, st.just(-math.inf), st.just(math.inf)
)


@st.composite
def intervals(draw):
    lo = draw(endpoints)
    hi = draw(endpoints)
    return Interval.make(lo, hi)


@st.composite
def rectangles(draw, dims=2):
    return Rectangle(tuple(draw(intervals()) for _ in range(dims)))


@st.composite
def points(draw, dims=2):
    return tuple(draw(finite) for _ in range(dims))


class TestIntervalProperties:
    @given(intervals(), intervals())
    def test_intersection_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(intervals(), intervals(), intervals())
    def test_intersection_associative(self, a, b, c):
        assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))

    @given(intervals(), intervals(), finite)
    def test_intersection_membership(self, a, b, x):
        assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))

    @given(intervals(), intervals(), finite)
    def test_hull_contains_members(self, a, b, x):
        if a.contains(x) or b.contains(x):
            assert a.hull(b).contains(x)

    @given(intervals(), intervals())
    def test_intersection_inside_both(self, a, b):
        inter = a.intersect(b)
        assert a.contains_interval(inter)
        assert b.contains_interval(inter)

    @given(intervals(), intervals())
    def test_overlap_iff_nonempty_intersection(self, a, b):
        assert a.overlaps(b) == (not a.intersect(b).is_empty)

    @given(intervals())
    def test_cell_range_is_exact(self, iv):
        """cell_range returns exactly the overlapping grid cells."""
        origin, width, n = -1.0, 1.0, 10
        got = list(iv.cell_range(origin, width, n))
        expected = [
            i
            for i in range(n)
            if iv.overlaps(
                Interval.make(origin + i * width, origin + (i + 1) * width)
            )
        ]
        assert got == expected


class TestRectangleProperties:
    @given(rectangles(), rectangles(), points())
    def test_intersection_membership(self, a, b, p):
        assert a.intersect(b).contains(p) == (a.contains(p) and b.contains(p))

    @given(rectangles(), rectangles())
    def test_intersection_inside_both(self, a, b):
        inter = a.intersect(b)
        assert a.contains_rectangle(inter)
        assert b.contains_rectangle(inter)

    @given(rectangles(), rectangles())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        assert hull.contains_rectangle(a)
        assert hull.contains_rectangle(b)

    @given(rectangles(), points())
    def test_containment_transitive_through_hull(self, a, p):
        if a.contains(p):
            assert a.hull(a).contains(p)


class TestUnionFindProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=39),
                st.integers(min_value=0, max_value=39),
            ),
            max_size=60,
        ),
    )
    def test_components_match_reference(self, n, pairs):
        """UnionFind agrees with a naive set-merging reference."""
        uf = UnionFind(n)
        reference = [{i} for i in range(n)]
        lookup = list(range(n))
        for a, b in pairs:
            a, b = a % n, b % n
            uf.union(a, b)
            ra, rb = lookup[a], lookup[b]
            if ra != rb:
                reference[ra] |= reference[rb]
                for x in reference[rb]:
                    lookup[x] = ra
                reference[rb] = set()
        expected_components = sum(1 for s in reference if s)
        assert uf.components == expected_components
        for a in range(n):
            for b in range(n):
                assert uf.connected(a, b) == (lookup[a] == lookup[b])


class TestWasteProperties:
    membership_matrix = st.integers(min_value=2, max_value=8).flatmap(
        lambda m: st.integers(min_value=1, max_value=10).flatmap(
            lambda s: st.tuples(
                st.lists(
                    st.lists(st.booleans(), min_size=s, max_size=s),
                    min_size=m,
                    max_size=m,
                ),
                st.lists(
                    st.floats(min_value=0, max_value=1),
                    min_size=m,
                    max_size=m,
                ),
            )
        )
    )

    @given(membership_matrix)
    def test_pairwise_matrix_properties(self, data):
        rows, probs = data
        membership = np.array(rows, dtype=bool)
        probs = np.array(probs)
        matrix = pairwise_waste_matrix(membership, probs)
        assert (matrix >= -1e-6).all()
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-5)
        np.testing.assert_allclose(np.diag(matrix), 0.0)

    @given(membership_matrix)
    def test_matrix_matches_scalar(self, data):
        rows, probs = data
        membership = np.array(rows, dtype=bool)
        probs = np.array(probs)
        matrix = pairwise_waste_matrix(membership, probs)
        for i in range(len(rows)):
            for j in range(len(rows)):
                if i != j:
                    expected = expected_waste(
                        membership[i], probs[i], membership[j], probs[j]
                    )
                    assert matrix[i, j] == pytest.approx(expected, abs=1e-4)

    @given(membership_matrix)
    def test_identical_rows_zero_distance(self, data):
        rows, probs = data
        membership = np.array(rows, dtype=bool)
        d = expected_waste(membership[0], probs[0], membership[0], probs[1])
        assert d == 0.0

    @given(membership_matrix)
    def test_cluster_distance_consistency(self, data):
        """waste_to_clusters against clusters == pairwise matrix columns."""
        rows, probs = data
        membership = np.array(rows, dtype=bool)
        probs = np.array(probs)
        full = pairwise_waste_matrix(membership, probs)
        cross = waste_to_clusters(membership, probs, membership, probs)
        np.testing.assert_allclose(full, cross, atol=1e-4)


@st.composite
def bounded_rectangles(draw, dims=2, span=10):
    sides = []
    for _ in range(dims):
        lo = round(draw(st.floats(min_value=-1, max_value=span)), 3)
        width = round(draw(st.floats(min_value=0.0, max_value=span)), 3)
        sides.append(Interval.make(lo, lo + width))
    return Rectangle(tuple(sides))


class TestRTreeProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(bounded_rectangles(), min_size=1, max_size=40),
        st.lists(points(), min_size=1, max_size=10),
    )
    def test_stab_matches_bruteforce(self, rects, pts):
        rects = [r for r in rects if not r.is_empty] or [Rectangle.full(2)]
        tree = RTree(rects, leaf_capacity=4)
        for p in pts:
            expected = [i for i, r in enumerate(rects) if r.contains(p)]
            assert list(tree.stab(p)) == expected


class TestBlockMassProperties:
    @settings(max_examples=40, deadline=None)
    @given(bounded_rectangles(span=6), st.integers(min_value=0, max_value=9999))
    def test_mass_matches_bruteforce(self, rect, seed):
        space = EventSpace([Dimension("x", 0, 5), Dimension("y", 0, 5)])
        rng = np.random.default_rng(seed)
        pmf = rng.random(space.n_cells)
        pmf /= pmf.sum()
        mass = LatticeBlockMass(space, pmf)
        expected = sum(
            pmf[c]
            for c in range(space.n_cells)
            if rect.contains_rectangle(space.cell_rectangle(c))
        )
        assert mass.rectangle_mass(rect) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(bounded_rectangles(span=6), bounded_rectangles(span=6))
    def test_mass_monotone_in_containment(self, a, b):
        space = EventSpace([Dimension("x", 0, 5), Dimension("y", 0, 5)])
        pmf = np.full(space.n_cells, 1.0 / space.n_cells)
        mass = LatticeBlockMass(space, pmf)
        hull = a.hull(b)
        assert mass.rectangle_mass(hull) >= mass.rectangle_mass(a) - 1e-12


class TestSpaceProperties:
    @settings(max_examples=60, deadline=None)
    @given(points())
    def test_locate_agrees_with_cell_rectangles(self, p):
        space = EventSpace([Dimension("x", 0, 7), Dimension("y", 0, 7)])
        located = locate(space, p)
        containing = [
            c
            for c in range(space.n_cells)
            if space.cell_rectangle(c).contains(p)
        ]
        if located == -1:
            assert containing == []
        else:
            assert containing == [located]

    @settings(max_examples=40, deadline=None)
    @given(bounded_rectangles(span=8))
    def test_cells_overlapping_exact(self, rect):
        space = EventSpace([Dimension("x", 0, 7), Dimension("y", 0, 7)])
        got = sorted(space.cells_in_rectangle(rect))
        expected = [
            c
            for c in range(space.n_cells)
            if space.cell_rectangle(c).overlaps(rect)
        ]
        assert got == expected


class TestGraphProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=15),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=14),
                st.integers(min_value=0, max_value=14),
                st.floats(min_value=0.1, max_value=10),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_dijkstra_relaxation_invariant(self, n, edges):
        """No edge can relax any computed shortest-path distance."""
        g = Graph(n)
        for a, b, w in edges:
            a, b = a % n, b % n
            if a != b:
                g.add_edge(a, b, w)
        sp = g.shortest_paths(0)
        for u, v, w in g.edges():
            if sp.reachable(u):
                assert sp.dist[v] <= sp.dist[u] + w + 1e-9
            if sp.reachable(v):
                assert sp.dist[u] <= sp.dist[v] + w + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_tree_cost_between_max_distance_and_unicast(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        g = Graph(n)
        for i in range(1, n):
            g.add_edge(i, int(rng.integers(0, i)), float(rng.uniform(1, 5)))
        sp = g.shortest_paths(0)
        targets = [int(t) for t in rng.choice(n, size=5, replace=False)]
        cost = sp.tree_cost(targets)
        assert cost >= max(sp.dist[t] for t in targets) - 1e-9
        assert cost <= sum(sp.dist[t] for t in targets) + 1e-9


@st.composite
def random_workload(draw):
    """A small random subscription workload on a shared 2-d space."""
    space = EventSpace([Dimension("x", 0, 6), Dimension("y", 0, 6)])
    n_subs = draw(st.integers(min_value=2, max_value=10))
    subs = []
    from repro.workload import Subscription, SubscriptionSet

    for s in range(n_subs):
        lo_x = draw(st.integers(min_value=-1, max_value=5))
        lo_y = draw(st.integers(min_value=-1, max_value=5))
        w = draw(st.integers(min_value=1, max_value=7))
        h = draw(st.integers(min_value=1, max_value=7))
        subs.append(
            Subscription(
                s,
                s,
                Rectangle.from_bounds(
                    (lo_x, lo_y), (min(lo_x + w, 6), min(lo_y + h, 6))
                ),
            )
        )
    return space, SubscriptionSet(space, subs)


class TestPipelineProperties:
    @settings(max_examples=25, deadline=None)
    @given(random_workload(), st.integers(min_value=1, max_value=6))
    def test_grid_matcher_complete_and_consistent(self, workload, k):
        """For any random workload and group budget, every grid-matcher
        plan covers all interested subscribers and never unicasts a
        group member."""
        from repro.clustering import ForgyKMeansClustering
        from repro.grid import build_cell_set
        from repro.matching import GridMatcher

        space, subs = workload
        pmf = np.full(space.n_cells, 1.0 / space.n_cells)
        cells = build_cell_set(space, subs, pmf)
        clustering = ForgyKMeansClustering().fit(cells, k)
        matcher = GridMatcher(clustering, subs)
        for cell in range(space.n_cells):
            plan = match_one(matcher, space.cell_value(cell))
            plan.audit()
            if plan.uses_multicast:
                overlap = np.intersect1d(
                    plan.unicast_subscribers, plan.group_members[0]
                )
                assert len(overlap) == 0

    @settings(max_examples=25, deadline=None)
    @given(random_workload(), st.integers(min_value=1, max_value=5))
    def test_noloss_guarantee_holds(self, workload, k):
        """For any random workload: a matched no-loss group only ever
        contains interested subscribers (zero waste, by construction)."""
        from repro.clustering import NoLossAlgorithm
        from repro.matching import NoLossMatcher

        space, subs = workload
        pmf = np.full(space.n_cells, 1.0 / space.n_cells)
        try:
            result = NoLossAlgorithm(n_keep=60, iterations=2).fit(
                subs, pmf, k, rng=np.random.default_rng(0)
            )
        except ValueError:
            return  # workload has no positive-weight region: vacuous
        matcher = NoLossMatcher(result, subs)
        for cell in range(space.n_cells):
            plan = match_one(matcher, space.cell_value(cell))
            plan.audit()
            assert wasted_deliveries(plan) == 0

    @settings(max_examples=20, deadline=None)
    @given(random_workload(), st.integers(min_value=1, max_value=6))
    def test_clustering_objective_bounded_by_total_interest(
        self, workload, k
    ):
        """Total expected waste can never exceed (subscribers - 1) per
        event: a group can waste at most everyone-but-the-interested-one."""
        from repro.clustering import KMeansClustering
        from repro.grid import build_cell_set

        space, subs = workload
        pmf = np.full(space.n_cells, 1.0 / space.n_cells)
        cells = build_cell_set(space, subs, pmf)
        clustering = KMeansClustering().fit(cells, k)
        bound = cells.probs.sum() * (subs.n_subscribers - 1)
        assert clustering.total_expected_waste() <= bound + 1e-9
