"""Unit tests for routing tables and the four delivery cost models."""

import numpy as np
import pytest

from repro.network import (
    Graph,
    RoutingTables,
    application_multicast_cost,
    broadcast_cost,
    dense_multicast_cost,
    ideal_multicast_cost,
    unicast_cost,
)

from tests.helpers import cached_sources


@pytest.fixture
def line_routing():
    """0 -1- 1 -2- 2 -4- 3 (a path graph with distinct costs)."""
    g = Graph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(2, 3, 4.0)
    return RoutingTables(g)


class TestRoutingTables:
    def test_distance_symmetric(self, small_routing, small_topology):
        n = small_topology.n_nodes
        for u, v in [(0, n - 1), (1, n // 2), (3, 4)]:
            assert small_routing.distance(u, v) == pytest.approx(
                small_routing.distance(v, u)
            )

    def test_distance_matrix_matches_single_source(self, line_routing):
        matrix = line_routing.distance_matrix()
        assert matrix[0, 3] == pytest.approx(7.0)
        assert matrix[1, 3] == pytest.approx(6.0)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 0.0)

    def test_caching(self, line_routing):
        line_routing.shortest_paths(2)
        assert 2 in cached_sources(line_routing)
        for source in (0, 1):
            line_routing.shortest_paths(source)
        assert set(cached_sources(line_routing)) >= {0, 1, 2}

    def test_triangle_inequality(self, small_routing, small_topology):
        matrix = small_routing.distance_matrix()
        n = small_topology.n_nodes
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j, k = rng.integers(0, n, size=3)
            assert matrix[i, j] <= matrix[i, k] + matrix[k, j] + 1e-9


class TestCostModels:
    def test_unicast_line(self, line_routing):
        # copies to 1, 2, 3 travel 1, 3, 7
        assert unicast_cost(line_routing, 0, [1, 2, 3]) == pytest.approx(11.0)

    def test_unicast_deduplicates_nodes(self, line_routing):
        assert unicast_cost(line_routing, 0, [3, 3, 3]) == pytest.approx(7.0)

    def test_unicast_empty(self, line_routing):
        assert unicast_cost(line_routing, 0, []) == 0.0

    def test_broadcast_line(self, line_routing):
        # SPT from 0 over the path uses all edges once
        assert broadcast_cost(line_routing, 0) == pytest.approx(7.0)
        assert broadcast_cost(line_routing, 1) == pytest.approx(7.0)

    def test_dense_multicast_shares_path_prefix(self, line_routing):
        # delivery to {2, 3} uses edges (0,1),(1,2),(2,3) exactly once
        assert dense_multicast_cost(line_routing, 0, [2, 3]) == pytest.approx(7.0)
        # unicast pays the shared prefix twice
        assert unicast_cost(line_routing, 0, [2, 3]) == pytest.approx(10.0)

    def test_ideal_equals_dense_on_interested(self, line_routing):
        assert ideal_multicast_cost(line_routing, 0, [1, 3]) == pytest.approx(
            dense_multicast_cost(line_routing, 0, [1, 3])
        )

    def test_application_multicast_line(self, line_routing):
        # overlay MST over {0, 2, 3} in the metric closure: edges 0-2 (3)
        # and 2-3 (4)
        assert application_multicast_cost(
            line_routing, 0, [2, 3]
        ) == pytest.approx(7.0)

    def test_alm_at_least_dense(self, small_routing, small_topology):
        rng = np.random.default_rng(5)
        n = small_topology.n_nodes
        for _ in range(20):
            publisher = int(rng.integers(0, n))
            members = rng.choice(n, size=6, replace=False).tolist()
            dense = dense_multicast_cost(small_routing, publisher, members)
            alm = application_multicast_cost(small_routing, publisher, members)
            assert alm >= dense - 1e-9

    def test_dense_at_most_unicast(self, small_routing, small_topology):
        rng = np.random.default_rng(6)
        n = small_topology.n_nodes
        for _ in range(20):
            publisher = int(rng.integers(0, n))
            members = rng.choice(n, size=8, replace=False).tolist()
            dense = dense_multicast_cost(small_routing, publisher, members)
            uni = unicast_cost(small_routing, publisher, members)
            assert dense <= uni + 1e-9

    def test_dense_at_most_broadcast(self, small_routing, small_topology):
        rng = np.random.default_rng(7)
        n = small_topology.n_nodes
        publisher = 0
        members = rng.choice(n, size=10, replace=False).tolist()
        assert dense_multicast_cost(
            small_routing, publisher, members
        ) <= broadcast_cost(small_routing, publisher) + 1e-9

    def test_multicast_monotone_in_members(self, line_routing):
        a = dense_multicast_cost(line_routing, 0, [1])
        b = dense_multicast_cost(line_routing, 0, [1, 2])
        c = dense_multicast_cost(line_routing, 0, [1, 2, 3])
        assert a <= b <= c

    def test_alm_includes_publisher(self, line_routing):
        # group {3} alone: publisher 0 must still reach it => cost 7
        assert application_multicast_cost(line_routing, 0, [3]) == pytest.approx(7.0)

    def test_alm_empty_group(self, line_routing):
        assert application_multicast_cost(line_routing, 0, []) == 0.0

    def test_multicast_to_publisher_only(self, line_routing):
        assert dense_multicast_cost(line_routing, 0, [0]) == 0.0


class TestSparseMulticast:
    def test_line_detour(self, line_routing):
        from repro.network import sparse_multicast_cost

        # core at node 1; delivering to {3} from 0: 0->1 (1) + 1->3 (6)
        assert sparse_multicast_cost(
            line_routing, 0, [3], core=1
        ) == pytest.approx(7.0)
        # core at node 3 forces a full detour: 0->3 (7) + nothing further
        assert sparse_multicast_cost(
            line_routing, 0, [3], core=3
        ) == pytest.approx(7.0)
        # core far from the member: 0->3 (7) + 3->1 (6)
        assert sparse_multicast_cost(
            line_routing, 0, [1], core=3
        ) == pytest.approx(13.0)

    def test_empty_group_free(self, line_routing):
        from repro.network import sparse_multicast_cost

        assert sparse_multicast_cost(line_routing, 0, [], core=2) == 0.0

    def test_decomposition_identity(self, small_routing, small_topology):
        """Sparse cost == publisher-to-core distance + core's pruned tree.

        (No dense-vs-sparse inequality is asserted: a shared tree can
        legitimately beat a union of per-member shortest paths when the
        core sits between scattered members.)
        """
        from repro.network import (
            dense_multicast_cost,
            select_core,
            sparse_multicast_cost,
        )

        rng = np.random.default_rng(9)
        core = select_core(small_routing)
        n = small_topology.n_nodes
        for _ in range(15):
            publisher = int(rng.integers(0, n))
            members = rng.choice(n, size=6, replace=False).tolist()
            sparse = sparse_multicast_cost(
                small_routing, publisher, members, core
            )
            expected = small_routing.distance(
                publisher, core
            ) + dense_multicast_cost(small_routing, core, members)
            assert sparse == pytest.approx(expected)

    def test_select_core_is_one_median(self, line_routing):
        from repro.network import select_core

        # on the path 0-1-2-3 with costs 1,2,4 the total distances are
        # 0:11, 1:10, 2:12, 3:22 -> node 1 is the 1-median
        assert select_core(line_routing) == 1

    def test_select_core_tie_breaks_to_lowest_id(self):
        """Core election is a pure function of the topology: when
        several nodes tie for the 1-median, the lowest node id wins —
        never an argmin/array-layout accident."""
        from repro.network import select_core

        # a 4-cycle with equal edge costs: every node's distance total
        # is identical, so all four tie for the median
        g = Graph(4)
        for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
            g.add_edge(u, v, 1.0)
        routing = RoutingTables(g)
        totals = routing.distance_matrix().sum(axis=1)
        assert np.all(totals == totals[0])  # genuine 4-way tie
        assert select_core(routing) == 0
        # still the lowest id when the tie is between non-zero nodes:
        # hang a pendant off node 2 of a 1-2-3 path; 2 stays the unique
        # median, then balance it so 1 and 2 tie exactly
        h = Graph(4)
        h.add_edge(1, 2, 1.0)
        h.add_edge(2, 3, 1.0)
        h.add_edge(0, 1, 2.0)
        tied = RoutingTables(h)
        tied_totals = tied.distance_matrix().sum(axis=1)
        assert tied_totals[1] == tied_totals[2]
        assert tied_totals[1] == tied_totals.min()
        assert select_core(tied) == 1

    def test_core_on_publisher_matches_dense(self, line_routing):
        from repro.network import dense_multicast_cost, sparse_multicast_cost

        members = [1, 2, 3]
        assert sparse_multicast_cost(
            line_routing, 0, members, core=0
        ) == pytest.approx(dense_multicast_cost(line_routing, 0, members))

