"""Unit tests for the graph substrate, validated against networkx oracles."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.network import Graph, UnionFind, metric_closure_mst_cost


def random_connected_graph(rng, n=30, extra=40):
    """Random connected weighted graph, returned as (Graph, nx.Graph)."""
    g = Graph(n)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((i, j))
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append((int(i), int(j)))
    for i, j in edges:
        if i == j or g.has_edge(i, j):
            continue
        w = float(rng.uniform(1, 10))
        g.add_edge(i, j, w)
        nxg.add_edge(i, j, weight=w)
    return g, nxg


class TestUnionFind:
    def test_initial_components(self):
        uf = UnionFind(5)
        assert uf.components == 5
        assert not uf.connected(0, 1)

    def test_union_reduces_components(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.components == 4
        assert uf.connected(0, 1)
        assert not uf.union(1, 0)  # already merged
        assert uf.components == 4

    def test_transitive_connectivity(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(4, 5)
        assert uf.connected(0, 2)
        assert not uf.connected(0, 4)
        groups = uf.groups()
        sizes = sorted(len(g) for g in groups.values())
        assert sizes == [1, 2, 3]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)


class TestGraphBasics:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_add_edge_and_lookup(self):
        g = Graph(3)
        g.add_edge(0, 1, 2.5)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.edge_cost(1, 0) == 2.5
        assert g.n_edges == 1

    def test_parallel_edge_keeps_cheaper(self):
        g = Graph(2)
        g.add_edge(0, 1, 5.0)
        g.add_edge(0, 1, 3.0)
        assert g.edge_cost(0, 1) == 3.0
        g.add_edge(0, 1, 9.0)
        assert g.edge_cost(0, 1) == 3.0
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(1, 1, 1.0)

    def test_negative_cost_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1.0)

    def test_node_range_checked(self):
        g = Graph(2)
        with pytest.raises(IndexError):
            g.add_edge(0, 5, 1.0)

    def test_edges_iteration(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        assert sorted(g.edges()) == [(0, 1, 1.0), (1, 2, 2.0)]
        assert g.total_edge_cost() == 3.0

    def test_degree_and_neighbors(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 2.0)
        assert g.degree(0) == 2
        assert dict(g.neighbors(0)) == {1: 1.0, 2: 2.0}

    def test_is_connected(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        assert not g.is_connected()
        g.add_edge(1, 2, 1.0)
        assert g.is_connected()


class TestShortestPaths:
    def test_against_networkx(self, rng):
        g, nxg = random_connected_graph(rng)
        expected = nx.single_source_dijkstra_path_length(nxg, 0)
        sp = g.shortest_paths(0)
        for v in range(g.n_nodes):
            if v in expected:
                assert sp.dist[v] == pytest.approx(expected[v])
            else:
                assert math.isinf(sp.dist[v])

    def test_path_to_is_consistent(self, rng):
        g, _ = random_connected_graph(rng)
        sp = g.shortest_paths(0)
        for target in range(g.n_nodes):
            path = sp.path_to(target)
            assert path[0] == 0 and path[-1] == target
            cost = sum(
                g.edge_cost(a, b) for a, b in zip(path, path[1:])
            )
            assert cost == pytest.approx(sp.dist[target])

    def test_unreachable(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        sp = g.shortest_paths(0)
        assert not sp.reachable(2)
        with pytest.raises(ValueError):
            sp.path_to(2)

    def test_tree_cost_full_tree(self, rng):
        """Full SPT cost equals the sum of per-node path increments."""
        g, _ = random_connected_graph(rng)
        sp = g.shortest_paths(0)
        expected = sum(
            sp.dist[v] - sp.dist[sp.pred[v]]
            for v in range(1, g.n_nodes)
        )
        assert sp.tree_cost() == pytest.approx(expected)

    def test_tree_cost_subset_union_of_paths(self, rng):
        """Cost of delivering to a subset = union of root paths' edges."""
        g, _ = random_connected_graph(rng)
        sp = g.shortest_paths(0)
        targets = [3, 7, 11]
        edges = set()
        for t in targets:
            path = sp.path_to(t)
            edges.update(
                tuple(sorted(e)) for e in zip(path, path[1:])
            )
        expected = sum(g.edge_cost(a, b) for a, b in edges)
        assert sp.tree_cost(targets) == pytest.approx(expected)

    def test_tree_cost_single_target_is_distance(self, rng):
        g, _ = random_connected_graph(rng)
        sp = g.shortest_paths(0)
        assert sp.tree_cost([5]) == pytest.approx(sp.dist[5])

    def test_tree_cost_source_only_is_zero(self, rng):
        g, _ = random_connected_graph(rng)
        sp = g.shortest_paths(0)
        assert sp.tree_cost([0]) == 0.0

    def test_tree_cost_at_most_sum_of_distances(self, rng):
        """Multicast over the SPT never exceeds unicast to each target."""
        g, _ = random_connected_graph(rng)
        sp = g.shortest_paths(0)
        targets = list(range(1, g.n_nodes, 3))
        assert sp.tree_cost(targets) <= sum(sp.dist[t] for t in targets) + 1e-9


class TestMetricClosureMST:
    def test_matches_networkx_on_metric_closure(self, rng):
        g, nxg = random_connected_graph(rng)
        dist = dict(nx.all_pairs_dijkstra_path_length(nxg))
        matrix = [
            [dist[u][v] for v in range(g.n_nodes)] for u in range(g.n_nodes)
        ]
        members = [0, 4, 9, 13, 21]
        closure = nx.Graph()
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                closure.add_edge(u, v, weight=dist[u][v])
        expected = nx.minimum_spanning_tree(closure).size(weight="weight")
        assert metric_closure_mst_cost(matrix, members) == pytest.approx(expected)

    def test_trivial_groups(self):
        matrix = [[0.0, 1.0], [1.0, 0.0]]
        assert metric_closure_mst_cost(matrix, []) == 0.0
        assert metric_closure_mst_cost(matrix, [1]) == 0.0
        assert metric_closure_mst_cost(matrix, [1, 1]) == 0.0
        assert metric_closure_mst_cost(matrix, [0, 1]) == 1.0
