"""Structured overlay: Pastry ring, rendezvous trees, route healing.

Locks in the tentpole invariants of the ``overlay`` delivery backend:

* deterministic, proximity-preserving id assignment and prefix routes
  that always converge on the key's owner;
* rendezvous trees whose edges are underlay links, whose member chains
  all reach the root, and whose costs are byte-identical across fresh
  instances;
* subgrouping and root affinity actually shaping the trees;
* healing — forwarder failures reattach branches and prune dead hops,
  a moved root rebuilds, unrelated topology noise verifies as intact,
  and a heal cycle restores the exact pre-fault costs.
"""

import numpy as np
import pytest

from repro.dht import (
    OverlayConfig,
    PastryOverlay,
    RendezvousDelivery,
    overlay_for,
)
from repro.network import (
    Graph,
    RoutingTables,
    TransitStubGenerator,
    TransitStubParams,
)
from repro.obs import get_registry

from tests.helpers import has_edge

SMALL_PARAMS = TransitStubParams(
    n_transit_blocks=3,
    transit_nodes_per_block=2,
    stubs_per_transit=1,
    nodes_per_stub=4,
)


@pytest.fixture
def topology():
    return TransitStubGenerator(
        SMALL_PARAMS, np.random.default_rng(7)
    ).generate()


@pytest.fixture
def routing(topology):
    return RoutingTables(topology.graph)


def make_circulant(n=24, seed=5):
    """A 2-connected ring-with-chords graph: any single node can fail
    without partitioning the rest, so healing (not loss) is exercised."""
    graph = Graph(n)
    rng = np.random.default_rng(seed)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, float(rng.uniform(1, 4)))
        graph.add_edge(i, (i + 3) % n, float(rng.uniform(6, 14)))
    return graph


@pytest.fixture
def mesh_routing():
    return RoutingTables(make_circulant())


def repair_count(kind):
    counter = get_registry().get("overlay_tree_repairs_total")
    if counter is None:
        return 0.0
    return counter.labels(kind=kind).value


# ----------------------------------------------------------------------
# the Pastry ring
# ----------------------------------------------------------------------


class TestPastryOverlay:
    def test_ids_unique_and_deterministic(self, routing):
        a = PastryOverlay(routing)
        b = PastryOverlay(routing)
        assert np.array_equal(a.ids, b.ids)
        assert len(set(int(i) for i in a.ids)) == routing.graph.n_nodes
        assert int(a.ids.min()) >= 0
        assert int(a.ids.max()) < a.config.ring_size

    def test_proximity_assignment_is_underlay_local(self, routing):
        """Ring-adjacent nodes are much closer than random pairs —
        the property subgrouping and root affinity rely on."""
        overlay = PastryOverlay(routing)
        order = np.argsort(overlay.ids)
        matrix = routing.distance_matrix()
        ring = np.mean(
            [
                matrix[order[i], order[(i + 1) % len(order)]]
                for i in range(len(order))
            ]
        )
        n = routing.graph.n_nodes
        pairwise = matrix[np.triu_indices(n, k=1)].mean()
        assert ring < 0.5 * pairwise

    def test_routes_converge_on_owner(self, routing):
        overlay = PastryOverlay(routing)
        universe = overlay.universe_for(0)
        rng = np.random.default_rng(11)
        n = routing.graph.n_nodes
        for _ in range(40):
            source = int(rng.integers(0, n))
            key = int(rng.integers(0, overlay.config.ring_size))
            final, hops = universe.route(source, key)
            assert final == universe.owner(key)
            assert len(hops) <= n
            assert universe.route_cost(source, key) < np.inf

    def test_route_to_own_key_is_free(self, routing):
        overlay = PastryOverlay(routing)
        universe = overlay.universe_for(0)
        node = 5
        key = int(overlay.ids[node])
        assert universe.owner(key) == node
        assert universe.route(node, key) == (node, ())
        assert universe.route_cost(node, key) == 0.0

    def test_leafset_spans_both_sides(self, routing):
        overlay = PastryOverlay(routing)
        universe = overlay.universe_for(0)
        leafset = universe.leafset(3)
        assert 3 not in leafset
        assert len(leafset) == 2 * overlay.config.leaf_span


# ----------------------------------------------------------------------
# rendezvous trees
# ----------------------------------------------------------------------


class TestRendezvousTrees:
    MEMBERS = np.array([2, 7, 9, 14, 18, 21, 25, 27], dtype=np.int64)

    def test_group_cost_deterministic_across_instances(self, routing):
        first = RendezvousDelivery(routing)
        second = RendezvousDelivery(routing)
        for publisher in (0, 6, 17):
            assert first.group_cost(
                publisher, self.MEMBERS
            ) == second.group_cost(publisher, self.MEMBERS)

    def test_tree_edges_are_underlay_links(self, routing, topology):
        delivery = RendezvousDelivery(routing)
        delivery.group_cost(0, self.MEMBERS)
        (tree,) = delivery._trees.values()
        for child, parent in tree.parent.items():
            assert has_edge(topology.graph, child, parent)

    def test_every_member_chain_reaches_root(self, routing):
        delivery = RendezvousDelivery(routing)
        universe = delivery.overlay.universe_for(0)
        tree = delivery.tree(universe, self.MEMBERS)
        for member in self.MEMBERS:
            assert tree.intact(int(member), universe)

    def test_root_affinity_targets_majority_domain(self, routing):
        delivery = RendezvousDelivery(routing)
        overlay = delivery.overlay
        key = delivery._rendezvous_key(self.MEMBERS)
        prefixes = [
            overlay.subgroup_prefix(int(overlay.ids[int(m)]))
            for m in self.MEMBERS
        ]
        majority = min(
            set(prefixes), key=lambda p: (-prefixes.count(p), p)
        )
        assert overlay.subgroup_prefix(key) == majority

    def test_subgrouping_splits_spread_members(self, routing):
        delivery = RendezvousDelivery(routing)
        universe = delivery.overlay.universe_for(0)
        tree = delivery.tree(universe, self.MEMBERS)
        assert tree.n_subgroups > 1

    def test_subgrouping_disabled_is_one_group(self, routing):
        delivery = RendezvousDelivery(
            routing, OverlayConfig(subgrouping=False)
        )
        universe = delivery.overlay.universe_for(0)
        tree = delivery.tree(universe, self.MEMBERS)
        assert tree.n_subgroups == 1
        for member in self.MEMBERS:
            assert tree.intact(int(member), universe)

    def test_empty_and_single_member_groups(self, routing):
        delivery = RendezvousDelivery(routing)
        assert delivery.group_cost(0, np.array([], dtype=np.int64)) == 0.0
        solo = delivery.group_cost(0, np.array([4], dtype=np.int64))
        assert solo >= 0.0

    def test_unreachable_member_raises(self, routing):
        delivery = RendezvousDelivery(routing)
        victim = int(self.MEMBERS[0])
        routing.fail_node(victim)
        with pytest.raises(ValueError, match="unreachable"):
            delivery.group_cost(0, self.MEMBERS)

    def test_overlay_for_is_a_per_routing_singleton(self, routing):
        assert overlay_for(routing) is overlay_for(routing)
        replaced = overlay_for(
            routing, OverlayConfig(subgrouping=False)
        )
        assert replaced is overlay_for(routing)
        assert replaced.config.subgrouping is False


# ----------------------------------------------------------------------
# route healing
# ----------------------------------------------------------------------


class TestRouteHealing:
    MEMBERS = np.array([2, 5, 7, 11, 14, 17, 19, 22], dtype=np.int64)

    def build(self, routing):
        delivery = RendezvousDelivery(routing)
        baseline = delivery.group_cost(0, self.MEMBERS)
        (tree,) = delivery._trees.values()
        return delivery, tree, baseline

    def safe_victim(self, routing, candidates):
        """First candidate whose failure keeps publisher 0 connected to
        every member (never lose the group — heal it)."""
        for node in candidates:
            routing.fail_node(node)
            paths = routing.shortest_paths(0)
            if all(paths.reachable(int(m)) for m in self.MEMBERS):
                return node
            routing.heal_node(node)  # pragma: no cover - mesh is 2-connected
        raise AssertionError("every candidate disconnects the group")

    def test_forwarder_failure_reattaches_and_prunes(self, mesh_routing):
        delivery, tree, _ = self.build(mesh_routing)
        members = set(int(m) for m in self.MEMBERS)
        forwarders = sorted(tree.nodes() - members - {tree.root, 0})
        assert forwarders, "path grafting should create forwarders"
        before = (repair_count("reattach"), repair_count("prune"))
        self.safe_victim(mesh_routing, forwarders)
        delivery.group_cost(0, self.MEMBERS)
        assert repair_count("reattach") > before[0]
        assert repair_count("prune") > before[1]
        (healed,) = delivery._trees.values()
        universe = delivery.overlay.universe_for(0)
        for member in self.MEMBERS:
            assert healed.intact(int(member), universe)

    def test_root_failure_rebuilds(self, mesh_routing):
        """Failing the owner of the rendezvous key moves the root —
        the tree rebuilds (or, if the root was itself a member, the
        shrunk live group does) and again reaches every member."""
        delivery, tree, _ = self.build(mesh_routing)
        live = [int(m) for m in self.MEMBERS if int(m) != tree.root]
        before = repair_count("rebuild")
        self.safe_victim(mesh_routing, [tree.root])
        if tree.root in set(int(m) for m in self.MEMBERS):
            with pytest.raises(ValueError):
                delivery.group_cost(0, self.MEMBERS)
        else:
            delivery.group_cost(0, self.MEMBERS)
            assert repair_count("rebuild") == before + 1
        cost = delivery.group_cost(0, np.array(live, dtype=np.int64))
        assert cost < np.inf
        rebuilt = [
            t
            for t in delivery._trees.values()
            if set(t.targets) >= set(live)
        ][0]
        universe = delivery.overlay.universe_for(0)
        for member in live:
            assert rebuilt.intact(member, universe)

    def test_unrelated_failure_verifies_intact(self, mesh_routing):
        delivery, tree, _ = self.build(mesh_routing)
        outside = sorted(
            set(range(mesh_routing.graph.n_nodes))
            - tree.nodes()
            - set(int(m) for m in self.MEMBERS)
            - {0}
        )
        assert outside, "need a node the tree never touches"
        before = repair_count("intact")
        self.safe_victim(mesh_routing, outside[::-1])
        delivery.group_cost(0, self.MEMBERS)
        assert repair_count("intact") == before + 1
        # the surviving tree is reused verbatim; only distances moved
        (healed,) = delivery._trees.values()
        assert healed.parent == tree.parent

    def test_heal_cycle_restores_exact_costs(self, mesh_routing):
        delivery, tree, baseline = self.build(mesh_routing)
        members = set(int(m) for m in self.MEMBERS)
        forwarders = sorted(tree.nodes() - members - {tree.root, 0})
        victim = self.safe_victim(mesh_routing, forwarders)
        delivery.group_cost(0, self.MEMBERS)
        mesh_routing.heal_node(victim)
        # a fresh layer on the healed topology prices exactly the
        # baseline; the healed layer keeps its repaired (possibly
        # detoured) tree until evicted — healing repairs, it does not
        # re-optimise
        assert RendezvousDelivery(mesh_routing).group_cost(
            0, self.MEMBERS
        ) == pytest.approx(baseline)
        repaired = delivery.group_cost(0, self.MEMBERS)
        assert np.isfinite(repaired)
        delivery._trees.clear()
        assert delivery.group_cost(0, self.MEMBERS) == pytest.approx(
            baseline
        )

    def test_leafset_repairs_counted_on_sync(self, routing):
        delivery, _, _ = self.build(routing)
        counter = get_registry().counter(
            "overlay_leafset_repairs_total", ""
        )
        before = sum(s["value"] for s in counter.samples())
        routing.fail_node(int(self.MEMBERS[0]))
        delivery.overlay.sync()
        after = sum(s["value"] for s in counter.samples())
        assert after > before
