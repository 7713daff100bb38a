"""Network substrate: graphs, transit-stub topologies, routing and
multicast cost models (replaces the paper's use of the GT-ITM package)."""

from .graph import Graph, ShortestPaths, UnionFind, metric_closure_mst_cost
from .gtitm import Topology, TransitStubGenerator, TransitStubParams
from .multicast import (
    application_multicast_cost,
    broadcast_cost,
    dense_multicast_cost,
    ideal_multicast_cost,
    overlay_multicast_cost,
    select_core,
    sparse_multicast_cost,
    unicast_cost,
)
from .routing import RoutingTables

__all__ = [
    "Graph",
    "ShortestPaths",
    "UnionFind",
    "metric_closure_mst_cost",
    "Topology",
    "TransitStubGenerator",
    "TransitStubParams",
    "RoutingTables",
    "unicast_cost",
    "broadcast_cost",
    "dense_multicast_cost",
    "ideal_multicast_cost",
    "application_multicast_cost",
    "overlay_multicast_cost",
    "sparse_multicast_cost",
    "select_core",
]
