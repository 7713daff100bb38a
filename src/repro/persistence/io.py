"""Persistence for the expensive artefacts of the pipeline.

Topologies, subscription sets, hyper-cell sets and clusterings all take
non-trivial time to build at paper scale; a production deployment wants
to compute them once and reload them across runs (and ship a clustering
from the offline preprocessing stage to the online brokers).  Everything
is stored in a single ``.npz`` file: numpy arrays for the bulk data plus
one JSON-encoded metadata entry.  Ragged structures (stub membership,
hyper-cell id lists, no-loss member sets) are stored flattened with
offset arrays.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aggregation import AggregateSet
from ..clustering import Clustering, NoLossResult
from ..geometry import Dimension, EventSpace, Rectangle
from ..grid import CellSet
from ..network import Graph, Topology
from ..workload import Subscription, SubscriptionSet

__all__ = [
    "save_topology",
    "load_topology",
    "save_subscriptions",
    "load_subscriptions",
    "save_aggregates",
    "load_aggregates",
    "save_cell_set",
    "load_cell_set",
    "save_clustering",
    "load_clustering",
    "save_noloss_result",
    "load_noloss_result",
    "ShardState",
    "save_shard_checkpoint",
    "load_shard_checkpoint",
    "FleetState",
    "save_fleet_state",
    "load_fleet_state",
]

_FORMAT_VERSION = 1


def _pack_ragged(lists: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a list of int arrays into (flat, offsets)."""
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    for i, arr in enumerate(lists):
        offsets[i + 1] = offsets[i] + len(arr)
    if offsets[-1] == 0:
        flat = np.empty(0, dtype=np.int64)
    else:
        flat = np.concatenate([np.asarray(a, dtype=np.int64) for a in lists])
    return flat, offsets


def _unpack_ragged(flat: np.ndarray, offsets: np.ndarray) -> List[np.ndarray]:
    return [
        flat[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)
    ]


def _space_meta(space: EventSpace) -> List[Dict]:
    return [
        {"name": d.name, "lo": d.lo, "hi": d.hi} for d in space.dimensions
    ]


def _space_from_meta(meta: List[Dict]) -> EventSpace:
    return EventSpace(
        [Dimension(d["name"], int(d["lo"]), int(d["hi"])) for d in meta]
    )


def _check_kind(meta: Dict, expected: str) -> None:
    kind = meta.get("kind")
    if kind != expected:
        raise ValueError(
            f"file holds a {kind!r} artefact, expected {expected!r}"
        )
    version = meta.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")


def _save(path, meta: Dict, **arrays) -> None:
    meta = dict(meta)
    meta["version"] = _FORMAT_VERSION
    np.savez_compressed(path, _meta=json.dumps(meta), **arrays)


def _load(path) -> Tuple[Dict, Dict[str, np.ndarray]]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["_meta"]))
        arrays = {key: data[key] for key in data.files if key != "_meta"}
    return meta, arrays


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
def save_topology(topology: Topology, path) -> None:
    """Persist a transit-stub topology (graph + role annotations)."""
    edges = np.array(
        [(u, v, c) for u, v, c in topology.graph.edges()], dtype=np.float64
    ).reshape(-1, 3)
    stub_flat, stub_offsets = _pack_ragged(
        [np.asarray(s, dtype=np.int64) for s in topology.stubs]
    )
    _save(
        path,
        {"kind": "topology", "n_nodes": topology.n_nodes},
        edges=edges,
        transit_block=np.asarray(topology.transit_block, dtype=np.int64),
        stub_of=np.asarray(topology.stub_of, dtype=np.int64),
        stub_flat=stub_flat,
        stub_offsets=stub_offsets,
        stub_block=np.asarray(topology.stub_block, dtype=np.int64),
        transit_nodes=np.asarray(topology.transit_nodes, dtype=np.int64),
    )


def load_topology(path) -> Topology:
    meta, arrays = _load(path)
    _check_kind(meta, "topology")
    graph = Graph(int(meta["n_nodes"]))
    for u, v, cost in arrays["edges"]:
        graph.add_edge(int(u), int(v), float(cost))
    topology = Topology(
        graph=graph,
        transit_block=arrays["transit_block"].tolist(),
        stub_of=arrays["stub_of"].tolist(),
        stubs=[
            s.tolist()
            for s in _unpack_ragged(
                arrays["stub_flat"], arrays["stub_offsets"]
            )
        ],
        stub_block=arrays["stub_block"].tolist(),
        transit_nodes=arrays["transit_nodes"].tolist(),
    )
    topology.validate()
    return topology


# ----------------------------------------------------------------------
# subscriptions
# ----------------------------------------------------------------------
def save_subscriptions(
    subscriptions: SubscriptionSet, path
) -> Optional[np.ndarray]:
    """Persist a rectangle subscription set (with its event space).

    A set that saw online churn (deactivated subscribers hold sentinel
    never-matching bounds) is compacted first: only the active
    subscriptions are written, renumbered densely, so the file always
    round-trips through :func:`load_subscriptions`.

    Returns the old→new subscriber id mapping of that compaction
    (departed ids map to ``-1``), or ``None`` when no compaction was
    needed.  A clustering saved alongside must be renumbered with the
    same mapping — pass it to :func:`save_clustering` as
    ``subscriber_mapping`` — or the restored pair's subscriber columns
    will be misaligned.
    """
    mapping: Optional[np.ndarray] = None
    if subscriptions.n_active_subscribers != subscriptions.n_subscribers:
        subscriptions, mapping = subscriptions.compact()
    los, his = subscriptions.bounds()
    owners = np.array(
        [s.subscriber for s in subscriptions.subscriptions], dtype=np.int64
    )
    nodes = np.array(
        [s.node for s in subscriptions.subscriptions], dtype=np.int64
    )
    _save(
        path,
        {"kind": "subscriptions", "space": _space_meta(subscriptions.space)},
        los=los,
        his=his,
        owners=owners,
        nodes=nodes,
    )
    return mapping


def load_subscriptions(path) -> SubscriptionSet:
    meta, arrays = _load(path)
    _check_kind(meta, "subscriptions")
    space = _space_from_meta(meta["space"])
    subscriptions = [
        Subscription(
            int(owner),
            int(node),
            Rectangle.from_bounds(lo, hi),
        )
        for owner, node, lo, hi in zip(
            arrays["owners"], arrays["nodes"], arrays["los"], arrays["his"]
        )
    ]
    return SubscriptionSet(space, subscriptions)


# ----------------------------------------------------------------------
# subscription aggregates
# ----------------------------------------------------------------------
def save_aggregates(aggregates: AggregateSet, path) -> None:
    """Persist a subscription aggregate structure (checkpointing the
    offline aggregation pass so online brokers can restore it without
    re-running the containment analysis)."""
    member_flat, member_offsets = _pack_ragged(list(aggregates.members))
    owner_flat, owner_offsets = _pack_ragged(list(aggregates.owners))
    _save(
        path,
        {
            "kind": "aggregates",
            "n_subscriptions": aggregates.n_subscriptions,
        },
        los=aggregates.los,
        his=aggregates.his,
        member_flat=member_flat,
        member_offsets=member_offsets,
        owner_flat=owner_flat,
        owner_offsets=owner_offsets,
        agg_of_row=aggregates.agg_of_row,
        multiplicity=aggregates.multiplicity,
        parent=aggregates.parent,
    )


def load_aggregates(path) -> AggregateSet:
    meta, arrays = _load(path)
    _check_kind(meta, "aggregates")
    return AggregateSet(
        los=arrays["los"],
        his=arrays["his"],
        members=tuple(
            _unpack_ragged(arrays["member_flat"], arrays["member_offsets"])
        ),
        owners=tuple(
            _unpack_ragged(arrays["owner_flat"], arrays["owner_offsets"])
        ),
        agg_of_row=arrays["agg_of_row"],
        multiplicity=arrays["multiplicity"],
        parent=arrays["parent"],
        n_subscriptions=int(meta["n_subscriptions"]),
    )


# ----------------------------------------------------------------------
# cell sets
# ----------------------------------------------------------------------
def save_cell_set(cells: CellSet, path) -> None:
    """Persist a hyper-cell set (membership bit-packed).

    Aggregate-level sets (column ``weights`` set) persist the weights
    alongside and restore as weighted sets.
    """
    flat, offsets = _pack_ragged(cells.cell_ids)
    extra = {}
    if cells.weights is not None:
        extra["weights"] = np.asarray(cells.weights, dtype=np.int64)
    _save(
        path,
        {
            "kind": "cells",
            "space": _space_meta(cells.space),
            "n_subscribers": cells.n_subscribers,
        },
        membership=np.packbits(cells.membership, axis=1),
        probs=cells.probs,
        cell_flat=flat,
        cell_offsets=offsets,
        hypercell_of_cell=cells.hypercell_of_cell,
        **extra,
    )


def load_cell_set(path) -> CellSet:
    meta, arrays = _load(path)
    _check_kind(meta, "cells")
    space = _space_from_meta(meta["space"])
    n_subscribers = int(meta["n_subscribers"])
    membership = np.unpackbits(
        arrays["membership"], axis=1, count=n_subscribers
    ).astype(bool)
    return CellSet(
        space=space,
        membership=membership,
        probs=arrays["probs"],
        cell_ids=_unpack_ragged(
            arrays["cell_flat"], arrays["cell_offsets"]
        ),
        hypercell_of_cell=arrays["hypercell_of_cell"],
        weights=arrays.get("weights"),
    )


# ----------------------------------------------------------------------
# clusterings
# ----------------------------------------------------------------------
def save_clustering(
    clustering: Clustering,
    path,
    subscriber_mapping: Optional[np.ndarray] = None,
) -> None:
    """Persist a clustering together with its cell set.

    ``subscriber_mapping`` is the old→new id map returned by
    :func:`save_subscriptions` when it compacted a churned set (``-1``
    marks departed ids).  Passing it renumbers the membership columns
    the same way, so the two files restore to an aligned pair.  The
    mapping preserves relative id order, so the surviving columns are
    simply selected in place.
    """
    cells = clustering.cells
    membership = cells.membership
    n_subscribers = cells.n_subscribers
    if subscriber_mapping is not None:
        if cells.weights is not None:
            raise ValueError(
                "aggregate-level clusterings (weighted columns) cannot be "
                "renumbered by subscriber id"
            )
        mapping = np.asarray(subscriber_mapping, dtype=np.int64)
        if mapping.shape != (n_subscribers,):
            raise ValueError(
                "subscriber_mapping must cover every membership column"
            )
        membership = np.ascontiguousarray(membership[:, mapping >= 0])
        n_subscribers = membership.shape[1]
    flat, offsets = _pack_ragged(cells.cell_ids)
    extra = {}
    if cells.weights is not None:
        extra["weights"] = np.asarray(cells.weights, dtype=np.int64)
    _save(
        path,
        {
            "kind": "clustering",
            "space": _space_meta(cells.space),
            "n_subscribers": n_subscribers,
        },
        membership=np.packbits(membership, axis=1),
        probs=cells.probs,
        cell_flat=flat,
        cell_offsets=offsets,
        hypercell_of_cell=cells.hypercell_of_cell,
        assignment=clustering.assignment,
        **extra,
    )


def load_clustering(path) -> Clustering:
    meta, arrays = _load(path)
    _check_kind(meta, "clustering")
    space = _space_from_meta(meta["space"])
    n_subscribers = int(meta["n_subscribers"])
    membership = np.unpackbits(
        arrays["membership"], axis=1, count=n_subscribers
    ).astype(bool)
    cells = CellSet(
        space=space,
        membership=membership,
        probs=arrays["probs"],
        cell_ids=_unpack_ragged(
            arrays["cell_flat"], arrays["cell_offsets"]
        ),
        hypercell_of_cell=arrays["hypercell_of_cell"],
        weights=arrays.get("weights"),
    )
    return Clustering(cells, arrays["assignment"])


# ----------------------------------------------------------------------
# no-loss results
# ----------------------------------------------------------------------
def save_noloss_result(result: NoLossResult, path) -> None:
    """Persist a No-Loss region list with its group index."""
    member_flat, member_offsets = _pack_ragged(result.members)
    group_flat, group_offsets = _pack_ragged(result.group_members)
    _save(
        path,
        {"kind": "noloss", "space": _space_meta(result.space)},
        los=result.los,
        his=result.his,
        weights=result.weights,
        member_flat=member_flat,
        member_offsets=member_offsets,
        group_of=result.group_of,
        group_flat=group_flat,
        group_offsets=group_offsets,
    )


# ----------------------------------------------------------------------
# runtime checkpoints
# ----------------------------------------------------------------------
class ShardState:
    """A restored shard checkpoint: the runtime's one checkpoint format.

    Carries the maintainer's drift-accounting vectors and counters plus
    the shard's identity: its budget slice ``k``, its cross-shard
    policy, the fleet-wide gid → local-handle registry, the match-only
    (forward) gid set, the exact token-bucket states and the virtual
    clock.  :meth:`apply` resumes a
    :class:`~repro.online.service.BrokerService` whose broker already
    holds the matching clustering and subscription set (saved
    separately via :func:`save_clustering` / :func:`save_subscriptions`).
    """

    def __init__(
        self,
        shard: int,
        k: int,
        policy: str,
        cell_group: np.ndarray,
        group_mass: np.ndarray,
        fit_waste: float,
        current_waste: float,
        counters: Dict[str, int],
        busy_until: float,
        token_states: Tuple[
            Tuple[str, Tuple[int, int], Tuple[int, int]], ...
        ],
        handle_of_gid: Dict[int, int],
        forward_gids: frozenset,
    ) -> None:
        self.shard = shard
        self.k = k
        self.policy = policy
        self.cell_group = cell_group
        self.group_mass = group_mass
        self.fit_waste = fit_waste
        self.current_waste = current_waste
        self.counters = counters
        self.busy_until = busy_until
        self.token_states = token_states
        self.handle_of_gid = handle_of_gid
        self.forward_gids = forward_gids

    def apply(self, service) -> None:
        """Resume ``service`` (and its maintainer) from this checkpoint."""
        maintainer = service.maintainer
        maintainer.restore(
            self.cell_group,
            self.group_mass,
            self.fit_waste,
            self.current_waste,
            **self.counters,
        )
        service.busy_until = float(self.busy_until)
        service.handle_of_gid = dict(self.handle_of_gid)
        maintainer.forward_handles = {
            self.handle_of_gid[gid] for gid in self.forward_gids
        }
        for name, tokens, last_refill in self.token_states:
            if name in service._queues:
                service._queues[name].restore_token_state(
                    tokens, last_refill
                )


def save_shard_checkpoint(path, service, k, policy) -> None:
    """Persist one shard's end state (single ``.npz``).

    Token-bucket numerators/denominators are exact integers (JSON keeps
    arbitrary precision), so a restore resumes admission byte-exactly.
    """
    maintainer = service.maintainer
    arrays = maintainer.state_arrays()
    gids = np.asarray(sorted(service.handle_of_gid), dtype=np.int64)
    handles = np.asarray(
        [service.handle_of_gid[int(g)] for g in gids], dtype=np.int64
    )
    forward_gids = [
        int(g)
        for g, h in zip(gids, handles)
        if int(h) in maintainer.forward_handles
    ]
    token_meta = [
        {
            "queue": name,
            "tokens": list(queue.token_state()[0]),
            "last_refill": list(queue.token_state()[1]),
        }
        for name, queue in sorted(service._queues.items())
    ]
    _save(
        path,
        {
            "kind": "fleet-shard",
            "shard": service.shard_id,
            "k": int(k),
            "policy": policy,
            "fit_waste": maintainer.fit_waste,
            "current_waste": maintainer.current_waste,
            "counters": {
                "joins": maintainer.joins,
                "leaves": maintainer.leaves,
                "unassigned_joins": maintainer.unassigned_joins,
                "captures": maintainer.captures,
            },
            "forward": {
                "joins": service.forward_joins,
                "leaves": service.forward_leaves,
                "deliveries": service.forwards,
            },
            "busy_until": service.busy_until,
            "tokens": token_meta,
        },
        cell_group=np.asarray(arrays["cell_group"], dtype=np.int64),
        group_mass=np.asarray(arrays["group_mass"], dtype=np.float64),
        gids=gids,
        handles=handles,
        forward_gids=np.asarray(forward_gids, dtype=np.int64),
    )


def load_shard_checkpoint(path) -> ShardState:
    meta, arrays = _load(path)
    _check_kind(meta, "fleet-shard")
    token_states = tuple(
        (
            str(entry["queue"]),
            tuple(int(v) for v in entry["tokens"]),
            tuple(int(v) for v in entry["last_refill"]),
        )
        for entry in meta.get("tokens", [])
    )
    return ShardState(
        shard=int(meta["shard"]),
        k=int(meta["k"]),
        policy=str(meta["policy"]),
        cell_group=arrays["cell_group"],
        group_mass=arrays["group_mass"],
        fit_waste=float(meta["fit_waste"]),
        current_waste=float(meta["current_waste"]),
        counters={k: int(v) for k, v in meta["counters"].items()},
        busy_until=float(meta["busy_until"]),
        token_states=token_states,
        handle_of_gid={
            int(g): int(h)
            for g, h in zip(arrays["gids"], arrays["handles"])
        },
        forward_gids=frozenset(
            int(g) for g in arrays["forward_gids"]
        ),
    )


class FleetState:
    """A restored fleet manifest: the shard map parameters, the final K
    split and the coordinator's rebalance count."""

    def __init__(
        self,
        n_shards: int,
        strategy: str,
        vnodes: int,
        split: List[int],
        rebalances: int,
        epochs: int,
        cell_to_shard: np.ndarray,
    ) -> None:
        self.n_shards = n_shards
        self.strategy = strategy
        self.vnodes = vnodes
        self.split = split
        self.rebalances = rebalances
        self.epochs = epochs
        self.cell_to_shard = cell_to_shard


def save_fleet_state(path, shard_map, split, rebalances, epochs) -> None:
    """Persist the fleet-level manifest next to the shard checkpoints.

    The cell-ownership vector is derivable from the map parameters, but
    storing it makes the file self-verifying: a loader can rebuild the
    map and compare bit-for-bit.
    """
    _save(
        path,
        {
            "kind": "fleet",
            "map": shard_map.as_dict(),
            "split": [int(k) for k in split],
            "rebalances": int(rebalances),
            "epochs": int(epochs),
        },
        cell_to_shard=np.asarray(shard_map.cell_to_shard, dtype=np.int64),
    )


def load_fleet_state(path) -> FleetState:
    meta, arrays = _load(path)
    _check_kind(meta, "fleet")
    map_meta = meta["map"]
    return FleetState(
        n_shards=int(map_meta["n_shards"]),
        strategy=str(map_meta["strategy"]),
        vnodes=int(map_meta["vnodes"]),
        split=[int(k) for k in meta["split"]],
        rebalances=int(meta["rebalances"]),
        epochs=int(meta["epochs"]),
        cell_to_shard=arrays["cell_to_shard"],
    )


def load_noloss_result(path) -> NoLossResult:
    meta, arrays = _load(path)
    _check_kind(meta, "noloss")
    return NoLossResult(
        space=_space_from_meta(meta["space"]),
        los=arrays["los"],
        his=arrays["his"],
        weights=arrays["weights"],
        members=_unpack_ragged(
            arrays["member_flat"], arrays["member_offsets"]
        ),
        group_of=arrays["group_of"],
        group_members=_unpack_ragged(
            arrays["group_flat"], arrays["group_offsets"]
        ),
    )
