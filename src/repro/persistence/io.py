"""Persistence for the pipeline's state: subscription sets, clusterings
(with their hyper-cell sets) and the runtime's shard and fleet
checkpoints.

Each artefact is stored in a single ``.npz`` file: numpy arrays for the
bulk data plus one JSON-encoded metadata entry.  Ragged structures
(hyper-cell id lists) are stored flattened with offset arrays.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..clustering import Clustering
from ..geometry import Dimension, EventSpace, Rectangle
from ..grid import CellSet
from ..workload import Subscription, SubscriptionSet

__all__ = [
    "save_subscriptions",
    "load_subscriptions",
    "save_clustering",
    "load_clustering",
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
        mapping = np.asarray(subscriber_mapping, dtype=np.int64)
        if mapping.shape != (n_subscribers,):
            raise ValueError(
                "subscriber_mapping must cover every membership column"
            )
        membership = np.ascontiguousarray(membership[:, mapping >= 0])
        n_subscribers = membership.shape[1]
    flat, offsets = _pack_ragged(cells.cell_ids)
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
    )
    return Clustering(cells, arrays["assignment"])


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
