"""Save/load for the pipeline's expensive artefacts (.npz format):
topologies, subscription sets, subscription aggregates, hyper-cell
sets, clusterings, No-Loss region lists and runtime (shard + fleet)
checkpoints."""

from .io import (
    FleetState,
    ShardState,
    load_aggregates,
    load_cell_set,
    load_clustering,
    load_fleet_state,
    load_noloss_result,
    load_shard_checkpoint,
    load_subscriptions,
    load_topology,
    save_aggregates,
    save_cell_set,
    save_clustering,
    save_fleet_state,
    save_noloss_result,
    save_shard_checkpoint,
    save_subscriptions,
    save_topology,
)

__all__ = [
    "FleetState",
    "ShardState",
    "load_aggregates",
    "load_cell_set",
    "load_clustering",
    "load_fleet_state",
    "load_noloss_result",
    "load_shard_checkpoint",
    "load_subscriptions",
    "load_topology",
    "save_aggregates",
    "save_cell_set",
    "save_clustering",
    "save_fleet_state",
    "save_noloss_result",
    "save_shard_checkpoint",
    "save_subscriptions",
    "save_topology",
]
