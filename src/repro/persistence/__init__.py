"""Save/load for the pipeline's state (.npz format): subscription sets,
clusterings and runtime (shard + fleet) checkpoints."""

from .io import (
    FleetState,
    ShardState,
    load_clustering,
    load_fleet_state,
    load_shard_checkpoint,
    load_subscriptions,
    save_clustering,
    save_fleet_state,
    save_shard_checkpoint,
    save_subscriptions,
)

__all__ = [
    "FleetState",
    "ShardState",
    "load_clustering",
    "load_fleet_state",
    "load_shard_checkpoint",
    "load_subscriptions",
    "save_clustering",
    "save_fleet_state",
    "save_shard_checkpoint",
    "save_subscriptions",
]
