"""Sharded multi-broker fleet over the online runtime.

The event space is partitioned across N broker shards
(:class:`ShardMap`), each running the online stack
(:class:`~repro.online.service.BrokerService` over a
:class:`~repro.online.maintainer.ClusterMaintainer`) on pre-routed
churn, while a :class:`FleetCoordinator` splits the one
global multicast-group budget K across shards proportionally to their
measured expected waste and rebalances at epoch barriers when the split
drifts out of alignment.  :func:`run_fleet` drives seeded soaks that are
byte-identical for any worker count.  It is the only runtime driver:
``sim serve`` is ``sim fleet --shards 1``, report and all.
"""

from ..online.service import FLEET_POLICIES, FleetJoin, FleetLeave
from .coordinator import FleetCoordinator, proportional_split
from .sharding import STRATEGIES, ShardMap
from .soak import (
    FleetConfig,
    FleetResult,
    ShardSummary,
    route_fleet_stream,
    run_fleet,
    run_shard_task,
)

__all__ = [
    "STRATEGIES",
    "ShardMap",
    "FleetCoordinator",
    "proportional_split",
    "FLEET_POLICIES",
    "FleetJoin",
    "FleetLeave",
    "FleetConfig",
    "FleetResult",
    "ShardSummary",
    "route_fleet_stream",
    "run_fleet",
    "run_shard_task",
]
