"""Online streaming runtime: incremental cluster maintenance plus a
backpressured broker service on a deterministic virtual clock.

The offline pipeline answers "what are the best K multicast groups for
this subscription set"; this package answers "how do we keep serving
while the subscription set changes under us".  Three layers:

* :mod:`repro.online.maintainer` — joins/leaves applied to the live
  grouping in O(covered cells), exact waste-drift accounting, and a
  drift trigger that converts sustained degradation into one bounded
  warm refit.
* :mod:`repro.online.queues` / :mod:`repro.online.service` — bounded
  admission queues (block / shed-oldest / shed-lowest-priority, token
  bucket rate limits) in front of a single consumer; per-event latency,
  depth and shed metrics via :mod:`repro.obs`.
* :mod:`repro.online.soak` — the runtime configuration, the seeded
  stream and ``sim serve``, which is the one-shard case of
  :func:`repro.fleet.run_fleet`.
"""

from .maintainer import ClusterMaintainer
from .queues import POLICIES, BoundedQueue, QueueConfig
from .service import (
    BrokerService,
    ChurnJoin,
    ChurnLeave,
    FleetJoin,
    FleetLeave,
    Publish,
    ServiceConfig,
    ServiceResult,
    StreamEvent,
)
from .soak import (
    SoakConfig,
    finalize_equivalence,
    generate_stream,
    run_rebuild_per_churn_baseline,
    run_soak,
)

__all__ = [
    "ClusterMaintainer",
    "BoundedQueue",
    "QueueConfig",
    "POLICIES",
    "BrokerService",
    "ServiceConfig",
    "ServiceResult",
    "StreamEvent",
    "ChurnJoin",
    "ChurnLeave",
    "FleetJoin",
    "FleetLeave",
    "Publish",
    "SoakConfig",
    "generate_stream",
    "run_soak",
    "finalize_equivalence",
    "run_rebuild_per_churn_baseline",
]
