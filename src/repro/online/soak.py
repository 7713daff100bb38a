"""The runtime configuration, the seeded stream and the ``serve`` entry.

:class:`SoakConfig` is the one configuration of the runtime: the seeded
churn+publication stream (Poisson arrivals, a configurable churn
fraction split evenly between joins and leaves), the broker and its
bounded queues, and the fleet around them (shards, sharding, the
cross-shard policy, epochs, workers).  ``repro.fleet.FleetConfig`` is
the same class.

:func:`run_soak` is ``sim serve``: the one-shard case of
:func:`repro.fleet.run_fleet`, which replays the stream through the
backpressured :class:`~repro.online.service.BrokerService` over an
incrementally maintained broker.  Everything runs on a virtual clock,
so the run's ``deterministic_report()`` is byte-identical across runs
of the same seed.

:func:`finalize_equivalence` backs the acceptance gate: after a soak,
the end-state subscription set is refit twice on identical hyper-cells:
once warm (inheriting the incrementally maintained grouping) and once
cold.  The ratio bounds how far incremental maintenance +
drift-triggered warm refits drifted from what a batch refit would
produce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..broker import BrokerConfig, ContentBroker
from ..network import TransitStubParams
from ..workload import join_rectangle
from .queues import POLICIES, QueueConfig
from .service import (
    FLEET_POLICIES,
    ChurnJoin,
    ChurnLeave,
    Publish,
    StreamEvent,
)

__all__ = [
    "SoakConfig",
    "generate_stream",
    "run_soak",
    "finalize_equivalence",
]


@dataclass(frozen=True)
class SoakConfig:
    """Everything one runtime run depends on (serve and fleet alike)."""

    n_events: int = 20000
    seed: int = 7
    #: mean arrival rate of the merged stream, events per virtual second
    rate: float = 800.0
    #: per-shard consumer capacity, events per virtual second
    service_rate: float = 1000.0
    #: fraction of events that are churn (joins/leaves, split evenly)
    churn_fraction: float = 0.1
    n_nodes: int = 100
    n_subscriptions: int = 300
    #: the global multicast-group budget K, split across shards
    n_groups: int = 30
    max_cells: Optional[int] = 600
    drift_threshold: Optional[float] = 1.25
    queue_capacity: int = 256
    policy: str = "block"
    queue_rate: Optional[float] = None
    #: multicast delivery scheme priced by the broker's dispatcher
    #: (one of :data:`repro.delivery.SCHEMES`)
    scheme: str = "dense"
    # fleet surface: one shard is the single broker (`sim serve`)
    shards: int = 1
    sharding: str = "hash"
    fleet_policy: str = "replicate"
    epochs: int = 1
    #: shard-task worker processes (results never depend on it)
    workers: int = 1
    #: misalignment ratio past which the coordinator resplits K
    rebalance_threshold: float = 1.25
    checkpoint_dir: Optional[str] = None

    def __post_init__(self) -> None:
        from ..delivery import SCHEMES
        from ..fleet.sharding import STRATEGIES

        if self.n_events < 1:
            raise ValueError("n_events must be positive")
        if not self.rate > 0 or not self.service_rate > 0:
            raise ValueError("rates must be positive")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ValueError("churn_fraction must be a proportion")
        # only the paper's section 3 topology sizes have parameters
        TransitStubParams.preliminary(self.n_nodes)
        for name in ("n_subscriptions", "n_groups", "queue_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.max_cells is not None and self.max_cells < 1:
            raise ValueError("max_cells must be at least 1")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.sharding not in STRATEGIES:
            raise ValueError(f"sharding must be one of {STRATEGIES}")
        if self.fleet_policy not in FLEET_POLICIES:
            raise ValueError(
                f"fleet_policy must be one of {FLEET_POLICIES}"
            )
        if not self.rebalance_threshold >= 1.0:
            raise ValueError("rebalance_threshold must be at least 1")
        if self.n_groups < self.shards:
            raise ValueError(
                "the global group budget must cover one group per shard"
            )
        # queue_rate and drift_threshold are checked where they are used
        self.queue_config()
        self.broker_config(self.n_groups)

    def queue_config(self) -> QueueConfig:
        """The admission queue of each stream (churn and publications)."""
        return QueueConfig(
            capacity=self.queue_capacity,
            policy=self.policy,
            rate=self.queue_rate,
        )

    def broker_config(self, k: int) -> BrokerConfig:
        """One shard's broker tuning: these knobs with a budget of ``k``."""
        return BrokerConfig(
            n_groups=k,
            max_cells=self.max_cells,
            scheme=self.scheme,
            algorithm="forgy",
            adaptive=True,
            warm_start=True,
            # the equivalence gate compares the warm refit against a
            # cold one; a slightly deeper iteration budget closes most
            # of the warm-start gap at negligible cost
            max_warm_iters=25,
            # the maintainer owns freshness: count-based rebalance is
            # off, rebuilds come from the drift trigger only
            rebalance_after=10**9,
            drift_threshold=self.drift_threshold,
        )


# ----------------------------------------------------------------------
def generate_stream(
    config: SoakConfig, scenario
) -> List[StreamEvent]:
    """The seeded interleaved event stream of one soak run."""
    rng = np.random.default_rng(config.seed + 1)
    times = np.cumsum(
        rng.exponential(1.0 / config.rate, size=config.n_events)
    )
    kinds = rng.random(config.n_events) < config.churn_fraction
    join_or_leave = rng.random(config.n_events) < 0.5
    n_pubs = int(np.sum(~kinds))
    pub_rng = np.random.default_rng(config.seed + 2)
    publications = scenario.publications.sample(pub_rng, n_pubs)
    join_rng = np.random.default_rng(config.seed + 3)
    n_nodes = scenario.topology.graph.n_nodes

    events: List[StreamEvent] = []
    pub_idx = 0
    for i in range(config.n_events):
        t = float(times[i])
        if kinds[i]:
            if join_or_leave[i]:
                payload = ChurnJoin(
                    node=int(join_rng.integers(0, n_nodes)),
                    rectangle=join_rectangle(scenario.space, join_rng),
                )
            else:
                payload = ChurnLeave(
                    index=int(join_rng.integers(0, 2**31 - 1))
                )
            events.append(StreamEvent(t, "churn", payload))
        else:
            event = publications[pub_idx]
            pub_idx += 1
            events.append(
                StreamEvent(
                    t, "pub", Publish(tuple(event.point), event.publisher)
                )
            )
    return events


def run_soak(
    config: SoakConfig,
    finalize: bool = True,
    flight: bool = False,
    slo_spec: Optional[Sequence[Dict]] = None,
):
    """``sim serve``: :func:`repro.fleet.run_fleet` with one shard."""
    from ..fleet import run_fleet

    return run_fleet(
        replace(config, shards=1),
        finalize=finalize,
        flight=flight,
        slo_spec=slo_spec,
    )


def finalize_equivalence(broker: ContentBroker) -> Tuple[float, float]:
    """Warm-vs-cold refit waste on the end-state subscription set.

    The warm refit inherits the incrementally maintained grouping (the
    online path's answer); the cold refit re-clusters from scratch (the
    batch answer).  Both run on the same hyper-cells, so the ratio is
    exactly the price of staying incremental.  Leaves the broker on the
    cold fit.  An empty end state (churn removed every subscription)
    has no clustering and finalizes as ``(0.0, 0.0)``.
    """
    broker.rebuild(full=False)
    if broker.clustering is None:
        return 0.0, 0.0
    warm = broker.clustering.total_expected_waste()
    broker.rebuild(full=True)
    cold = broker.clustering.total_expected_waste()
    return float(warm), float(cold)
