"""Delivery layer: executes delivery plans against the network cost
models (unicast / broadcast / dense-mode multicast / application-level
multicast)."""

from .adaptive import MODES, AdaptiveDeliveryPolicy, DecisionRun
from .dispatcher import (
    BACKENDS,
    SCHEMES,
    Dispatcher,
    RouteTable,
    resolve_backend,
)

__all__ = [
    "BACKENDS",
    "SCHEMES",
    "Dispatcher",
    "RouteTable",
    "resolve_backend",
    "AdaptiveDeliveryPolicy",
    "DecisionRun",
    "MODES",
]
