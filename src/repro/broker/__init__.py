"""System facade: a content-based pub-sub broker with dynamic
subscriptions, lazily re-balanced multicast groups and delivery
accounting."""

from .broker import BrokerConfig, ContentBroker, DeliveryReceipt
from .rebuild import RebuildScheduler
from .stats import DeliveryStats, ReceiptRun

__all__ = [
    "BrokerConfig",
    "ContentBroker",
    "DeliveryReceipt",
    "DeliveryStats",
    "RebuildScheduler",
    "ReceiptRun",
]
