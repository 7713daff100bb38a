"""Shared test helpers."""

import numpy as np

from repro.geometry import Interval, Rectangle
from repro.workload import Subscription, SubscriptionSet


def make_subscription_set(space, specs):
    """Build a SubscriptionSet from (node, [(lo, hi), ...]) tuples."""
    subs = []
    for subscriber, (node, bounds) in enumerate(specs):
        rect = Rectangle(tuple(Interval.make(lo, hi) for lo, hi in bounds))
        subs.append(Subscription(subscriber, node, rect))
    return SubscriptionSet(space, subs)


def wasted_deliveries(plan):
    """Reference: covered subscribers that are not interested."""
    return int(len(np.setdiff1d(plan.covered_subscribers(), plan.interested)))


def missed_subscribers(plan):
    """Reference: interested subscribers the plan fails to reach."""
    return np.setdiff1d(np.asarray(plan.interested), plan.covered_subscribers())


def match_one(matcher, point):
    """Reference: one event's plan, as a one-event ``match_batch``."""
    return matcher.match_batch([point])[0]


def locate(space, point):
    """Reference: one point's flat grid cell (-1 when outside)."""
    return int(space.locate_batch([point])[0])


def publish_one(broker, point, publisher):
    """Reference: publish one event on its own, as a one-event batch."""
    return broker.publish_batch([point], [publisher])[0]
