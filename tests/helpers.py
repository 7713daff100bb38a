"""Shared test helpers."""

import numpy as np

from repro.broker import DeliveryReceipt
from repro.geometry import Interval, Rectangle
from repro.workload import Subscription, SubscriptionSet


def make_subscription_set(space, specs):
    """Build a SubscriptionSet from (node, [(lo, hi), ...]) tuples."""
    subs = []
    for subscriber, (node, bounds) in enumerate(specs):
        rect = Rectangle(tuple(Interval.make(lo, hi) for lo, hi in bounds))
        subs.append(Subscription(subscriber, node, rect))
    return SubscriptionSet(space, subs)


def build_membership_matrix(space, subscriptions):
    """Oracle of :func:`repro.grid.pack_membership`: the dense boolean
    ``(n_cells, n_subscribers)`` matrix of equation (1), one block
    assignment per subscription rectangle.  The packed rasteriser must
    equal :func:`packed_rows` of it byte for byte."""
    n_subs = subscriptions.n_subscribers
    shaped = np.zeros(space.shape + (n_subs,), dtype=bool)
    for sub in subscriptions.subscriptions:
        try:
            slices = space.cell_slices(sub.rectangle)
        except ValueError:
            continue  # rectangle entirely outside the grid: matches nothing
        shaped[slices + (sub.subscriber,)] = True
    return shaped.reshape(space.n_cells, n_subs)


def packed_rows(membership):
    """``(packed, n_columns)`` of a dense boolean membership matrix: the
    rows :func:`repro.grid.cell_set_from_membership` takes."""
    membership = np.asarray(membership, dtype=bool)
    return np.packbits(membership, axis=1), membership.shape[1]


def record_one(
    stats, cost, unicast_cost, ideal_cost, used_multicast, n_interested,
    wasted, **fields,
):
    """Fold one publication into ``stats``: a run of one receipt."""
    stats.record_run([DeliveryReceipt(
        n_interested=n_interested, used_multicast=used_multicast,
        cost=cost, unicast_cost=unicast_cost, ideal_cost=ideal_cost,
        wasted_deliveries=wasted, **fields,
    )])


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


def observed_fit(algorithm, cells, n_groups):
    """Fit under a fresh tracer and registry: ``(clustering, fit span
    attributes, distance evaluations counted)``."""
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        get_registry,
        get_tracer,
        set_registry,
        set_tracer,
    )

    saved = get_tracer(), get_registry()
    tracer = set_tracer(Tracer(enabled=True))
    registry = set_registry(MetricsRegistry())
    try:
        clustering = algorithm.fit(cells, n_groups)
    finally:
        set_tracer(saved[0])
        set_registry(saved[1])
    attrs = {}
    for span in tracer.spans():
        if span.name == "clustering.fit":
            attrs = dict(span.attrs)
    evals = registry.counter("clustering_distance_evals_total").value
    return clustering, attrs, evals


def mst_reference(cells, n_groups):
    """Reference MST fit: Kruskal over a stable sort of every edge.

    Returns ``(dense assignment, edges scanned)``.
    """
    from repro.clustering import pairwise_waste_matrix
    from repro.network import UnionFind

    m = len(cells)
    if n_groups >= m:
        return np.arange(m, dtype=np.int64), 0
    distances = pairwise_waste_matrix(cells.membership, cells.probs).astype(
        np.float32
    )
    rows, cols = np.triu_indices(m, k=1)
    order = np.argsort(distances[rows, cols], kind="stable")
    components = UnionFind(m)
    scanned = 0
    for edge in order:
        if components.components <= n_groups:
            break
        scanned += 1
        components.union(int(rows[edge]), int(cols[edge]))
    roots = np.array([components.find(i) for i in range(m)])
    _, dense = np.unique(roots, return_inverse=True)
    return dense.reshape(-1), scanned


def block_mass(mass, rectangle):
    """One rectangle's mass through the batched ``masses`` call."""
    los = [[side.lo for side in rectangle.sides]]
    his = [[side.hi for side in rectangle.sides]]
    return float(mass.masses(los, his)[0])


def rectangle_mass(mass, rectangle):
    """Reference: the block mass of one rectangle, one inclusion-exclusion
    term at a time (corners in mask order)."""
    import math

    bounds = []
    for dim, side in zip(mass.space.dimensions, rectangle.sides):
        if side.is_empty:
            return 0.0
        first = max(int(math.ceil(side.lo - dim.lo + 1.0 - 1e-9)), 0)
        last = min(int(math.floor(side.hi - dim.lo + 1e-9)), dim.n_cells - 1)
        if last < first:
            return 0.0
        bounds.append((first, last + 1))
    n = len(bounds)
    total = 0.0
    for mask in range(1 << n):
        sign = 1
        idx = []
        for d in range(n):
            if mask >> d & 1:
                idx.append(bounds[d][1])
            else:
                idx.append(bounds[d][0])
                sign = -sign
        total += sign * float(mass._prefix[tuple(idx)])
    return max(total, 0.0)


def noloss_score_reference(algorithm, los, his, subscriptions, mass):
    """Reference No-Loss scoring: one candidate at a time.

    Returns what ``NoLossAlgorithm._score`` returns: the kept candidates'
    bounds, weights and member sets, heaviest first.
    """
    sub_los, sub_his = subscriptions.bounds()
    owners = np.array(
        [s.subscriber for s in subscriptions.subscriptions], dtype=np.int64
    )
    weights = np.empty(len(los), dtype=np.float64)
    members = []
    for r in range(len(los)):
        containing = np.all((sub_los <= los[r]) & (his[r] <= sub_his), axis=1)
        u = np.unique(owners[containing])
        members.append(u)
        if len(u) == 0:
            weights[r] = 0.0
            continue
        rect = Rectangle.from_bounds(los[r], his[r])
        weights[r] = rectangle_mass(mass, rect) * len(u)
    order = np.argsort(-weights, kind="stable")
    keep = order[weights[order] > 0.0][: algorithm.n_keep]
    return los[keep], his[keep], weights[keep], [members[i] for i in keep]
