"""Shared test helpers."""

from dataclasses import dataclass

import numpy as np

from repro.broker import DeliveryReceipt, ReceiptRun
from repro.geometry import Interval, Rectangle
from repro.matching import DeliveryPlan
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


def subscribers_of(cells, hypercell):
    """Subscriber ids interested in one hyper-cell of a ``CellSet``."""
    return np.nonzero(cells.membership[hypercell])[0]


def subset_cells(cells, order):
    """A new ``CellSet`` of the hyper-cells ``order`` selects, in that
    order, with the cell map renumbered and the packed rows (when
    built) taken along."""
    from repro.grid import CellSet

    mapping = np.full(cells.space.n_cells, -1, dtype=np.int32)
    cell_ids = []
    for new_idx, old_idx in enumerate(order):
        ids = cells.cell_ids[old_idx]
        cell_ids.append(ids)
        mapping[ids] = new_idx
    subset = CellSet(
        space=cells.space,
        membership=cells.membership[order],
        probs=cells.probs[order],
        cell_ids=cell_ids,
        hypercell_of_cell=mapping,
    )
    if cells._packed is not None:
        subset._packed = cells._packed.take(order)
    return subset


def top_by_popularity(cells, n):
    """Oracle of the popularity cut: the ``n`` most popular hyper-cells
    (``CellSet.popularity``, stable on ties), or ``cells`` itself when
    it has no more than ``n``."""
    if n >= len(cells):
        return cells
    order = np.argsort(-cells.popularity, kind="stable")[:n]
    return subset_cells(cells, order)


def record_one(
    stats, cost, unicast_cost, ideal_cost, used_multicast, n_interested,
    wasted, **fields,
):
    """Fold one publication into ``stats``: a run of one receipt."""
    stats.record_run(ReceiptRun.of([DeliveryReceipt(
        n_interested=n_interested, used_multicast=used_multicast,
        cost=cost, unicast_cost=unicast_cost, ideal_cost=ideal_cost,
        wasted_deliveries=wasted, **fields,
    )]))


@dataclass(frozen=True)
class Decision:
    """One event of an adaptive :class:`repro.delivery.DecisionRun`."""

    mode: str
    cost: float
    candidate_costs: dict

    @property
    def realized_gap(self) -> float:
        """Cost the fixed policy (execute the matcher's plan) would have
        paid beyond the adaptive choice."""
        realized = self.candidate_costs.get(
            "multicast", self.candidate_costs["unicast"]
        )
        return realized - self.cost


def decision_of(decisions, e, run, priced, penalty=1.0):
    """Event ``e`` of a decision run, with the candidates it was chosen
    from, rebuilt from the run and its priced ``(E, 4)`` columns: the
    unicast cost, the plan cost where the plan has a group and the
    penalised broadcast cost where anyone is interested."""
    from repro.delivery import MODES

    unicast, _, plan_cost, broadcast = priced[e].tolist()
    candidates = {"unicast": unicast}
    if run.groups[e] >= 0:
        candidates["multicast"] = plan_cost
    if len(run.interested[e]):
        candidates["broadcast"] = broadcast * penalty
    return Decision(
        MODES[decisions.mode[e]], float(decisions.cost[e]), candidates
    )


def wasted_deliveries(plan):
    """Reference: covered subscribers that are not interested."""
    return int(len(np.setdiff1d(plan.covered_subscribers(), plan.interested)))


def missed_subscribers(plan):
    """Reference: interested subscribers the plan fails to reach."""
    return np.setdiff1d(np.asarray(plan.interested), plan.covered_subscribers())


class BruteForceMatcher:
    """Oracle matcher: no multicast groups, every event is unicast to
    its interested subscribers (the 0 % improvement baseline)."""

    def __init__(self, subscriptions):
        self.subscriptions = subscriptions

    def match_batch(self, points, interested=None):
        if interested is None:
            interested = self.subscriptions.batch_interested_subscribers(
                points
            )
        return [
            DeliveryPlan(interested=ids, unicast_subscribers=ids)
            for ids in interested
        ]


def noloss_match(result, point):
    """Oracle of the Figure 6 selection rule: the index of the heaviest
    retained No-Loss region containing the point, or -1 (regions are
    stored in decreasing weight order, so the first hit wins)."""
    x = np.asarray(point, dtype=np.float64)
    hits = np.nonzero(np.all((result.los < x) & (x <= result.his), axis=1))[0]
    return int(hits[0]) if len(hits) else -1


def region_rectangle(result, region):
    """One retained No-Loss region as a ``Rectangle``."""
    return Rectangle.from_bounds(result.los[region], result.his[region])


def contains_interval(outer, inner):
    """Oracle: ``inner`` is a subset of ``outer`` (half-open sides; the
    empty interval lies inside everything)."""
    if inner.is_empty:
        return True
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def contains_rectangle(outer, inner):
    """Oracle: ``inner`` lies entirely inside ``outer`` (an empty
    rectangle lies inside everything)."""
    if inner.dimensions != outer.dimensions:
        raise ValueError("dimension mismatch")
    if inner.is_empty:
        return True
    return all(
        contains_interval(a, b) for a, b in zip(outer.sides, inner.sides)
    )


def cell_coords(space, index):
    """Per-dimension cell coordinates of a flat cell index (row-major)."""
    if not 0 <= index < space.n_cells:
        raise IndexError(f"cell index {index} out of range")
    return tuple(int(c) for c in np.unravel_index(index, space.shape))


def cell_value(space, index):
    """The lattice point (attribute values) identified with a cell."""
    return tuple(
        dim.lo + c
        for dim, c in zip(space.dimensions, cell_coords(space, index))
    )


def cell_rectangle(space, index):
    """The half-open unit rectangle of one grid cell."""
    return Rectangle(tuple(
        Interval.make(dim.lo + c - 1.0, dim.lo + float(c))
        for dim, c in zip(space.dimensions, cell_coords(space, index))
    ))


def edge_cost(graph, u, v):
    """Cost of the live edge ``{u, v}`` (``KeyError`` when absent)."""
    costs = dict(graph.neighbors(u))
    if v not in costs:
        raise KeyError(f"no edge between {u} and {v}")
    return costs[v]


def has_edge(graph, u, v):
    """True when the live edge ``{u, v}`` exists."""
    return any(w == v for w, _ in graph.neighbors(u))


def cached_sources(routing):
    """Sources whose shortest-path trees ``routing`` has built."""
    return sorted(routing._sp)


def pareto_truncated_mean(dist):
    """Exact mean of a capped ``ParetoLength`` law:
    ``E[min(X, m)] = E[X; X < m] + m * P(X >= m)`` with
    ``P(X >= m) = (c/m)^a``."""
    import math

    c, a, m = dist.scale, dist.shape, dist.max_length
    if m == c:
        return c
    tail = (c / m) ** a
    if a == 1.0:
        body = c * math.log(m / c)
    else:
        body = (a * c / (a - 1.0)) * (1.0 - (c / m) ** (a - 1.0))
    return body + m * tail


def chaos_price(runner, events):
    """Plan costs of ``events`` on a finished chaos run's broker, as it
    stands: pure pricing, no stats recorded, no rebuilds triggered."""
    broker = runner.broker
    plans = broker._matcher.match_batch([event.point for event in events])
    return broker._dispatcher.plan_costs(
        [event.publisher for event in events], plans
    )[0]


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
