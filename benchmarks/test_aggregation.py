"""Aggregation layer at paper scale: m = 10^5 subscriptions.

The subsumption pass only earns its place if the aggregate-level
pipeline is *faster* while staying *byte-identical*.  This benchmark
builds a containment-heavy Zipf workload — 100k subscriptions drawn
from 500 distinct nested rectangles — and times the two hot paths the
width ``m`` dominates:

* the fit pipeline (grid build + pairwise clustering fit), aggregated
  columns vs subscriber columns, gate **>= 3x**;
* the batch interest sweep (match throughput), aggregate bounds vs all
  ``m`` rows, gate **>= 2x**;

asserting along the way that membership matrices, fitted assignments,
waste totals and every event's interest set come out identical, and
that a small online broker soak delivers receipt-for-receipt the same
with aggregation on and off.  The record goes to
``BENCH_aggregation.json`` (uploaded as a CI artifact).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.aggregation import (
    AggregateView,
    aggregate_subscriptions,
    build_aggregate_cells,
)
from repro.broker import BrokerConfig, ContentBroker
from repro.clustering import Clustering, PairwiseGroupingClustering
from repro.geometry import Dimension, EventSpace, Rectangle
from repro.grid import build_cell_set
from repro.network import RoutingTables, TransitStubGenerator, TransitStubParams
from repro.obs import bench_stamp
from repro.workload import (
    MixturePublicationModel,
    Subscription,
    SubscriptionSet,
    single_mode_mixture,
)

from conftest import print_banner

BENCH_RECORD = Path(__file__).resolve().parent.parent / "BENCH_aggregation.json"

#: the acceptance scale: m >= 10^5 subscriptions over few distinct,
#: heavily nested rectangles (the Shi et al. skew regime)
M_SUBSCRIPTIONS = 100_000
N_DISTINCT = 500
GRID = 12  # 12 x 12 grid cells
N_GROUPS = 12
N_PROBES = 240
PROBE_CHUNK = 48  # keeps the m-wide broadcast out of swap


def _zipf_counts(total, n_distinct, exponent=1.1):
    """Multiplicity per distinct rectangle: Zipf-skewed, sums to total."""
    ranks = np.arange(1, n_distinct + 1, dtype=np.float64)
    weights = ranks ** -exponent
    counts = np.floor(total * weights / weights.sum()).astype(np.int64)
    counts = np.maximum(counts, 1)
    counts[0] += total - counts.sum()
    return counts


def _nested_rectangles(rng, n_distinct, grid=GRID):
    """Distinct integer-lattice rectangles where ~3/4 are drawn *inside*
    an earlier one — containment is the norm, not the exception."""
    bounds = []
    seen = set()
    while len(bounds) < n_distinct:
        if not bounds or rng.random() < 0.25:
            lo = rng.integers(0, grid - 3, size=2)
            hi = np.minimum(lo + rng.integers(3, grid // 2 + 1, size=2), grid)
        else:
            plo, phi = bounds[int(rng.integers(len(bounds)))]
            lo = np.array([int(rng.integers(plo[d], phi[d])) for d in (0, 1)])
            hi = np.array(
                [int(rng.integers(lo[d] + 1, phi[d] + 1)) for d in (0, 1)]
            )
        key = (int(lo[0]), int(lo[1]), int(hi[0]), int(hi[1]))
        if key in seen:
            continue
        seen.add(key)
        bounds.append((tuple(map(int, lo)), tuple(map(int, hi))))
    return [Rectangle.from_bounds(lo, hi) for lo, hi in bounds]


def _build_workload():
    space = EventSpace([Dimension("x", 0, GRID - 1), Dimension("y", 0, GRID - 1)])
    rng = np.random.default_rng(42)
    rects = _nested_rectangles(rng, N_DISTINCT)
    counts = _zipf_counts(M_SUBSCRIPTIONS, N_DISTINCT)
    spec_of = np.repeat(np.arange(N_DISTINCT), counts)
    rng.shuffle(spec_of)  # subscriber ids must not encode the skew
    subs = SubscriptionSet(
        space,
        [
            Subscription(i, i % 50, rects[spec])
            for i, spec in enumerate(spec_of)
        ],
    )
    pmf = np.full(space.n_cells, 1.0 / space.n_cells)
    points = [
        tuple(rng.uniform(-0.5, GRID + 0.5, size=2)) for _ in range(N_PROBES)
    ]
    return space, subs, pmf, points


def _n_contained(los, his):
    """Rectangles strictly inside another one of a set of distinct
    bounds, by one dense broadcast over every (outer, inner) pair: an
    empty rectangle lies inside every other one."""
    inside = np.all(los[:, None, :] <= los[None, :, :], axis=2)
    inside &= np.all(his[:, None, :] >= his[None, :, :], axis=2)
    inside[:, np.any(his <= los, axis=1)] = True
    np.fill_diagonal(inside, False)
    return int(inside.any(axis=0).sum())


def _chunked_interest(query, points):
    """Batch interest in fixed-size chunks (identical for both paths, and
    keeps the (chunk, m, dims) broadcast inside memory)."""
    out = []
    for start in range(0, len(points), PROBE_CHUNK):
        out.extend(query(points[start:start + PROBE_CHUNK]))
    return out


def test_aggregation_speedup_record(benchmark):
    space, subs, pmf, points = _build_workload()

    def run():
        # -- fit pipeline, subscriber columns ---------------------------
        start = time.perf_counter()
        direct_cells = build_cell_set(space, subs, pmf)
        direct_fit = PairwiseGroupingClustering().fit(direct_cells, N_GROUPS)
        direct_fit_s = time.perf_counter() - start

        # -- fit pipeline, aggregate columns + expansion ----------------
        start = time.perf_counter()
        agg = aggregate_subscriptions(subs)
        agg_cells, expanded = build_aggregate_cells(space, subs, agg, pmf)
        agg_fit = PairwiseGroupingClustering().fit(agg_cells, N_GROUPS)
        via_agg = Clustering(expanded, agg_fit.assignment)
        agg_fit_s = time.perf_counter() - start

        # byte-identity of everything downstream consumers see
        np.testing.assert_array_equal(
            expanded.membership, direct_cells.membership
        )
        np.testing.assert_array_equal(expanded.probs, direct_cells.probs)
        np.testing.assert_array_equal(
            via_agg.assignment, direct_fit.assignment
        )
        np.testing.assert_array_equal(
            via_agg.group_membership, direct_fit.group_membership
        )
        assert via_agg.total_expected_waste() == direct_fit.total_expected_waste()
        assert agg_fit.total_expected_waste() == direct_fit.total_expected_waste()

        # -- match throughput: batch interest sweep ---------------------
        start = time.perf_counter()
        direct_interest = _chunked_interest(
            subs.batch_interested_subscribers, points
        )
        direct_match_s = time.perf_counter() - start

        view = AggregateView(subs, agg)
        start = time.perf_counter()
        agg_interest = _chunked_interest(
            view.batch_interested_subscribers, points
        )
        agg_match_s = time.perf_counter() - start

        for mine, theirs in zip(agg_interest, direct_interest):
            np.testing.assert_array_equal(mine, theirs)

        return {
            "fit_direct_s": direct_fit_s,
            "fit_aggregated_s": agg_fit_s,
            "fit_speedup": direct_fit_s / agg_fit_s,
            "match_direct_eps": len(points) / direct_match_s,
            "match_aggregated_eps": len(points) / agg_match_s,
            "match_speedup": direct_match_s / agg_match_s,
            "n_aggregates": agg.n_aggregates,
            "aggregation_ratio": agg.aggregation_ratio,
            "n_contained": _n_contained(agg.los, agg.his),
        }

    current = benchmark.pedantic(run, rounds=1, iterations=1)
    record = {
        "benchmark": "aggregation",
        "config": {
            "m_subscriptions": M_SUBSCRIPTIONS,
            "n_distinct_rectangles": N_DISTINCT,
            "grid": [GRID, GRID],
            "n_groups": N_GROUPS,
            "n_probes": N_PROBES,
            "zipf_exponent": 1.1,
        },
        "current": current,
        "stamp": bench_stamp(),
    }
    BENCH_RECORD.write_text(json.dumps(record, indent=2) + "\n")

    print_banner("Aggregation at m=100k (BENCH_aggregation.json)")
    print(f"  aggregates            {current['n_aggregates']} "
          f"(ratio {current['aggregation_ratio']:.0f}x, "
          f"{current['n_contained']} contained)")
    print(f"  fit pipeline direct   {current['fit_direct_s'] * 1e3:9.1f} ms")
    print(f"  fit pipeline agg      {current['fit_aggregated_s'] * 1e3:9.1f} ms "
          f"({current['fit_speedup']:.1f}x)")
    print(f"  match direct          {current['match_direct_eps']:9.0f} events/s")
    print(f"  match agg             {current['match_aggregated_eps']:9.0f} events/s "
          f"({current['match_speedup']:.1f}x)")

    # most of the population collapses: 100k rows over 500 rectangles
    assert current["n_aggregates"] == N_DISTINCT
    assert current["aggregation_ratio"] >= 100
    assert current["n_contained"] > N_DISTINCT / 2, (
        "the workload generator stopped producing nested rectangles"
    )
    # the acceptance gates
    assert current["fit_speedup"] >= 3.0, (
        f"aggregated fit pipeline only {current['fit_speedup']:.2f}x faster"
    )
    assert current["match_speedup"] >= 2.0, (
        f"aggregated matching only {current['match_speedup']:.2f}x faster"
    )


def test_online_delivery_identity(benchmark):
    """The online path: a churn-free broker soak with aggregation on vs
    off delivers receipt-for-receipt identical results (the batch
    identity above, replayed through the rebuild/publish loop)."""
    params = TransitStubParams(
        n_transit_blocks=3,
        transit_nodes_per_block=2,
        stubs_per_transit=1,
        nodes_per_stub=4,
    )
    topology = TransitStubGenerator(params, np.random.default_rng(7)).generate()
    publications = MixturePublicationModel(topology, single_mode_mixture())
    routing = RoutingTables(topology.graph)
    space, pmf = publications.space, publications.cell_pmf()

    rng = np.random.default_rng(11)
    rects = []
    for _ in range(30):
        lo = [rng.uniform(dim.lo, dim.hi - 1) for dim in space.dimensions]
        hi = [
            l + rng.uniform(1, (dim.hi - dim.lo) / 2 + 1)
            for l, dim in zip(lo, space.dimensions)
        ]
        rects.append(Rectangle.from_bounds(lo, hi))
    stub_nodes = topology.stub_nodes()
    events = [
        tuple(rng.uniform(dim.lo, dim.hi) for dim in space.dimensions)
        for _ in range(120)
    ]
    publishers = [int(n) for n in rng.choice(stub_nodes, size=len(events))]

    def run():
        receipts = {}
        for aggregate in (False, True):
            broker = ContentBroker(
                routing, space, pmf,
                config=BrokerConfig(
                    n_groups=8, max_cells=300,
                    rebalance_after=10**9, aggregate=aggregate,
                ),
            )
            for i in range(400):
                broker.subscribe(int(stub_nodes[i % len(stub_nodes)]),
                                 rects[i % len(rects)])
            broker.rebuild(full=True)
            receipts[aggregate] = broker.publish_batch(events, publishers)
        return receipts

    receipts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert receipts[True] == receipts[False]

    record = json.loads(BENCH_RECORD.read_text()) if BENCH_RECORD.exists() else {}
    record["online"] = {
        "n_subscriptions": 400,
        "n_distinct_rectangles": 30,
        "n_events": len(events),
        "delivery_identical": True,
    }
    record["stamp"] = bench_stamp()
    BENCH_RECORD.write_text(json.dumps(record, indent=2) + "\n")

    print_banner("Online delivery identity (aggregate on vs off)")
    print(f"  {len(events)} events x 400 subscriptions: "
          f"receipts byte-identical")
