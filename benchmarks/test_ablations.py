"""Ablations of the paper's design choices.

Not a table or figure of the paper — these measure the claims the paper
makes in prose:

* **Hyper-cell merging** (§4.1 implementation notes): with vs without
  merging identical membership vectors.
* **The Figure 5 threshold rule**: multicast only when enough group
  members are interested.
* **Dense vs sparse vs application-level multicast** (§5.1): the same
  clustering priced under all three frameworks.
"""

from repro.clustering import ForgyKMeansClustering
from repro.matching import GridMatcher

from conftest import print_banner

K = 60
CELLS = 2000


def test_threshold_rule(benchmark, eval_ctx):
    """Figure 5's proportion threshold: a moderate threshold prunes
    wasteful multicasts; an extreme one degenerates to unicast."""

    def run():
        cells = eval_ctx.cells(CELLS)
        clustering = ForgyKMeansClustering().fit(cells, K)
        rows = []
        for threshold in (0.0, 0.05, 0.2, 0.5, 0.95):
            matcher = GridMatcher(
                clustering,
                eval_ctx.scenario.subscriptions,
                threshold=threshold,
            )
            summary = eval_ctx.evaluate_matcher(matcher, "dense")
            rows.append(
                (threshold, summary.improvement, summary.wasted_deliveries)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Ablation: Figure 5 threshold rule (K=60, 2000 cells)")
    for threshold, improvement, wasted in rows:
        print(f"  threshold={threshold:4.2f}: improvement={improvement:6.1f}% "
              f"wasted/event={wasted:6.1f}")
    # waste is monotone decreasing in the threshold
    wastes = [w for _, _, w in rows]
    assert all(a >= b - 1e-9 for a, b in zip(wastes, wastes[1:]))
    # an extreme threshold forfeits almost all multicast benefit
    assert rows[-1][1] < rows[0][1]


def test_multicast_frameworks(benchmark, eval_ctx):
    """One clustering priced under dense, sparse and application-level
    multicast: dense cheapest, alm above it, sparse paying the shared
    rendezvous detour."""

    def run():
        cells = eval_ctx.cells(CELLS)
        clustering = ForgyKMeansClustering().fit(cells, K)
        matcher = GridMatcher(clustering, eval_ctx.scenario.subscriptions)
        return {
            scheme: eval_ctx.evaluate_matcher(matcher, scheme)
            for scheme in ("dense", "alm", "sparse")
        }

    summaries = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Ablation: multicast frameworks (K=60, 2000 cells)")
    for scheme, summary in summaries.items():
        print(f"  {scheme:>7}: cost={summary.achieved:8.1f} "
              f"improvement={summary.improvement:6.1f}% "
              f"(unicast={summary.unicast:.0f}, ideal={summary.ideal:.0f})")
    assert summaries["alm"].achieved >= summaries["dense"].achieved - 1e-6
    # all three stay well below unicast on this workload
    for summary in summaries.values():
        assert summary.achieved < summary.unicast


def test_hypercell_merging(benchmark, eval_ctx):
    """§4.1: merging identical membership vectors is lossless — it
    changes the input size, not the grouping quality."""
    from repro.grid import CellSet, build_membership_matrix

    def run():
        scenario = eval_ctx.scenario
        merged = eval_ctx.cells(None)
        matrix = build_membership_matrix(
            scenario.space, scenario.subscriptions
        )
        nonempty = int(matrix.any(axis=1).sum())
        return {"raw_cells": nonempty, "hyper_cells": len(merged)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Ablation: hyper-cell merging (input-size reduction)")
    print(f"  non-empty grid cells: {results['raw_cells']}")
    print(f"  hyper-cells after merging: {results['hyper_cells']}")
    reduction = 1 - results["hyper_cells"] / results["raw_cells"]
    print(f"  reduction: {100 * reduction:.1f}%")
    assert results["hyper_cells"] < results["raw_cells"]
