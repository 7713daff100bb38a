#!/usr/bin/env python3
"""Compare two benchmark sets.

    python3 benchmarks/perf/compare.py A.json B.json

``A`` is the reference (the parent commit, or ``baseline.json``) and
``B`` the candidate; both are set files written by ``run.py``.  Every
(workload, end-to-end metric) gets its own row with each side's median
and quartiles, judged against the bound ``BENCHMARK.json`` gives it:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better than A's by more than A's own
                 spread (the distance between its quartiles);
* ``unresolved`` either side's spread exceeds the bound, unless every
                 run of B reads better than every run of A;
* ``unchanged``  otherwise.

``cost_per_pub`` and ``improvement_pct`` are functions of the seed alone,
so they are held exactly: any difference is reported, and a worse value
is a regression.  So is a higher ``failed_frac`` (failed over attempted
operations).  The exit status is 1 when any row regresses.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: deterministic for a given seed, so compared exactly
EXACT = ("cost_per_pub", "improvement_pct")


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def collect(runs):
    """{workload: {metric: [values]}} plus ``failed_frac`` per run."""
    table = {}
    for run in runs:
        metrics = table.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
        metrics.setdefault("failed_frac", []).append(
            run["failed"] / max(1, run["attempted"])
        )
    return table


def stats(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def summary_table(table, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_frac"] = "fraction"
    lines = [
        f"{'workload':<13} {'metric':<16} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'min':>12} {'max':>12} {'n':>3}  unit"
    ]
    for workload, metrics in table.items():
        for name, values in metrics.items():
            median, q1, q3, _ = stats(values)
            lines.append(
                f"{workload:<13} {name:<16} {median:>12.6g} {q1:>12.6g} "
                f"{q3:>12.6g} {min(values):>12.6g} {max(values):>12.6g} "
                f"{len(values):>3}  {units.get(name, '')}"
            )
    return "\n".join(lines)


def judge(name, better, bound, a_values, b_values):
    """(verdict, relative change toward worse) of one row."""
    a_med, _, _, a_spread = stats(a_values)
    b_med, _, _, b_spread = stats(b_values)
    sign = 1.0 if better == "lower" else -1.0
    if name == "failed_frac":
        # one failed run is enough: compare the worst run of each side
        a_med, b_med = max(a_values), max(b_values)
    diff = sign * (b_med - a_med)
    worse_by = diff / abs(a_med) if a_med else diff
    if name in EXACT or name == "failed_frac":
        if diff == 0.0:
            return "unchanged", worse_by
        return ("worse" if diff > 0 else "better"), worse_by
    if max(a_spread, b_spread) > bound:
        if all(sign * (b - a) < 0 for a in a_values for b in b_values):
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > a_spread:
        return "better", worse_by
    return "unchanged", worse_by


def compare(a_doc, b_doc, spec):
    a_table = collect(a_doc["runs"])
    b_table = collect(b_doc["runs"])
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("failed_frac", "lower", 0.0))
    rows = []
    for workload in a_table:
        if workload not in b_table:
            continue
        for name, better, bound in metrics:
            a_values = a_table[workload].get(name)
            b_values = b_table[workload].get(name)
            if not a_values or not b_values:
                continue
            verdict, worse_by = judge(name, better, bound, a_values, b_values)
            rows.append((workload, name, bound, a_values, b_values, verdict, worse_by))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = load(BENCHMARK)
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print(
        f"{'workload':<13} {'metric':<16} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict"
    )
    regressions = 0
    for workload, name, bound, a_values, b_values, verdict, worse_by in rows:
        a_med, a_q1, a_q3, _ = stats(a_values)
        b_med, b_q1, b_q3, _ = stats(b_values)
        shown_bound = "exact" if name in EXACT or name == "failed_frac" else f"{bound:.0%}"
        print(
            f"{workload:<13} {name:<16} "
            f"{a_med:>12.6g} [{a_q1:>8.4g}, {a_q3:>8.4g}] "
            f"{b_med:>12.6g} [{b_q1:>8.4g}, {b_q3:>8.4g}] "
            f"{-worse_by:>+8.1%} {shown_bound:>6}  {verdict}"
        )
        regressions += verdict == "worse"
    print(f"\n{len(rows)} rows, {regressions} regression(s); change is "
          "positive when B is better")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
