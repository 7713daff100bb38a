#!/usr/bin/env python3
"""The broker's seeded benchmark: four workloads, end-to-end metrics,
an outside-in layer trace, and goldens.

One workload, one seed (the form every measurement takes)::

    python3 benchmarks/perf/run.py --workload serve-steady --seed 7 \
        --seconds 22 --trace 0

replays the workload's inputs, made from ``--seed``, for ``--seconds``,
checks the outputs, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.

A set (round-robin rounds of every workload, each in a fresh process,
then a golden check on the held-out seeds)::

    python3 benchmarks/perf/run.py [--rounds 3] [--out FILE [--append]]

A traced set (per-layer tables, span files under ``out/``)::

    python3 benchmarks/perf/run.py --trace

See README.md for the workloads, the metrics and how to compare sets.
"""

import os

# one thread per process for every BLAS/OpenMP pool numpy may load, set
# before numpy is imported: the fleet's two workers must not oversubscribe
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import pickle
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDENS = HERE / "goldens.json"

#: number of inputs one run replays: input j of seed s is seed s + 1000 j.
#: The quality metrics and the peak RSS depend on the seeded scenario;
#: averaging them over six inputs keeps their spread across seeds well
#: inside the bounds.
INPUTS_PER_RUN = 6
INPUT_STRIDE = 1000
#: seed of the short warm-up run (quick sizes), never a measured input
WARMUP_SEED = 99991

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: layers every workload crosses: their self time is reported in seconds
TIMED_LAYERS = (
    "workload", "network", "grid", "clustering", "kernels", "matching",
    "delivery", "sim",
)
#: layers some workload bypasses: reported as a share of the traced wall,
#: so a bypassed layer reads 0 % instead of a constant zero time
SHARED_LAYERS = ("broker", "online", "fleet")

#: boundaries whose call count and share of the traced wall are reported;
#: README.md maps each to the end-to-end metric and workload it should move
TRACED_FUNCTIONS = (
    "broker.ContentBroker.publish",
    "broker.ContentBroker.rebuild",
    "matching.GridMatcher.match",
    "matching.GridMatcher.match_batch",
    "matching.NoLossMatcher.match_batch",
    "delivery.Dispatcher.unicast_reference",
    "delivery.Dispatcher.ideal_reference",
    "delivery.Dispatcher.plan_costs",
    "delivery.AdaptiveDeliveryPolicy.decide",
    "online.BrokerService.run",
    "online.BoundedQueue.offer",
    "online.BoundedQueue.pop",
    "online.ClusterMaintainer.join",
    "online.ClusterMaintainer.leave",
    "online.ClusterMaintainer.maybe_rebuild",
    "online.finalize_equivalence",
    "grid.cell_set_from_membership",
    "grid.build_cell_set",
    "clustering.KMeansClustering.fit",
    "clustering.ForgyKMeansClustering.fit",
    "clustering.PairwiseGroupingClustering.fit",
    "clustering.MSTClustering.fit",
    "clustering.NoLossAlgorithm.fit",
    "fleet.route_fleet_stream",
    "fleet.run_shard_task",
    "sim.ExperimentContext.reference_costs",
    "network.RoutingTables.shortest_paths",
    "network.Graph.shortest_paths",
)
#: kernel methods, summed over whichever backend class served them
KERNEL_METHODS = ("waste_matrix", "pairwise_fit")


def input_seeds(seed):
    return [seed + INPUT_STRIDE * j for j in range(INPUTS_PER_RUN)]


def load_benchmark():
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def load_goldens():
    if not GOLDENS.is_file():
        return {}
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb():
    """The larger of this process's and its children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def forked(fn):
    """Run ``fn()`` in a forked child and return its picklable result.

    Each iteration gets a process of its own that starts from the warmed,
    frozen parent: its peak RSS is its own, and nothing it allocates or
    fragments carries into the next iteration.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            try:
                payload = pickle.dumps((True, fn()))
                status = 0
            except Exception:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as handle:
                handle.write(payload)
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as handle:
        data = handle.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("iteration process died without a result")
    ok, result = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"iteration failed:\n{result}")
    return result


# ----------------------------------------------------------------------
# one workload, one seed
# ----------------------------------------------------------------------
class Measurement:
    """Replays one workload's inputs and accumulates its iterations."""

    def __init__(self, workload, seed, quick):
        from workloads import ServiceProbe

        self.workload = workload
        self.params = workload.quick if quick else workload.params
        self.inputs = input_seeds(seed)
        self.goldens = {} if quick else load_goldens().get(workload.name, {})
        self.probe = ServiceProbe()
        self.records = []
        self.digests = {}
        self.errors = []

    def warm_up(self):
        """A short run at quick sizes: imports, lazy kernel builds and
        first-call paths happen here, outside the timed iterations."""
        self.probe.install()
        w = self.workload
        raw, wall, setup = w.execute(w.quick, WARMUP_SEED, self.probe)
        w.summarize(w.quick, raw, wall, setup, self.probe)
        del raw
        gc.collect()
        gc.freeze()

    def _iteration(self, seed, traced, spans_path):
        """The body of one forked iteration."""
        from repro.obs import get_registry

        w = self.workload
        get_registry().reset()
        if traced:
            from layertrace import LayerTracer, write_spans

            tracer = LayerTracer(OUT)
            with tracer.run(f"bench.{w.name}", str(os.getpid())):
                raw, wall, setup = w.execute(self.params, seed, self.probe)
        else:
            raw, wall, setup = w.execute(self.params, seed, self.probe)
        outcome = w.summarize(self.params, raw, wall, setup, self.probe)
        record = {
            "seed": seed,
            "traced": traced,
            "outcome": outcome,
            "peak_rss_mb": peak_rss_mb(),
        }
        if traced:
            hit_ratio = dispatcher_hit_ratio(get_registry())
            record["layers"] = layer_metrics(w.name, tracer.spans, hit_ratio, outcome)
            if spans_path is not None:
                record["table"] = layer_report(w.name, tracer.spans, outcome.wall_s)
                write_spans(spans_path, tracer.spans)
        return record

    def iterate(self, index, traced=False, spans_path=None):
        seed = self.inputs[index % len(self.inputs)]
        started = time.perf_counter()
        record = forked(lambda: self._iteration(seed, traced, spans_path))
        record["seconds"] = time.perf_counter() - started
        self.check(seed, record["outcome"])
        self.records.append(record)
        return record

    def check(self, seed, outcome):
        for error in outcome.errors:
            self.errors.append(f"seed {seed}: {error}")
        digest = outcome.digest
        if self.digests.setdefault(seed, digest) != digest:
            self.errors.append(f"seed {seed}: output differs between runs")
        golden = self.goldens.get(str(seed))
        if golden is not None and golden != digest:
            self.errors.append(f"seed {seed}: output differs from golden")

    def loop(self, seconds, trace, spans_path=None):
        """Iterate until ``seconds`` would be exceeded, replaying every
        input at least once.  With ``trace`` every other iteration is
        traced, and each pass over the inputs swaps which ones."""
        passes = len(self.inputs)
        start = time.perf_counter()
        index = 0
        while True:
            traced = trace and (index + index // passes) % 2 == 1
            self.iterate(index, traced, spans_path if index == 1 else None)
            index += 1
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["seconds"] for r in self.records)
            if index >= passes and elapsed + typical > seconds:
                return

    # ------------------------------------------------------------------
    @property
    def correct(self):
        return not self.errors

    def counts(self):
        attempted = sum(r["outcome"].attempted for r in self.records)
        failed = sum(r["outcome"].failed for r in self.records)
        if not self.correct:
            failed = attempted
        return attempted, failed

    def end_to_end(self):
        """Timings: medians over the timed iterations.  Peak RSS and the
        quality metrics, which depend on the input: means over the inputs
        (of each input's median peak RSS)."""
        outcomes = [r["outcome"] for r in self.records if not r["traced"]]
        by_input = {}
        for record in self.records:
            by_input.setdefault(record["seed"], []).append(record)
        first = [records[0]["outcome"] for records in by_input.values()]
        return {
            "wall_s": statistics.median(o.wall_s for o in outcomes),
            "events_per_s": statistics.median(o.events / o.wall_s for o in outcomes),
            "setup_s": statistics.median(o.setup_s for o in outcomes),
            "peak_rss_mb": statistics.fmean(
                statistics.median(r["peak_rss_mb"] for r in records)
                for records in by_input.values()
            ),
            "cost_per_pub": statistics.fmean(o.cost_per_pub for o in first),
            "improvement_pct": statistics.fmean(o.improvement_pct for o in first),
        }

    def per_layer(self):
        """Medians over the traced iterations of every per-layer value,
        plus the tracing overhead against the timed iterations."""
        traced = [r for r in self.records if r["traced"]]
        values = {}
        for record in traced:
            for name, value in record["layers"].items():
                values.setdefault(name, []).append(value)
        metrics = {name: statistics.median(v) for name, v in values.items()}
        traced_wall = statistics.median(r["outcome"].wall_s for r in traced)
        plain_wall = self.end_to_end()["wall_s"]
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
        return metrics


def dispatcher_hit_ratio(registry):
    """Hit share of the dispatchers' multicast-cost memo lookups."""
    counter = registry.get("dispatcher_cache_lookups_total")
    hits = lookups = 0.0
    for sample in counter.samples() if counter is not None else ():
        labels = sample["labels"]
        if labels.get("cache") == "group_cost":
            lookups += sample["value"]
            if labels.get("result") == "hit":
                hits += sample["value"]
    return hits / lookups if lookups else 0.0


def layer_metrics(workload_name, spans, hit_ratio, outcome):
    """Every per-layer value of one traced iteration."""
    from layertrace import UNATTRIBUTED, function_stats, layer_table

    tables = layer_table(spans, f"bench.{workload_name}")
    wall = outcome.wall_s

    def share(seconds):
        return 100.0 * seconds / wall

    def summed(row):
        return sum(table.get(row, 0.0) for table in tables.values())

    metrics = {f"{layer}.self_s": summed(layer) for layer in TIMED_LAYERS}
    metrics[f"{UNATTRIBUTED}.self_s"] = summed(UNATTRIBUTED)
    for layer in SHARED_LAYERS:
        metrics[f"{layer}.self_pct"] = share(summed(layer))
    stats = function_stats(spans)
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    for name in TRACED_FUNCTIONS:
        entry = stats.get(name, empty)
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_pct"] = share(entry["self_s"])
    for method in KERNEL_METHODS:
        entries = [
            entry for span, entry in stats.items()
            if span.startswith("kernels.") and span.endswith(f".{method}")
        ]
        metrics[f"kernels.{method}.calls"] = sum(e["calls"] for e in entries)
        metrics[f"kernels.{method}.self_pct"] = share(
            sum(e["self_s"] for e in entries)
        )
    metrics["delivery.Dispatcher.hit_ratio"] = hit_ratio
    # shard setup: run_shard_task wall minus the service loop it reports
    shard_tasks = stats.get("fleet.run_shard_task", empty)
    metrics["fleet.shard_setup_pct"] = share(
        sum(shard_tasks["durations"]) - sum(outcome.shard_seconds)
    )
    loops = outcome.shard_seconds or [1.0]
    metrics["fleet.loop_imbalance"] = max(loops) / min(loops)
    return metrics


def layer_report(workload_name, spans, wall):
    """Per-process self-time tables and the top boundaries, as text."""
    from layertrace import LAYERS, UNATTRIBUTED, function_stats, layer_table, percentile

    tables = layer_table(spans, f"bench.{workload_name}")
    main = next(pid for pid, table in tables.items() if UNATTRIBUTED in table)
    lines = []
    for pid in [main] + sorted(p for p in tables if p != main):
        table = tables[pid]
        total = table["_total"]
        title = "main process" if pid == main else f"worker {pid}"
        lines.append(f"  layer self time, {title}: top-level spans {total:.4f} s")
        rows = [r for r in LAYERS + (UNATTRIBUTED,) if r in table]
        for row in sorted(rows, key=lambda r: -table[r]):
            lines.append(
                f"    {row:<14} {table[row]:>9.4f} s {100 * table[row] / total:6.1f} %"
            )
        lines.append(f"    {'sum':<14} {sum(table[r] for r in rows):>9.4f} s")
    lines.append(f"  top boundaries by self time (traced wall {wall:.4f} s)")
    stats = function_stats(spans)
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:15]:
        durations = entry["durations"]
        tail = ""
        if len(durations) >= 1000:
            tail = (
                f"  p50 {1e6 * percentile(durations, 50):.1f} us"
                f"  p99 {1e6 * percentile(durations, 99):.1f} us"
            )
        lines.append(
            f"    {name:<46} {entry['calls']:>7} calls {entry['self_s']:>8.4f} s"
            f"  max {1e3 * max(durations):.2f} ms{tail}"
        )
    return "\n".join(lines)


def run_one(args):
    """One workload, one seed; the last line printed is the result."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = load_benchmark()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(parents=True, exist_ok=True)
    measurement = Measurement(workload, args.seed, args.quick)
    t0 = time.perf_counter()
    measurement.warm_up()
    print(f"# {workload.name} seed {args.seed}: inputs {measurement.inputs}, "
          f"warm-up {time.perf_counter() - t0:.2f} s")
    spans_path = OUT / f"trace-{workload.name}-{args.seed}.jsonl"
    measurement.loop(args.seconds, bool(args.trace), spans_path)
    for record in measurement.records:
        o = record["outcome"]
        kind = "traced" if record["traced"] else "timed "
        print(f"#   input {record['seed']:>5} {kind} wall {o.wall_s:.4f} s "
              f"setup {o.setup_s:.4f} s rss {record['peak_rss_mb']:.1f} MB "
              f"digest {o.digest[:12]}")
    for error in measurement.errors:
        print(f"# ERROR {error}")
    if args.trace:
        print(next(r["table"] for r in measurement.records if "table" in r))
        computed = measurement.per_layer()
        print(f"  tracing overhead {computed['trace.overhead_pct']:+.1f} % "
              f"(spans of one traced iteration in {spans_path.relative_to(ROOT)})")
    else:
        computed = measurement.end_to_end()
    metrics = {}
    for entry in declared:
        value = computed[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<48} {value:>14.6g} {entry['unit']}")
    attempted, failed = measurement.counts()
    print(json.dumps({
        "correct": measurement.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


# ----------------------------------------------------------------------
# sets of runs
# ----------------------------------------------------------------------
def _child(workload, seed, seconds, trace, quick):
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode})")
    return lines[:-1], json.loads(lines[-1])


def run_set(args):
    from workloads import WORKLOADS

    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    if args.trace:
        for name in names:
            seed = WORKLOADS[name].default_seed
            lines, result = _child(name, seed, args.seconds, True, args.quick)
            print(f"== {name} (seed {seed}, traced)")
            print("\n".join(line for line in lines if not line.startswith("#")))
            if not result["correct"]:
                raise SystemExit(f"{name}: outputs failed their checks")
        return
    runs = []
    for round_index in range(args.rounds):
        for name in names:
            seed = WORKLOADS[name].default_seed
            _, result = _child(name, seed, args.seconds, False, args.quick)
            result.update(workload=name, seed=seed, round=round_index)
            runs.append(result)
            print(f"round {round_index} {name:<13} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    heldout = {}
    for name in names:
        seed = WORKLOADS[name].heldout_seed
        _, result = _child(name, seed, 1, False, args.quick)
        heldout[name] = {"seed": seed, "correct": result["correct"]}
        print(f"held-out {name:<13} seed {seed} correct={result['correct']}", flush=True)
    record_set(args, spec, runs, heldout)
    if not all(r["correct"] for r in runs + list(heldout.values())):
        raise SystemExit("outputs failed their checks")


def record_set(args, spec, runs, heldout):
    """Write (or append) the set to its result file and print a summary."""
    import compare
    from repro.obs import bench_stamp

    entry = {
        "stamp": bench_stamp(),
        "rounds": args.rounds,
        "seconds": args.seconds,
        "quick": args.quick,
        "inputs_per_run": INPUTS_PER_RUN,
        "seeds": {r["workload"]: r["seed"] for r in runs},
        "heldout": heldout,
        "env": {
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "threads": {
                v: os.environ[v]
                for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
    }
    out = Path(args.out) if args.out else OUT / f"set-{time.strftime('%Y%m%d-%H%M%S')}.json"
    document = {"schema": 1, "sets": [], "runs": []}
    if args.append and out.is_file():
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
    for run in runs:
        run["set"] = len(document["sets"])
    document["sets"].append(entry)
    document["runs"].extend(runs)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print()
    print(compare.summary_table(compare.collect(document["runs"]), spec))
    print(f"\n(set written to {out})")


def update_goldens():
    """Rewrite goldens.json from the default and held-out seeds' inputs."""
    from workloads import WORKLOADS

    goldens = {}
    for name, workload in WORKLOADS.items():
        measurement = Measurement(workload, workload.default_seed, quick=False)
        measurement.goldens = {}
        measurement.warm_up()
        for seed in (workload.default_seed, workload.heldout_seed):
            measurement.inputs = input_seeds(seed)
            for index in range(INPUTS_PER_RUN):
                measurement.iterate(index)
        if measurement.errors:
            raise SystemExit(f"{name}: " + "; ".join(measurement.errors))
        goldens[name] = {str(s): d for s, d in sorted(measurement.digests.items())}
        print(f"{name}: {len(goldens[name])} goldens", flush=True)
    with open(GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload on one seed")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", help="set result file (default under out/)")
    parser.add_argument("--append", action="store_true",
                        help="append this set to --out instead of replacing it")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, no goldens (smoke test)")
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite goldens.json from the current program")
    args = parser.parse_args(argv)
    # measure the checkout's own source, never an installed copy
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    # the native kernel backend compiles into the checkout, and the
    # compiler's and the program's temporary files stay there too
    os.environ["REPRO_KERNEL_CACHE"] = str(OUT / "kernel-cache")
    os.environ["TMPDIR"] = str(OUT / "tmp")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    spec = load_benchmark()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.update_goldens:
        update_goldens()
    elif args.workload is not None:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        if args.seed is None:
            args.seed = WORKLOADS[args.workload].default_seed
        run_one(args)
    else:
        run_set(args)


if __name__ == "__main__":
    main()
