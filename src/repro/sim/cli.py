"""Command-line runner for the paper's tables and figures.

Usage::

    python -m repro.sim.cli table1 [--events N] [--seed S]
    python -m repro.sim.cli table2 [--events N] [--seed S]
    python -m repro.sim.cli fig7   [--modes {1,4,9}] [--groups 10,40,100] ...
    python -m repro.sim.cli fig8 | fig9 | fig10 | fig11
    python -m repro.sim.cli sweep  [--workers N] [--algorithms ...] ...
    python -m repro.sim.cli chaos  [--workers N] ...
    python -m repro.sim.cli serve  [--events N] [--seed S] [--rate R] ...
    python -m repro.sim.cli fleet  [--shards N] [--workers N] ...

``fleet`` replays a seeded churn+publication stream through the runtime
(bounded admission queues, incremental cluster maintenance,
drift-triggered warm refits) across sharded brokers and prints a
virtual-clock report that is byte-identical across runs of the same
seed; ``serve`` is ``fleet --shards 1``.  ``--bench`` writes a JSON
record with end-to-end wall-clock extras.

``sweep`` is the parallel sweep engine's front end: cells (one per
algorithm × group count) fan across ``--workers`` processes with
per-cell seeds spawned from the scenario seed, so results are
byte-identical for any worker count (see ``docs/parallelism.md``).
``fig7`` and ``chaos`` accept ``--workers`` too.

Every sub-command prints the same rows/series the corresponding paper
artefact reports.  Paper-scale runs are the defaults for algorithm
parameters; ``--events`` and the sweep grids control the runtime.

Every sub-command also accepts the observability flags:

``--profile``
    enable span tracing for the run and print a per-phase timing table
    (cell-set build, clustering fit, matching, dispatch pricing, ...)
    after the normal output;
``--trace PATH``
    enable tracing and write a JSONL trace — run manifest, spans and
    metric samples, one JSON object per line — to ``PATH``;
``--metrics-out PATH``
    write the run's metrics snapshot as OpenMetrics/Prometheus text
    exposition (histograms include exact-over-bounds p50/p95/p99
    quantile gauges) to ``PATH``.

``serve``, ``chaos`` and ``sweep`` additionally accept ``--slo SPEC``
(a JSON SLO spec — see ``docs/observability.md``) to evaluate
declarative objectives over sliding virtual-time windows, and ``serve``
and ``chaos`` accept ``--flight`` to record per-event causal stage
chains (the flight recorder).  Both are virtual-clock deterministic:
breach streams and stage records are byte-identical across runs and
worker counts.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..delivery import SCHEMES
from ..obs import (
    RunManifest,
    aggregate_spans,
    disable_tracing,
    enable_tracing,
    get_flight_recorder,
    get_registry,
    get_tracer,
    write_jsonl,
)
from .experiment import GRID_ALGORITHMS
from .figures import figure7, figure8, figure9, figure10, figure11, format_results
from .parallel import default_workers
from .report import chart_improvement, phase_table, results_to_rows, rows_to_csv
from .tables import TABLE1_ROWS, TABLE2_ROWS, format_table, run_table

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    """An integer count that must be at least 1 (e.g. ``--events``)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_int_list(text: str) -> List[int]:
    """Comma-separated counts, each at least 1 (e.g. ``--groups``)."""
    values = _int_list(text)
    for value in values:
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"every entry must be at least 1, got {value}"
            )
    return values


def _non_negative_int_list(text: str) -> List[int]:
    """Comma-separated counts, each at least 0 (e.g. ``fig8 --iters``)."""
    values = _int_list(text)
    for value in values:
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"every entry must be non-negative, got {value}"
            )
    return values


def _name_list(known: Sequence[str]) -> Callable[[str], Tuple[str, ...]]:
    """A parser of comma-separated names, each one of ``known``."""

    def parse(text: str) -> Tuple[str, ...]:
        names = tuple(part for part in text.split(",") if part)
        unknown = [name for name in names if name not in known]
        if unknown or not names:
            problem = (
                f"unknown name(s) {', '.join(map(repr, unknown))}"
                if unknown else "no names given"
            )
            raise argparse.ArgumentTypeError(
                f"{problem}; expected a comma-separated list of "
                f"{', '.join(known)}"
            )
        return names

    return parse


def _slo_objectives(spec: str, parser: argparse.ArgumentParser) -> list:
    """Parse ``--slo``; a malformed or missing spec is a usage error."""
    from ..obs import load_slo_spec

    try:
        return load_slo_spec(spec)
    except (OSError, TypeError, ValueError) as exc:
        parser.error(f"--slo: {exc}")


def _backend_scheme(text: str) -> str:
    """Resolve a ``--multicast-backend`` name to its delivery scheme.

    Unknown names fail argument parsing with the resolver's message,
    which lists the valid backends — never a bare ``KeyError``.
    """
    from ..delivery import resolve_backend

    try:
        return resolve_backend(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.sim.cli",
        description="Regenerate the tables and figures of the paper.",
    )
    # observability flags shared by every sub-command
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument(
        "--profile",
        action="store_true",
        help="trace the run and print a per-phase timing table",
    )
    obs.add_argument(
        "--backend",
        choices=("auto", "numpy", "native"),
        default=None,
        help="membership kernel backend (default: REPRO_KERNEL_BACKEND "
        "or auto); unavailable backends fall back to numpy",
    )
    obs.add_argument(
        "--trace",
        metavar="PATH",
        help="trace the run and write a JSONL trace (manifest + spans "
        "+ metrics) to PATH",
    )
    obs.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run's metrics snapshot as OpenMetrics text "
        "exposition to PATH",
    )
    # SLO flag shared by the online-signal sub-commands
    slo_flags = argparse.ArgumentParser(add_help=False)
    slo_flags.add_argument(
        "--slo",
        metavar="SPEC",
        help="evaluate a JSON SLO spec (path or inline JSON) over the "
        "run's virtual-time signals and print the objective table",
    )
    # subscription-aggregation flag shared by the fitting sub-commands
    agg_flags = argparse.ArgumentParser(add_help=False)
    agg_flags.add_argument(
        "--aggregate",
        action="store_true",
        help="collapse identical subscription rectangles into weighted "
        "aggregates before clustering (byte-identical results; see "
        "docs/aggregation.md)",
    )
    # multicast-backend flag shared by the delivery sub-commands
    backend_flags = argparse.ArgumentParser(add_help=False)
    backend_flags.add_argument(
        "--multicast-backend",
        type=_backend_scheme,
        default=None,
        metavar="NAME",
        help="delivery backend pricing every multicast group: dense "
        "(SPT, the paper's), sparse (shared core tree), application "
        "(member MST, alias: alm) or overlay (structured-overlay "
        "rendezvous trees; see docs/overlay_multicast.md)",
    )
    # worker-pool flag shared by the parallelisable sub-commands
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan sweep cells across N worker processes "
        "(1 = serial, 0 = all cores); results are byte-identical "
        "for any worker count",
    )
    # stream, broker and queue flags shared by the runtime sub-commands
    runtime = argparse.ArgumentParser(add_help=False)
    runtime.add_argument(
        "--flight",
        action="store_true",
        help="record per-event causal stage chains and print the "
        "per-stage latency waterfall",
    )
    runtime.add_argument("--events", type=int, default=20000)
    runtime.add_argument("--seed", type=int, default=7)
    runtime.add_argument("--nodes", type=int, default=100)
    runtime.add_argument("--subs", type=int, default=300)
    runtime.add_argument("--groups", type=int, default=30,
                         help="the global multicast-group budget K, split "
                         "across shards by the coordinator")
    runtime.add_argument("--max-cells", type=int, default=600)
    runtime.add_argument("--rate", type=float, default=800.0,
                         help="mean arrival rate, events per virtual second")
    runtime.add_argument("--service-rate", type=float, default=1000.0,
                         help="per-shard consumer capacity, events per "
                         "virtual second")
    runtime.add_argument("--churn", type=float, default=0.1, metavar="FRAC",
                         help="fraction of events that are joins/leaves")
    runtime.add_argument("--queue-capacity", type=int, default=256)
    runtime.add_argument(
        "--policy", default="block",
        choices=("block", "shed-oldest", "shed-lowest-priority"),
        help="backpressure policy of the churn and publication queues",
    )
    runtime.add_argument("--queue-rate", type=float, default=None,
                         help="per-queue token-bucket rate limit (events "
                         "per virtual second; default unlimited)")
    runtime.add_argument("--drift-threshold", type=float, default=1.25,
                         help="waste-inflation ratio that triggers a warm "
                         "refit")
    sub = parser.add_subparsers(dest="command", required=True)

    for table in ("table1", "table2"):
        p = sub.add_parser(
            table, help=f"run {table} (section 3 costs)", parents=[obs]
        )
        p.add_argument("--events", type=_positive_int, default=60)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "fig7",
        help="improvement %% vs number of groups",
        parents=[obs, pool, agg_flags, backend_flags],
    )
    p.add_argument("--modes", type=int, choices=(1, 4, 9), default=1)
    p.add_argument("--groups", type=_positive_int_list, default=[10, 40, 100])
    p.add_argument(
        "--algorithms",
        type=_name_list(GRID_ALGORITHMS),
        default="kmeans,forgy,mst,pairs",
        help="comma-separated algorithm names",
    )
    p.add_argument("--events", type=_positive_int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-noloss", action="store_true")
    p.add_argument("--csv", metavar="PATH", help="also export rows as CSV")
    p.add_argument(
        "--chart", action="store_true", help="render an ASCII chart"
    )

    p = sub.add_parser("fig8", help="no-loss parameter sweeps", parents=[obs])
    p.add_argument(
        "--keeps", type=_positive_int_list, default=[250, 500, 1000, 2000]
    )
    p.add_argument(
        "--iters", type=_non_negative_int_list, default=[0, 1, 2, 4, 8]
    )
    p.add_argument("--groups", type=_positive_int, default=60)
    p.add_argument("--events", type=_positive_int, default=150)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "fig9", help="robustness across topology seeds", parents=[obs]
    )
    p.add_argument("--seeds", type=_int_list, default=[0, 1])
    p.add_argument("--groups", type=_positive_int_list, default=[10, 40, 100])
    p.add_argument("--events", type=_positive_int, default=150)

    for fig in ("fig10", "fig11"):
        p = sub.add_parser(
            fig, help="quality/time vs cell budget", parents=[obs]
        )
        p.add_argument(
            "--cells", type=_positive_int_list,
            default=[250, 500, 1000, 2000],
        )
        p.add_argument("--groups", type=_positive_int, default=60)
        p.add_argument("--events", type=_positive_int, default=150)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "sweep",
        help="parallel sweep over algorithm x group-count cells",
        parents=[obs, pool, slo_flags, agg_flags, backend_flags],
    )
    p.add_argument("--modes", type=int, choices=(1, 4, 9), default=1)
    p.add_argument("--subs", type=_positive_int, default=1000,
                   help="number of subscriptions in the scenario")
    p.add_argument("--groups", type=_positive_int_list, default=[10, 40, 100])
    p.add_argument(
        "--algorithms",
        type=_name_list(GRID_ALGORITHMS),
        default="kmeans,forgy,mst,pairs",
        help="comma-separated algorithm names",
    )
    p.add_argument("--schemes", type=_name_list(SCHEMES), default="dense",
                   help="comma-separated delivery schemes")
    p.add_argument("--max-cells", type=_positive_int, default=None,
                   help="hyper-cell budget for every algorithm "
                   "(default: the paper's per-algorithm budgets)")
    p.add_argument("--events", type=_positive_int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noloss", action="store_true",
                   help="also run the No-Loss algorithm per group count")
    p.add_argument("--csv", metavar="PATH", help="also export rows as CSV")
    p.add_argument(
        "--bench", metavar="PATH",
        help="write a JSON wall-clock record (workers, per-cell seconds)",
    )

    p = sub.add_parser(
        "serve",
        help="replay a churn+publication stream through one broker "
        "(fleet --shards 1)",
        parents=[obs, runtime, slo_flags, agg_flags, backend_flags],
    )
    p.add_argument(
        "--bench", metavar="PATH", nargs="?", const="BENCH_online.json",
        help="write a JSON bench record (default BENCH_online.json)",
    )

    p = sub.add_parser(
        "fleet",
        help="replay one churn+publication stream across a sharded "
        "multi-broker fleet with a coordinator-split group budget",
        parents=[obs, pool, runtime, slo_flags, agg_flags, backend_flags],
    )
    p.add_argument("--shards", type=int, default=4,
                   help="number of broker shards (1 = the single-broker "
                   "soak, byte-identical to `serve`)")
    p.add_argument(
        "--sharding", default="hash", choices=("hash", "region"),
        help="cell-ownership strategy: consistent hashing or "
        "contiguous region slabs",
    )
    p.add_argument(
        "--fleet-policy", default="replicate",
        choices=("replicate", "forward"),
        help="cross-shard subscriptions: full members everywhere "
        "(replicate) or grouped at home only with unicast forwards "
        "elsewhere (forward)",
    )
    p.add_argument("--epochs", type=int, default=1,
                   help="coordination barriers: the stream splits into "
                   "this many slices with K rebalanced between them")
    p.add_argument(
        "--rebalance-threshold", type=float, default=1.25,
        help="waste-vs-budget misalignment ratio past which the "
        "coordinator resplits K at an epoch barrier",
    )
    p.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write per-shard end-state checkpoints and the fleet "
        "manifest under DIR",
    )
    p.add_argument(
        "--bench", metavar="PATH", nargs="?", const="BENCH_fleet.json",
        help="write a JSON bench record (default BENCH_fleet.json)",
    )

    p = sub.add_parser(
        "chaos",
        help="replay a fault schedule and report delivery degradation",
        parents=[obs, pool, slo_flags, backend_flags],
    )
    p.add_argument(
        "--flight",
        action="store_true",
        help="record per-publication cause chains (down nodes/links + "
        "stage records) for every non-delivered publication",
    )
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--subs", type=int, default=500)
    p.add_argument("--events", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--groups", type=_positive_int, default=20)
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument(
        "--node-fail",
        type=float,
        default=0.1,
        metavar="FRAC",
        help="fraction of nodes that fail during the horizon",
    )
    p.add_argument("--link-faults", type=int, default=0)
    p.add_argument("--churn", type=int, default=0,
                   help="subscriber leave/join pairs during the horizon")
    p.add_argument("--debounce", type=float, default=2.0,
                   help="quiet period before a churn-driven rebuild")
    p.add_argument("--backoff", type=float, default=1.0,
                   help="base interval of the rebuild exponential backoff")
    p.add_argument(
        "--full-rebuild-fraction", type=float, default=0.3,
        help="churn fraction beyond which rebuilds re-cluster cold",
    )
    p.add_argument(
        "--schedule", metavar="PATH",
        help="replay a JSON fault schedule instead of generating one",
    )
    p.add_argument(
        "--save-schedule", metavar="PATH",
        help="write the (generated) schedule as JSON",
    )
    p.add_argument(
        "--report", metavar="PATH",
        help="write the degradation report (+ per-publication costs) "
        "as JSONL",
    )
    p.add_argument(
        "--no-baseline", action="store_true",
        help="skip the no-fault baseline run (and the byte-identity "
        "check for empty schedules)",
    )
    p.add_argument(
        "--compare-healing", action="store_true",
        help="also replay the schedule under the dense and overlay "
        "backends and print the healing-vs-recompute comparison "
        "(availability, lost messages, recovery work per backend)",
    )
    p.add_argument(
        "--compare-healing-out", metavar="PATH",
        help="write the healing comparison as JSON (implies "
        "--compare-healing)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None):
        from ..kernels import set_backend

        set_backend(args.backend)
    profiling = bool(args.profile or args.trace)
    if profiling:
        enable_tracing(clear=True)
        get_registry().reset()
    start = time.perf_counter()
    try:
        with get_tracer().span(f"cli.{args.command}"):
            _run_command(args, parser)
    finally:
        wall_seconds = time.perf_counter() - start
        if profiling:
            disable_tracing()
    if profiling:
        _report_profile(args, argv, wall_seconds)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from ..obs import render_openmetrics

        with open(metrics_out, "w", encoding="utf-8") as handle:
            handle.write(render_openmetrics(get_registry()))
        print(f"(OpenMetrics exposition written to {metrics_out})")
    return 0


def _report_profile(
    args: argparse.Namespace,
    argv: Optional[Sequence[str]],
    wall_seconds: float,
) -> None:
    from ..kernels import backend_name

    tracer = get_tracer()
    if args.profile:
        print()
        print(
            phase_table(
                tracer.spans(),
                title=f"Phase breakdown ({args.command}, "
                f"{wall_seconds:.3f}s wall, "
                f"kernels={backend_name()})",
            )
        )
    if args.trace:
        config = {
            key: value
            for key, value in vars(args).items()
            if key not in ("profile", "trace") and value is not None
        }
        manifest = RunManifest.capture(argv=argv, **config)
        for row in aggregate_spans(tracer.spans()):
            manifest.add_phase(
                row["name"],
                row["total_s"],
                calls=row["calls"],
                self_seconds=row["self_s"],
            )
        n_records = write_jsonl(
            args.trace,
            tracer=tracer,
            registry=get_registry(),
            manifest=manifest,
            flight=get_flight_recorder(),
        )
        print(f"({n_records} trace records written to {args.trace})")


def _run_command(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    if args.command == "table1":
        rows = run_table(
            TABLE1_ROWS, regionalism=0.4, n_events=args.events, seed=args.seed
        )
        print(format_table(rows, "Table 1. Degree 0.4 regionalism"))
    elif args.command == "table2":
        rows = run_table(
            TABLE2_ROWS, regionalism=0.0, n_events=args.events, seed=args.seed
        )
        print(format_table(rows, "Table 2. No regionalism"))
    elif args.command == "fig7":
        backend = args.multicast_backend
        results = figure7(
            group_counts=args.groups,
            algorithms=args.algorithms,
            schemes=(backend,) if backend else ("dense", "alm"),
            modes=args.modes,
            n_events=args.events,
            noloss=not args.no_noloss,
            seed=args.seed,
            workers=default_workers(args.workers),
            aggregate=args.aggregate,
        )
        print(format_results(results))
        if args.chart:
            print()
            print(chart_improvement(results, scheme=backend or "dense"))
        if args.csv:
            rows_to_csv(results_to_rows(results), args.csv)
            print(f"(rows written to {args.csv})")
    elif args.command == "fig8":
        rows = figure8(
            keep_counts=args.keeps,
            iteration_counts=args.iters,
            n_groups=args.groups,
            n_events=args.events,
            seed=args.seed,
        )
        for row in rows:
            print(
                f"sweep={row['sweep']:>10} n_keep={row['n_keep']:>5} "
                f"iters={row['iterations']:>2} "
                f"improvement={row['improvement_pct']:6.2f}% "
                f"fit={row['fit_seconds']:6.2f}s"
            )
    elif args.command == "fig9":
        per_seed = figure9(
            seeds=args.seeds,
            group_counts=args.groups,
            n_events=args.events,
        )
        for seed, results in per_seed.items():
            print(f"-- network seed {seed} --")
            print(format_results(results))
    elif args.command in ("fig10", "fig11"):
        runner = figure10 if args.command == "fig10" else figure11
        rows = runner(
            cell_budgets=args.cells,
            n_groups=args.groups,
            n_events=args.events,
            seed=args.seed,
        )
        print(f"{'algorithm':>14} {'cells':>6} {'improve%':>9} {'fit_s':>8}")
        for row in rows:
            print(
                f"{row['algorithm']:>14} {row['n_cells']:>6} "
                f"{row['improvement_pct']:>9.1f} {row['fit_seconds']:>8.3f}"
            )
    elif args.command == "sweep":
        _run_sweep(args, parser)
    elif args.command in ("serve", "fleet"):
        _run_runtime(args, parser)
    elif args.command == "chaos":
        _run_chaos(args, parser)


def _run_runtime(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    """``fleet``, and ``serve`` as its one-shard case."""
    import os

    from ..fleet import FleetConfig, run_fleet
    from .report import slo_table, stage_waterfall

    fleet = args.command == "fleet"
    # every shard runs a private engine, so the spec travels as dicts
    slo_spec = (
        [o.as_dict() for o in _slo_objectives(args.slo, parser)]
        if args.slo
        else None
    )
    fleet_kwargs = {}
    if fleet:
        fleet_kwargs = dict(
            shards=args.shards,
            sharding=args.sharding,
            fleet_policy=args.fleet_policy,
            epochs=args.epochs,
            workers=default_workers(args.workers),
            rebalance_threshold=args.rebalance_threshold,
            checkpoint_dir=args.checkpoint_dir,
        )
    try:
        config = FleetConfig(
            n_events=args.events,
            seed=args.seed,
            rate=args.rate,
            service_rate=args.service_rate,
            churn_fraction=args.churn,
            n_nodes=args.nodes,
            n_subscriptions=args.subs,
            n_groups=args.groups,
            max_cells=args.max_cells,
            drift_threshold=args.drift_threshold,
            queue_capacity=args.queue_capacity,
            policy=args.policy,
            queue_rate=args.queue_rate,
            scheme=args.multicast_backend or "dense",
            aggregate=args.aggregate,
            **fleet_kwargs,
        )
    except ValueError as exc:
        parser.error(f"{args.command}: {exc}")
    if config.checkpoint_dir:
        os.makedirs(config.checkpoint_dir, exist_ok=True)
    result = run_fleet(config, flight=args.flight, slo_spec=slo_spec)
    # virtual-clock numbers only, byte-identical across runs and worker
    # counts (wall-clock goes to --bench); the SLO table and the stage
    # waterfall run on the virtual clock too
    print(result.deterministic_report(), end="")
    if slo_spec is not None:
        for summary in result.shards:
            svc = summary.service
            if not svc.slo_summary:
                continue
            print()
            print(slo_table(
                svc.slo_summary, svc.slo_breaches,
                title=(
                    f"SLO objectives (shard {summary.shard})"
                    if fleet
                    else "SLO objectives"
                ),
            ))
    if args.flight:
        print()
        print(stage_waterfall(result.flight_records))
        print(f"({len(result.flight_records)} flight records)")
    ratio = result.waste_ratio
    if ratio is not None and ratio > 1.1:
        raise SystemExit(
            f"incremental maintenance drifted {ratio:.3f}x "
            "past the batch refit (gate: 1.1x)"
        )
    if config.checkpoint_dir:
        print(f"(checkpoints written under {config.checkpoint_dir})")
    if args.bench:
        result.write_bench(args.bench)
        print(f"(bench record written to {args.bench})")


def _run_sweep(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    from .figures import PAPER_CELL_BUDGETS
    from .parallel import ContextFactory, plan_cells, run_cells
    from .report import worker_table

    if args.slo:
        # sweeps are offline — no online signals to observe — but the
        # spec is validated and its objectives echoed, so a pipeline can
        # share one spec file across serve/chaos/sweep invocations
        from ..obs import SloEngine
        from .report import slo_table

        engine = SloEngine(_slo_objectives(args.slo, parser))
        print(slo_table(engine.summary(), title="SLO objectives (spec)"))
        print()
    algorithms = args.algorithms
    if args.multicast_backend:
        schemes = (args.multicast_backend,)
    else:
        schemes = args.schemes
    if args.max_cells is not None:
        budgets = {name: args.max_cells for name in algorithms}
    else:
        budgets = {
            name: PAPER_CELL_BUDGETS.get(name) for name in algorithms
        }
    ctx = ContextFactory(
        builder="evaluation",
        kwargs=(
            ("modes", args.modes),
            ("n_subscriptions", args.subs),
            ("seed", args.seed),
        ),
        n_events=args.events,
        aggregate=args.aggregate,
    )()
    cells = plan_cells(
        args.groups, algorithms, schemes=schemes,
        cell_budgets=budgets, noloss=args.noloss,
    )
    workers = default_workers(args.workers)
    start = time.perf_counter()
    outcomes = run_cells(ctx, cells, workers=workers, seed_mode="spawn")
    wall = time.perf_counter() - start
    results = [r for outcome in outcomes for r in outcome.results]
    print(format_results(results))
    print()
    print(worker_table(
        outcomes,
        title=f"Sweep cells ({workers} worker(s), {wall:.3f}s wall)",
    ))
    if args.csv:
        rows_to_csv(results_to_rows(results), args.csv)
        print(f"(rows written to {args.csv})")
    if args.bench:
        import json

        record = {
            "command": "sweep",
            "workers": workers,
            "wall_seconds": wall,
            "n_cells": len(cells),
            "cell_seconds": [
                {"cell": o.cell.label(), "pid": o.pid, "seconds": o.seconds}
                for o in outcomes
            ],
            "config": {
                "modes": args.modes, "subs": args.subs,
                "groups": args.groups, "algorithms": list(algorithms),
                "schemes": list(schemes), "events": args.events,
                "seed": args.seed, "noloss": args.noloss,
                "aggregate": args.aggregate,
            },
        }
        with open(args.bench, "w") as handle:
            json.dump(record, handle, indent=2)
        print(f"(bench record written to {args.bench})")


def _run_chaos(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    from ..faults import FaultSchedule
    from ..obs import RunManifest
    from .parallel import ChaosCell, run_chaos_cells
    from .scenario import build_preliminary_scenario

    # parsed before the scenario build, so a bad spec fails fast
    slo_spec: tuple = ()
    if args.slo:
        slo_spec = tuple(
            tuple(sorted(objective.as_dict().items()))
            for objective in _slo_objectives(args.slo, parser)
        )
    scenario_kwargs = dict(
        n_nodes=args.nodes,
        n_subscriptions=args.subs,
        seed=args.seed,
    )
    try:
        if args.schedule:
            schedule = FaultSchedule.from_json(args.schedule)
        else:
            schedule = FaultSchedule.generate(
                build_preliminary_scenario(**scenario_kwargs).topology,
                horizon=args.horizon,
                seed=args.seed,
                node_fraction=args.node_fail,
                n_link_faults=args.link_faults,
                n_churn=args.churn,
                n_subscribers=args.subs,
            )
    except (OSError, ValueError) as exc:
        parser.error(f"chaos: {exc}")
    if args.save_schedule:
        schedule.to_json(args.save_schedule)
        print(f"(schedule written to {args.save_schedule})")
    config_kwargs = dict(
        n_groups=args.groups,
        scheme=args.multicast_backend or "dense",
        rebalance_after=10**9,  # rebuilds are schedule-driven here
        rebuild_debounce=args.debounce,
        rebuild_backoff_base=args.backoff,
        full_rebuild_fraction=args.full_rebuild_fraction,
    )
    # the faulted replay and its no-fault baseline are independent
    # cells: each worker rebuilds the scenario from the same seed
    # (replay mutates routing tables, so nothing is shared), and the
    # serial path constructs through the identical code, so reports are
    # byte-identical for any --workers value; flight cause chains and
    # SLO breaches travel inside the picklable report, preserving that
    cells = [
        ChaosCell(
            index=0,
            label="faulted",
            scenario_kwargs=tuple(sorted(scenario_kwargs.items())),
            events=tuple(schedule.as_dicts()),
            horizon=schedule.horizon,
            config_kwargs=tuple(sorted(config_kwargs.items())),
            n_events=args.events,
            seed=args.seed,
            flight=args.flight,
            slo_spec=slo_spec,
        )
    ]
    if not args.no_baseline:
        cells.append(
            ChaosCell(
                index=1,
                label="baseline",
                scenario_kwargs=tuple(sorted(scenario_kwargs.items())),
                events=(),
                horizon=schedule.horizon,
                config_kwargs=tuple(sorted(config_kwargs.items())),
                n_events=args.events,
                seed=args.seed,
            )
        )
    workers = default_workers(args.workers)
    outcomes = run_chaos_cells(cells, workers=workers)
    report = outcomes[0].report
    baseline = outcomes[1].report if len(outcomes) > 1 else None
    if baseline is not None:
        report.baseline_cost = baseline.total_cost
    report.workers = workers

    print(report.format())
    if args.flight:
        print(f"({len(report.cause_chains)} cause chain(s) recorded)")
    if args.slo:
        from .report import slo_table

        print()
        print(slo_table(report.slo_summary, report.slo_breaches))
    if baseline is not None and len(schedule) == 0:
        identical = report.per_event_costs == baseline.per_event_costs
        print(
            "no-fault byte-identity vs baseline: "
            + ("PASS" if identical else "FAIL")
        )
        if not identical:
            raise SystemExit(
                "no-fault chaos run diverged from the baseline"
            )
    if report.silently_lost:
        raise SystemExit(
            f"{report.silently_lost} publications silently lost"
        )
    if args.compare_healing or args.compare_healing_out:
        from ..faults import compare_healing

        comparison = compare_healing(
            scenario_kwargs=scenario_kwargs,
            events=list(schedule.as_dicts()),
            horizon=schedule.horizon,
            config_kwargs=config_kwargs,
            n_events=args.events,
            seed=args.seed,
        )
        print()
        print(comparison.format(), end="")
        if args.compare_healing_out:
            comparison.to_json(args.compare_healing_out)
            print(
                f"(healing comparison written to {args.compare_healing_out})"
            )
    if args.report:
        manifest = RunManifest.capture(
            argv=None,
            command="chaos",
            nodes=args.nodes,
            subs=args.subs,
            events=args.events,
            seed=args.seed,
            horizon=schedule.horizon,
            faults=schedule.counts(),
        )
        n_records = report.write_jsonl(args.report, manifest=manifest)
        print(f"({n_records} report records written to {args.report})")


if __name__ == "__main__":
    sys.exit(main())
