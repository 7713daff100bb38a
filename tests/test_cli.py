"""Tests for the command-line runner."""

import pytest

from repro.sim.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.events == 60
        assert args.seed == 0

    def test_fig7_options(self):
        args = build_parser().parse_args(
            ["fig7", "--modes", "4", "--groups", "5,10", "--events", "30"]
        )
        assert args.modes == 4
        assert args.groups == [5, 10]
        assert args.events == 30
        assert args.profile is False
        assert args.trace is None

    def test_observability_flags_on_every_command(self):
        for argv in (
            ["table1", "--profile"],
            ["fig7", "--trace", "out.jsonl"],
            ["fig8", "--profile", "--trace", "out.jsonl"],
            ["fig10", "--profile"],
        ):
            args = build_parser().parse_args(argv)
            assert args.profile == ("--profile" in argv)
            assert args.trace == (
                "out.jsonl" if "--trace" in argv else None
            )

    def test_int_list_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--groups", "a,b"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_multicast_backend_resolves_to_scheme(self):
        for name, scheme in (
            ("dense", "dense"),
            ("alm", "alm"),
            ("application", "alm"),
            ("sparse", "sparse"),
            ("overlay", "overlay"),
        ):
            args = build_parser().parse_args(
                ["fig7", "--multicast-backend", name]
            )
            assert args.multicast_backend == scheme

    def test_multicast_backend_flag_on_every_runtime_command(self):
        for command in ("fig7", "sweep", "serve", "fleet", "chaos"):
            args = build_parser().parse_args(
                [command, "--multicast-backend", "overlay"]
            )
            assert args.multicast_backend == "overlay"

    @pytest.mark.parametrize("command", ["fig7", "sweep", "serve", "fleet"])
    def test_no_aggregate_flag(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--aggregate"])
        assert excinfo.value.code == 2
        assert "--aggregate" in capsys.readouterr().err

    def test_unknown_multicast_backend_lists_valid_names(self, capsys):
        """A typo'd backend is an argparse error naming every valid
        backend — never a bare KeyError."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "--multicast-backend", "bogus"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown multicast backend 'bogus'" in err
        for name in ("alm", "application", "dense", "overlay", "sparse"):
            assert name in err


def _subcommands():
    import argparse

    parser = build_parser()
    (action,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sorted(action.choices)


class TestHelp:
    @pytest.mark.parametrize("argv", [[]] + [[c] for c in _subcommands()])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestMain:
    """Smoke-run each command at minimal scale and check the output."""

    def test_table1(self, capsys):
        assert main(["table1", "--events", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "uniform" in out and "gaussian" in out

    def test_fig10(self, capsys):
        assert main(["fig10", "--cells", "60,120", "--events", "10"]) == 0
        out = capsys.readouterr().out
        assert "kmeans" in out
        assert "improve%" in out

    def test_fig8(self, capsys):
        assert (
            main(
                [
                    "fig8",
                    "--keeps",
                    "50",
                    "--iters",
                    "1",
                    "--groups",
                    "5",
                    "--events",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep=" in out

    def test_profile_and_trace(self, capsys, tmp_path):
        """--profile prints a phase table; --trace writes parseable JSONL
        whose span durations are consistent with the wall clock."""
        from repro.obs import get_tracer, read_jsonl

        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "fig7",
                    "--events",
                    "10",
                    "--groups",
                    "5",
                    "--algorithms",
                    "kmeans",
                    "--no-noloss",
                    "--profile",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        # the table covers the pipeline's main phases
        for phase in (
            "grid.build_cell_set",
            "clustering.fit",
            "matching.match_batch",
            "delivery.plan_costs",
        ):
            assert phase in out
        # tracing was switched back off afterwards
        assert not get_tracer().enabled

        records = read_jsonl(trace_path)
        assert records[0]["kind"] == "manifest"
        assert records[0]["config"]["command"] == "fig7"
        spans = [r for r in records if r["kind"] == "span"]
        assert spans, "trace must contain spans"
        root = next(s for s in spans if s["parent_id"] is None)
        assert root["name"] == "cli.fig7"
        # children of any span never exceed their parent's duration
        children_ns = {}
        for s in spans:
            if s["parent_id"] is not None:
                children_ns[s["parent_id"]] = (
                    children_ns.get(s["parent_id"], 0) + s["duration_ns"]
                )
        by_id = {s["span_id"]: s for s in spans}
        for parent_id, total in children_ns.items():
            assert total <= by_id[parent_id]["duration_ns"] * 1.01
        # metric samples ride along in the same file
        assert any(r["kind"] == "metric" for r in records)


class TestSweepCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1
        assert args.subs == 1000
        assert args.algorithms == ("kmeans", "forgy", "mst", "pairs")
        assert args.schemes == ("dense",)
        assert args.noloss is False
        assert args.max_cells is None

    def test_workers_flag_on_parallel_commands(self):
        for argv in (
            ["sweep", "--workers", "4"],
            ["fig7", "--workers", "4"],
            ["chaos", "--workers", "4"],
        ):
            assert build_parser().parse_args(argv).workers == 4

    def test_smoke_serial(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        assert (
            main(
                [
                    "sweep", "--subs", "120", "--events", "15",
                    "--groups", "4", "--algorithms", "kmeans",
                    "--max-cells", "60", "--csv", str(csv_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "kmeans" in out
        assert "1 worker(s)" in out
        assert csv_path.exists()

    def test_smoke_parallel_matches_serial(self, capsys, tmp_path):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        argv = [
            "sweep", "--subs", "120", "--events", "15",
            "--groups", "4,8", "--algorithms", "kmeans,pairs",
            "--max-cells", "60",
        ]
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        bench_path = tmp_path / "bench.json"
        assert main(argv + ["--csv", str(serial_csv)]) == 0
        assert (
            main(
                argv
                + [
                    "--workers", "2",
                    "--csv", str(parallel_csv),
                    "--bench", str(bench_path),
                ]
            )
            == 0
        )
        capsys.readouterr()

        import csv as csv_module

        serial_rows = list(csv_module.DictReader(serial_csv.open()))
        parallel_rows = list(csv_module.DictReader(parallel_csv.open()))
        assert len(serial_rows) == len(parallel_rows) == 4
        for a, b in zip(serial_rows, parallel_rows):
            for key in a:
                if key == "fit_seconds":
                    continue
                assert a[key] == b[key], key

        import json

        record = json.loads(bench_path.read_text())
        assert record["workers"] == 2
        assert record["n_cells"] == 4
        assert len(record["cell_seconds"]) == 4
        assert record["wall_seconds"] > 0


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.events == 20000
        assert args.seed == 7
        assert args.nodes == 100
        assert args.subs == 300
        assert args.policy == "block"
        assert args.queue_capacity == 256
        assert args.drift_threshold == pytest.approx(1.25)
        assert args.bench is None

    def test_bench_flag_const(self):
        args = build_parser().parse_args(["serve", "--bench"])
        assert args.bench == "BENCH_online.json"
        args = build_parser().parse_args(["serve", "--bench", "out.json"])
        assert args.bench == "out.json"

    def test_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "drop-newest"])

    def test_smoke(self, capsys, tmp_path):
        import json

        bench_path = tmp_path / "bench.json"
        argv = [
            "serve", "--events", "600", "--subs", "120",
            "--groups", "16", "--max-cells", "300",
            "--churn", "0.15", "--bench", str(bench_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for line in ("scenario", "latency p50", "waste ratio", "fits"):
            assert line in out
        record = json.loads(bench_path.read_text())
        assert record["n_events"] == 600
        assert "p99" in record["latency_virtual_seconds"]

    def test_drift_gate_failure_keeps_the_bench_record(self, tmp_path):
        """A run that fails the warm/cold gate still writes its record,
        so the numbers behind the failure survive."""
        import json

        bench_path = tmp_path / "bench.json"
        argv = [
            "serve", "--events", "300", "--subs", "60", "--groups", "6",
            "--max-cells", "200", "--churn", "0.5",
            "--bench", str(bench_path),
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code not in (0, None)
        assert "past the batch refit" in str(excinfo.value.code)
        record = json.loads(bench_path.read_text())
        assert record["waste_ratio"] > 1.1

    def test_no_workers_flag(self):
        # one broker is one shard: worker processes are a fleet option
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "2"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--nodes", "30"], "30 nodes"),
            (["serve", "--subs", "0"], "n_subscriptions"),
            (["serve", "--groups", "0"], "n_groups"),
            (["serve", "--max-cells", "0"], "max_cells"),
            (["serve", "--queue-capacity", "0"], "queue_capacity"),
            (["fleet", "--nodes", "30"], "30 nodes"),
            (["fleet", "--rebalance-threshold", "0.5"], "rebalance"),
            (["fleet", "--shards", "8", "--groups", "4"], "budget"),
            (["serve", "--queue-rate", "-1"], "positive finite rate"),
            (["serve", "--drift-threshold", "-1"], "drift_threshold"),
        ],
    )
    def test_bad_config_is_a_usage_error(self, argv, message, capsys):
        """Invalid runtime configs fail at the boundary: exit 2 with the
        config's message, no traceback, before any scenario is built."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--events", "10"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_smoke_is_deterministic(self, capsys):
        argv = ["serve", "--events", "600", "--subs", "120",
                "--groups", "16", "--max-cells", "300",
                "--churn", "0.15"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chaos", "--link-faults", "-2", "--events", "5"], "non-negative"),
        (["fig7", "--events", "0"], "--events"),
        (["serve", "--slo", "{bad", "--events", "10"], "--slo"),
        (["sweep", "--slo", "{bad"], "--slo"),
        (["chaos", "--slo", "{bad"], "--slo"),
        (["sweep", "--max-cells", "0"], "--max-cells"),
        (["fig10", "--cells", "0"], "--cells"),
        (["sweep", "--groups", "0"], "--groups"),
        (["fig7", "--groups", "10,0"], "--groups"),
        (["chaos", "--groups", "0"], "--groups"),
        (["sweep", "--subs", "0"], "argument --subs: must be at least 1"),
        (["sweep", "--algorithms", "kmeans,bogus"],
         "argument --algorithms: unknown name(s) 'bogus'; expected a "
         "comma-separated list of kmeans, forgy, mst, pairs, approx-pairs"),
        (["fig7", "--algorithms", "bogus"],
         "argument --algorithms: unknown name(s) 'bogus'"),
        (["sweep", "--algorithms", ","],
         "argument --algorithms: no names given"),
        (["sweep", "--schemes", "dense,bogus"],
         "argument --schemes: unknown name(s) 'bogus'; expected a "
         "comma-separated list of dense, alm, sparse, overlay"),
        (["fig8", "--iters", "0,-1"],
         "argument --iters: every entry must be non-negative, got -1"),
    ],
)
def test_malformed_input_exits_2_without_traceback(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--events", "200", "--subs", "5", "--groups", "1",
         "--max-cells", "300"],
        ["fleet", "--events", "200", "--subs", "6", "--groups", "4",
         "--shards", "4", "--max-cells", "300", "--sharding", "region"],
    ],
    ids=["serve", "fleet"],
)
def test_end_state_emptied_by_churn_finalizes_at_zero(argv, capsys):
    """Churn that removes every subscription leaves no clustering; the
    warm-vs-cold check then reads 0.0 for both fits."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "warm waste        0.000000000" in out
    assert "cold waste        0.000000000" in out


def test_sparse_chaos_with_unreachable_core_degrades(capsys):
    """A sparse group whose shared core is failed or cut off from the
    publisher falls back to per-member unicast instead of raising."""
    argv = ["chaos", "--subs", "100", "--events", "300", "--groups", "6",
            "--multicast-backend", "sparse", "--no-baseline"]
    assert main(argv) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        name, _, value = line.strip().rpartition(" ")
        rows[name.strip()] = value
    assert int(rows["degraded"]) > 0
    assert int(rows["silently lost"]) == 0
    assert (
        int(rows["delivered"]) + int(rows["degraded"]) + int(rows["lost"])
        == int(rows["publications"])
    )
