"""Tests for the observability layer: metrics, tracing, manifests,
JSONL export."""

import json
import threading

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    MetricsRegistry,
    RunManifest,
    Tracer,
    aggregate_spans,
    export_records,
    get_registry,
    get_tracer,
    read_jsonl,
    write_jsonl,
)
from repro.obs.trace import _NOOP


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("events_total", "described once")
        second = registry.counter("events_total")
        assert first is second
        assert first.description == "described once"

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_counter_label_aggregation(self):
        registry = MetricsRegistry()
        counter = registry.counter("matched_total")
        counter.inc(3, matcher="grid")
        counter.inc(2, matcher="grid")
        counter.inc(7, matcher="no-loss")
        assert counter.labels(matcher="grid").value == 5
        assert counter.labels(matcher="no-loss").value == 7
        assert counter.value == 12  # sum over label combinations

    def test_label_order_is_canonical(self):
        counter = Counter("c")
        counter.inc(1, a="x", b="y")
        counter.inc(1, b="y", a="x")
        assert counter.labels(a="x", b="y").value == 2

    def test_counters_only_go_up(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("population")
        gauge.set(42, kind="cells")
        gauge.set(17, kind="cells")
        assert gauge.labels(kind="cells").value == 17

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds")
        for value in (0.0005, 0.02, 0.02, 120.0):
            hist.observe(value)
        sample = hist.labels().sample()
        assert sample["count"] == 4
        assert sample["min"] == pytest.approx(0.0005)
        assert sample["max"] == pytest.approx(120.0)
        assert sample["buckets"]["le_inf"] == 1  # 120s beats every bound
        assert sum(sample["buckets"].values()) == 4
        assert len(sample["buckets"]) == len(DEFAULT_BUCKETS) + 1

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(5, side="left")
        registry.counter("a_total").inc(1, side="right")
        registry.gauge("b").set(3)
        records = registry.snapshot()
        names = sorted((r["name"], r["type"]) for r in records)
        assert names == [("a_total", "counter")] * 2 + [("b", "gauge")]
        registry.reset()
        assert all(r["value"] == 0 for r in registry.snapshot())
        # registrations survive the reset
        assert registry.get("a_total") is not None

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestTracer:
    def test_disabled_returns_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is _NOOP
        with tracer.span("anything") as span:
            span.set("k", "v")  # must be a silent no-op
        assert tracer.spans() == []

    def test_span_nesting(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current is inner
                assert inner.parent_id == outer.span_id
                assert inner.depth == 1
            assert tracer.current is outer
        assert tracer.current is None
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert all(s.duration_ns is not None for s in spans)
        # the child is contained in the parent
        assert spans[0].duration_ns <= spans[1].duration_ns

    def test_exception_closes_and_flags_span(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.error == "RuntimeError"
        assert span.duration_ns is not None
        assert tracer.current is None  # stack fully unwound

    def test_exception_unwinds_abandoned_children(self):
        tracer = Tracer(enabled=True)
        outer_cm = tracer.span("outer")
        inner_cm = tracer.span("inner")
        outer = outer_cm.__enter__()
        inner_cm.__enter__()  # abandoned: never exited
        outer_cm.__exit__(None, None, None)
        assert tracer.current is None
        assert outer.name == "outer"

    def test_thread_safety_under_concurrent_spans(self):
        tracer = Tracer(enabled=True)
        n_threads, n_spans = 8, 50
        errors = []

        def worker(tid):
            try:
                for i in range(n_spans):
                    with tracer.span("work", tid=tid) as outer:
                        with tracer.span("step") as inner:
                            assert inner.parent_id == outer.span_id
                            assert inner.thread == outer.thread
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = tracer.spans()
        assert len(spans) == n_threads * n_spans * 2
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)  # globally unique ids
        # per-thread nesting stayed intact: every 'step' span's parent is
        # a 'work' span on the same thread
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.name == "step":
                parent = by_id[span.parent_id]
                assert parent.name == "work"
                assert parent.thread == span.thread

    def test_clear_drops_spans_keeps_counting(self):
        tracer = Tracer(enabled=True)
        with tracer.span("one"):
            pass
        tracer.clear()
        with tracer.span("two"):
            pass
        (span,) = tracer.spans()
        assert span.name == "two"
        assert span.span_id > 1

    def test_aggregate_spans_self_time(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        rows = {r["name"]: r for r in aggregate_spans(tracer.spans())}
        assert rows["inner"]["calls"] == 2
        assert rows["outer"]["calls"] == 1
        # self time excludes the direct children
        assert (
            rows["outer"]["self_s"]
            <= rows["outer"]["total_s"] - rows["inner"]["total_s"] + 1e-9
        )
        assert rows["inner"]["mean_s"] == pytest.approx(
            rows["inner"]["total_s"] / 2
        )


class TestManifestAndExport:
    def test_manifest_capture_duck_types_scenario(self):
        class FakeScenario:
            name = "prelim"
            seed = 3

        manifest = RunManifest.capture(
            scenario=FakeScenario(), argv=["prog", "x"], events=20
        )
        assert manifest.scenario["name"] == "prelim"
        assert manifest.scenario["seed"] == 3
        assert manifest.argv == ["prog", "x"]
        assert manifest.config == {"events": 20}
        assert "python" in manifest.versions
        manifest.add_phase("fit", 0.5)
        manifest.add_phase("match", 0.25, calls=2)
        assert sum(p["seconds"] for p in manifest.phases) == pytest.approx(0.75)

    def test_export_records_manifest_first(self):
        tracer = Tracer(enabled=True)
        with tracer.span("phase"):
            pass
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        manifest = RunManifest.capture(argv=["prog"])
        records = export_records(
            tracer=tracer, registry=registry, manifest=manifest
        )
        assert [r["kind"] for r in records] == ["manifest", "span", "metric"]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", n=np.int64(7)):
            with tracer.span("inner"):
                pass
        registry = MetricsRegistry()
        registry.counter("events_total").inc(np.int64(3), matcher="grid")
        registry.histogram("seconds").observe(0.125)
        manifest = RunManifest.capture(argv=["prog", "fig7"])
        path = tmp_path / "trace.jsonl"

        n_records = write_jsonl(
            path, tracer=tracer, registry=registry, manifest=manifest
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == n_records == 5
        for line in lines:
            json.loads(line)  # every line is standalone JSON

        records = read_jsonl(path)
        assert records[0]["kind"] == "manifest"
        assert records[0]["argv"] == ["prog", "fig7"]
        spans = [r for r in records if r["kind"] == "span"]
        assert {s["name"] for s in spans} == {"outer", "inner"}
        outer = next(s for s in spans if s["name"] == "outer")
        inner = next(s for s in spans if s["name"] == "inner")
        assert inner["parent_id"] == outer["span_id"]
        assert outer["attrs"]["n"] == 7  # numpy scalar coerced
        metrics = [r for r in records if r["kind"] == "metric"]
        counter = next(m for m in metrics if m["name"] == "events_total")
        assert counter["labels"] == {"matcher": "grid"}
        assert counter["value"] == 3


class TestWorkerMerge:
    """merge_records / Tracer.ingest: how worker snapshots come home."""

    def test_counters_add_per_label(self):
        source = MetricsRegistry()
        source.counter("events_total").inc(3, matcher="grid")
        source.counter("events_total").inc(2, matcher="no-loss")
        target = MetricsRegistry()
        target.counter("events_total").inc(10, matcher="grid")
        assert target.merge_records(source.snapshot()) == 2
        counter = target.get("events_total")
        assert counter.labels(matcher="grid").value == 13
        assert counter.labels(matcher="no-loss").value == 2

    def test_merge_creates_missing_instruments(self):
        source = MetricsRegistry()
        source.counter("only_in_worker_total").inc(4)
        source.gauge("worker_population").set(9, kind="cells")
        target = MetricsRegistry()
        target.merge_records(source.snapshot())
        assert target.get("only_in_worker_total").value == 4
        assert target.get("worker_population").labels(kind="cells").value == 9

    def test_gauge_merge_is_last_write_wins(self):
        target = MetricsRegistry()
        target.gauge("level").set(5)
        source = MetricsRegistry()
        source.gauge("level").set(2)
        target.merge_records(source.snapshot())
        assert target.get("level").labels().value == 2

    def test_histogram_merge_preserves_distribution(self):
        source = MetricsRegistry()
        for value in (0.0005, 0.02, 120.0):
            source.histogram("latency_seconds").labels().observe(value)
        target = MetricsRegistry()
        target.histogram("latency_seconds").labels().observe(0.02)
        target.merge_records(source.snapshot())
        sample = target.get("latency_seconds").labels().sample()
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(0.0005 + 0.02 + 0.02 + 120.0)
        assert sample["min"] == pytest.approx(0.0005)
        assert sample["max"] == pytest.approx(120.0)
        assert sample["buckets"]["le_inf"] == 1
        assert sum(sample["buckets"].values()) == 4

    def test_histogram_first_contact_recovers_bounds(self):
        source = MetricsRegistry()
        source.histogram("sizes", buckets=(1.0, 10.0)).labels().observe(3.0)
        target = MetricsRegistry()
        target.merge_records(source.snapshot())
        sample = target.get("sizes").labels().sample()
        assert set(sample["buckets"]) == {"le_1", "le_10", "le_inf"}
        assert sample["buckets"]["le_10"] == 1

    def test_merge_skips_malformed_records(self):
        target = MetricsRegistry()
        merged = target.merge_records(
            [{"type": "counter"}, {"name": "x", "type": "exotic"}]
        )
        assert merged == 0
        assert target.snapshot() == []

    def test_merge_is_deterministic_in_plan_order(self):
        snapshots = []
        for value in (1, 2, 4):
            registry = MetricsRegistry()
            registry.counter("c_total").inc(value)
            snapshots.append(registry.snapshot())
        target = MetricsRegistry()
        for snapshot in snapshots:
            target.merge_records(snapshot)
        assert target.get("c_total").value == 7

    def test_ingest_remaps_span_ids(self):
        worker = Tracer(enabled=True)
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        records = [span.as_dict() for span in worker.spans()]

        parent = Tracer(enabled=True)
        with parent.span("local"):
            pass
        ingested = parent.ingest(records)
        assert len(ingested) == 2
        ids = [span.span_id for span in parent.spans()]
        assert len(ids) == len(set(ids))
        by_name = {span.name: span for span in parent.spans()}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].duration_ns <= by_name["outer"].duration_ns

    def test_ingest_works_while_disabled(self):
        worker = Tracer(enabled=True)
        with worker.span("cell"):
            pass
        parent = Tracer(enabled=False)
        parent.ingest([span.as_dict() for span in worker.spans()])
        assert [span.name for span in parent.spans()] == ["cell"]

    def test_ingested_spans_aggregate_with_local_ones(self):
        worker = Tracer(enabled=True)
        with worker.span("phase"):
            pass
        parent = Tracer(enabled=True)
        with parent.span("phase"):
            pass
        parent.ingest([span.as_dict() for span in worker.spans()])
        rows = aggregate_spans(parent.spans())
        assert rows[0]["name"] == "phase"
        assert rows[0]["calls"] == 2

    def test_ingest_remaps_out_of_order_nested_snapshots(self):
        """Worker snapshots arrive in completion order — children first.

        ``Tracer.ingest`` must reassemble the parent links no matter how
        the batch is ordered (ids are assigned at open time, so sorting
        by id restores open order before remapping).
        """
        worker = Tracer(enabled=True)
        with worker.span("outer"):
            with worker.span("mid"):
                with worker.span("inner"):
                    pass
        # completion order is inner, mid, outer: reverse of open order
        records = [span.as_dict() for span in worker.spans()]
        assert [r["name"] for r in records] == ["inner", "mid", "outer"]

        parent = Tracer(enabled=True)
        with parent.span("local"):
            pass
        parent.ingest(records)
        by_name = {span.name: span for span in parent.spans()}
        assert by_name["outer"].parent_id is None
        assert by_name["mid"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["mid"].span_id
        ids = [span.span_id for span in parent.spans()]
        assert len(ids) == len(set(ids))

    def test_ingest_two_worker_batches_stay_collision_free(self):
        """Two workers number their spans identically; ingesting both
        batches in plan order must keep every id unique and each batch's
        internal nesting intact."""

        def worker_snapshot():
            tracer = Tracer(enabled=True)
            with tracer.span("cell"):
                with tracer.span("fit"):
                    pass
            return [span.as_dict() for span in tracer.spans()]

        first, second = worker_snapshot(), worker_snapshot()
        assert {r["span_id"] for r in first} == {r["span_id"] for r in second}

        parent = Tracer(enabled=True)
        parent.ingest(first)
        parent.ingest(second)
        spans = parent.spans()
        assert len(spans) == 4
        assert len({span.span_id for span in spans}) == 4
        for batch in (spans[:2], spans[2:]):
            by_name = {span.name: span for span in batch}
            assert by_name["fit"].parent_id == by_name["cell"].span_id


class TestJsonlHistogramChildren:
    """JSONL round-trip of labeled histogram children (satellite of the
    flight/SLO observability issue)."""

    def test_round_trip_recovers_label_children(self, tmp_path):
        source = MetricsRegistry()
        hist = source.histogram("stage_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5):
            hist.observe(value, stream="pub")
        hist.observe(0.02, stream="churn")
        path = tmp_path / "metrics.jsonl"
        write_jsonl(path, registry=source)

        records = read_jsonl(path)
        metric_records = [r for r in records if r["kind"] == "metric"]
        # one record per label child, labels intact
        streams = {tuple(r["labels"].items()) for r in metric_records}
        assert streams == {(("stream", "pub"),), (("stream", "churn"),)}

        target = MetricsRegistry()
        merged = target.merge_records(
            {k: v for k, v in r.items() if k != "kind"}
            for r in metric_records
        )
        assert merged == 2
        clone = target.histogram("stage_seconds")
        pub = clone.labels(stream="pub").sample()
        assert pub["count"] == 3
        assert pub["buckets"]["le_0.01"] == 1
        assert pub["buckets"]["le_0.1"] == 1
        assert pub["buckets"]["le_1"] == 1
        churn = clone.labels(stream="churn").sample()
        assert churn["count"] == 1

    def test_round_trip_preserves_quantile_keys(self, tmp_path):
        source = MetricsRegistry()
        hist = source.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.06, 0.2):
            hist.observe(value)
        path = tmp_path / "metrics.jsonl"
        write_jsonl(path, registry=source)
        record = next(
            r for r in read_jsonl(path) if r["kind"] == "metric"
        )
        # exact-over-bounds: p50's rank lands in the le_0.1 bucket; p99
        # lands in le_1.0 whose bound clamps to the recorded max
        assert record["p50"] == pytest.approx(0.1)
        assert record["p99"] == pytest.approx(0.2)
