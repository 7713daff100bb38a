"""Tests for per-event flight recording, the SLO engine, and the
OpenMetrics exposition — the observability additions riding on the
online runtime."""

import json

import pytest

from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    SloEngine,
    StageRecord,
    load_slo_spec,
    render_openmetrics,
    stage_latencies,
    write_jsonl,
    read_jsonl,
)
from repro.obs.flight import STAGE_ORDER
from repro.obs.slo import Objective, SloBreach


class TestFlightRecorder:
    def test_disabled_recorder_records_nothing(self):
        recorder = FlightRecorder()
        recorder.record(1, "enqueue", 0.5, stream="pub")
        with recorder.event(1, 0.6):
            recorder.stage("match", interested=3)
        assert len(recorder) == 0
        assert recorder.as_dicts() == []
        assert not recorder.active

    def test_record_and_scoped_stages_share_the_event(self):
        recorder = FlightRecorder(enabled=True)
        recorder.record(4, "enqueue", 0.1, stream="pub", depth=2)
        with recorder.event(4, 0.25):
            assert recorder.active
            recorder.stage("match", interested=5)
            recorder.stage("dispatch", mode="plan", cost=1.5)
        assert not recorder.active
        chain = recorder.chain(4)
        assert [r.stage for r in chain] == ["enqueue", "match", "dispatch"]
        # scoped stages are stamped at the scope's virtual time
        assert [r.t for r in chain] == [0.1, 0.25, 0.25]
        assert chain[1].attrs == {"interested": 5}

    def test_stage_outside_scope_is_dropped(self):
        recorder = FlightRecorder(enabled=True)
        recorder.stage("match", interested=1)
        assert len(recorder) == 0

    def test_raw_append_protocol_matches_record(self):
        """Hot paths append (event, stage, t, attrs) tuples, or their flat
        (event, stage, t, key, value, ...) form, directly to ``buf``; the
        output must be indistinguishable from record()."""
        for entry in (
            (7, "enqueue", 0.5, {"stream": "pub", "depth": 3}),
            (7, "enqueue", 0.5, "stream", "pub", "depth", 3),
        ):
            via_api = FlightRecorder(enabled=True)
            via_api.record(7, "enqueue", 0.5, stream="pub", depth=3)
            raw = FlightRecorder(enabled=True)
            raw.buf.append(entry)
            assert via_api.as_dicts() == raw.as_dicts()
            assert via_api.chain(7)[0].attrs == raw.chain(7)[0].attrs
            assert via_api.take_chain(7) == raw.take_chain(7)

    def test_insert_splices_chains_at_positions(self):
        recorder = FlightRecorder(enabled=True)
        for eid in (1, 2, 3):
            recorder.record(eid, "enqueue", 0.0)
        # chains land before the entries now at positions 1 and 3
        recorder.insert(
            [1, 3],
            [[(9, "match", 0.1, "interested", 2)], [(8, "outcome", 0.2)]],
        )
        assert [(r.event_id, r.stage) for r in recorder.records()] == [
            (1, "enqueue"), (9, "match"), (2, "enqueue"), (3, "enqueue"),
            (8, "outcome"),
        ]

    def test_clear_keeps_buffer_identity(self):
        recorder = FlightRecorder(enabled=True)
        buf = recorder.buf
        recorder.record(1, "enqueue", 0.0)
        recorder.clear()
        recorder.record(2, "enqueue", 0.0)
        # direct references survive clear(): buf is mutated in place
        assert buf is recorder.buf
        assert [entry[0] for entry in buf] == [2]

    def test_take_chain_removes_only_that_event(self):
        recorder = FlightRecorder(enabled=True)
        recorder.record(1, "enqueue", 0.0)
        recorder.record(2, "enqueue", 0.1)
        recorder.record(1, "outcome", 0.2, outcome="delivered")
        taken = recorder.take_chain(1)
        assert [r["stage"] for r in taken] == ["enqueue", "outcome"]
        assert [r.event_id for r in recorder.records()] == [2]

    def test_stage_latencies_accepts_records_and_dicts(self):
        recorder = FlightRecorder(enabled=True)
        recorder.record(1, "queue_wait", 0.1, seconds=0.1, stream="pub")
        recorder.record(1, "match", 0.2, interested=3)  # no seconds
        recorder.record(1, "outcome", 0.3, seconds=0.3, stream="pub")
        from_records = stage_latencies(recorder.records())
        from_dicts = stage_latencies(recorder.as_dicts())
        assert from_records == from_dicts
        assert from_records == {"queue_wait": [0.1], "outcome": [0.3]}

    def test_every_documented_stage_is_ordered(self):
        assert STAGE_ORDER[0] == "enqueue"
        assert "outcome" in STAGE_ORDER
        assert len(set(STAGE_ORDER)) == len(STAGE_ORDER)

    def test_flight_records_export_to_jsonl(self, tmp_path):
        recorder = FlightRecorder(enabled=True)
        recorder.record(1, "enqueue", 0.5, stream="pub")
        path = tmp_path / "flight.jsonl"
        write_jsonl(path, flight=recorder)
        records = read_jsonl(path)
        assert records == [
            {
                "kind": "flight", "event": 1, "stage": "enqueue",
                "t": 0.5, "attrs": {"stream": "pub"},
            }
        ]


class TestSloEngine:
    def _latency_objective(self, **overrides):
        spec = {
            "name": "lat-p95", "signal": "latency", "stat": "p95",
            "threshold": 0.1, "window": 10.0,
        }
        spec.update(overrides)
        return Objective(**spec)

    def test_rising_edge_emits_once_until_recovery(self):
        engine = SloEngine([self._latency_objective(stat="max")])
        for t in (0.0, 1.0, 2.0):
            engine.observe("latency", t, 0.5)  # over threshold throughout
        assert len(engine.breaches) == 1
        assert engine.breaches[0].time == 0.0

    def test_breach_after_recovery_emits_again(self):
        engine = SloEngine(
            [self._latency_objective(stat="max", window=1.0)]
        )
        engine.observe("latency", 0.0, 0.5)   # breach
        engine.observe("latency", 2.0, 0.01)  # old value expired: recover
        engine.observe("latency", 4.0, 0.5)   # breach again
        assert [b.time for b in engine.breaches] == [0.0, 4.0]

    def test_stream_filter_ignores_other_streams(self):
        engine = SloEngine(
            [self._latency_objective(stat="max", stream="pub")]
        )
        engine.observe("latency", 0.0, 9.0, stream="churn")
        assert engine.breaches == []
        engine.observe("latency", 1.0, 9.0, stream="pub")
        assert len(engine.breaches) == 1

    def test_min_count_gates_evaluation(self):
        engine = SloEngine(
            [self._latency_objective(stat="max", min_count=3)]
        )
        engine.observe("latency", 0.0, 9.0)
        engine.observe("latency", 1.0, 9.0)
        assert engine.breaches == []
        engine.observe("latency", 2.0, 9.0)
        assert len(engine.breaches) == 1

    def test_window_quantile_is_exact(self):
        engine = SloEngine([self._latency_objective(stat="p50")])
        for t, value in enumerate((0.01, 0.02, 0.5)):
            engine.observe("latency", float(t), value)
        # p50 over {0.01, 0.02, 0.5} is 0.02: under the 0.1 threshold
        assert engine.breaches == []
        engine.observe("latency", 3.0, 0.6)
        # now p50 over four values is 0.02 — still under
        assert engine.breaches == []
        engine.observe("latency", 4.0, 0.7)
        # five values: p50 = 0.5 > 0.1
        assert len(engine.breaches) == 1

    def test_mean_uses_running_total_with_expiry(self):
        engine = SloEngine(
            [self._latency_objective(stat="mean", window=2.0)]
        )
        engine.observe("latency", 0.0, 1.0)   # mean 1.0: breach
        engine.observe("latency", 5.0, 0.01)  # expired: mean 0.01
        summary = engine.summary()[0]
        assert summary["last_value"] == pytest.approx(0.01)
        assert summary["breaches"] == 1
        assert summary["breached_now"] is False

    def test_feed_drift_objectives_evaluate_inline(self):
        """A feed_drift breach must reach the sink during the run — not
        on the deferred replay."""
        seen = []
        engine = SloEngine(
            [self._latency_objective(stat="max", feed_drift=True)],
            drift_sink=seen.append,
        )
        engine.observe("latency", 1.0, 9.0)
        # no breach accessor has been touched yet: inline evaluation
        assert len(seen) == 1
        assert isinstance(seen[0], SloBreach)

    def test_deferred_replay_matches_inline_evaluation(self):
        """Alert-only objectives evaluate on a deferred replay of the
        buffered observations; the breach output must be byte-identical
        to inline (feed_drift) evaluation of the same objective."""
        # breach at t=1.0; by t=2.5 the 0.5 entry has expired (recovery);
        # breach again at t=9.0
        observations = [
            (0.0, 0.05), (1.0, 0.5), (2.5, 0.01), (9.0, 0.9), (9.5, 0.02),
        ]
        inline = SloEngine(
            [self._latency_objective(stat="max", window=1.0,
                                     feed_drift=True)],
            drift_sink=lambda breach: None,
        )
        deferred = SloEngine(
            [self._latency_objective(stat="max", window=1.0)]
        )
        for t, value in observations:
            inline.observe("latency", t, value)
            deferred.observe("latency", t, value)
        assert inline.breach_dicts() == deferred.breach_dicts()
        assert len(deferred.breach_dicts()) == 2

    def test_interleaved_reads_see_consistent_state(self):
        engine = SloEngine([self._latency_objective(stat="max")])
        engine.observe("latency", 0.0, 9.0)
        assert len(engine.breaches) == 1
        engine.observe("latency", 1.0, 0.01)
        engine.observe("latency", 5.0, 9.0)
        # second read replays only the unseen suffix
        assert len(engine.breaches) == 1  # max over window still 9.0
        summary = engine.summary()[0]
        assert summary["breaches"] == 1

    def test_breaches_sorted_by_time_then_objective(self):
        engine = SloEngine([
            self._latency_objective(name="b-lat", stat="max"),
            self._latency_objective(name="a-lat", stat="max"),
        ])
        engine.observe("latency", 3.0, 9.0)
        assert [b.objective for b in engine.breaches] == ["a-lat", "b-lat"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SloEngine([
                self._latency_objective(), self._latency_objective(),
            ])

    def test_unknown_signal_and_stat_rejected(self):
        with pytest.raises(ValueError, match="signal"):
            Objective("x", "nope", "p95", 1.0, 1.0)
        with pytest.raises(ValueError, match="stat"):
            Objective("x", "latency", "p42", 1.0, 1.0)
        with pytest.raises(ValueError, match="window"):
            Objective("x", "latency", "p95", 1.0, 0.0)
        with pytest.raises(ValueError, match="min_count"):
            Objective("x", "latency", "p95", 1.0, 1.0, min_count=0)

    def test_load_slo_spec_accepts_all_source_forms(self, tmp_path):
        entries = [
            {"name": "a", "signal": "latency", "stat": "p95",
             "threshold": 0.5, "window": 2.0},
        ]
        from_list = load_slo_spec(entries)
        from_dict = load_slo_spec({"objectives": entries})
        from_text = load_slo_spec(json.dumps({"objectives": entries}))
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(entries))
        from_path = load_slo_spec(str(path))
        for parsed in (from_list, from_dict, from_text, from_path):
            assert [o.name for o in parsed] == ["a"]
            assert parsed[0].threshold == 0.5

    def test_load_slo_spec_rejects_non_list(self):
        with pytest.raises(ValueError, match="list"):
            load_slo_spec(json.dumps({"objectives": {"name": "a"}}))


class TestOpenMetrics:
    def test_counter_family_drops_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter(
            "events_total", "things that happened"
        ).inc(3, kind="pub")
        text = render_openmetrics(registry)
        assert "# TYPE events counter" in text
        assert '# HELP events things that happened' in text
        assert 'events_total{kind="pub"} 3' in text
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.06, 0.5, 2.0):
            hist.observe(value)
        text = render_openmetrics(registry)
        assert 'lat_seconds_bucket{le="0.1"} 2' in text
        assert 'lat_seconds_bucket{le="1"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        assert "lat_seconds_count 4" in text

    def test_histogram_quantile_family(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.06, 0.5):
            hist.observe(value, stream="pub")
        text = render_openmetrics(registry)
        assert "# TYPE lat_seconds_quantile gauge" in text
        assert (
            'lat_seconds_quantile{stream="pub",quantile="0.5"} 0.1' in text
        )
        assert (
            'lat_seconds_quantile{stream="pub",quantile="0.99"} 0.5' in text
        )

    def test_output_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_total").inc(1, kind="x")
            registry.counter("a_total").inc(2)
            registry.gauge("depth").set(5, queue="pub")
            registry.histogram("h_seconds").observe(0.2)
            return render_openmetrics(registry)

        assert build() == build()

    def test_renders_from_snapshot_records(self):
        registry = MetricsRegistry()
        registry.counter("events_total").inc(1)
        from_registry = render_openmetrics(registry)
        from_records = render_openmetrics(registry.snapshot())
        # HELP lines need the registry's descriptions; the sample lines
        # must agree
        assert "events_total 1" in from_records
        assert "events_total 1" in from_registry


class TestHistogramQuantiles:
    def test_quantiles_exact_over_recorded_bounds(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in [0.5] * 50 + [5.0] * 45 + [50.0] * 5:
            hist.observe(value)
        child = hist.labels()
        assert child.quantile(0.50) == pytest.approx(1.0)
        assert child.quantile(0.95) == pytest.approx(10.0)
        # p99 rank lands in the last occupied bucket; its bound clamps
        # to the recorded max
        assert child.quantile(0.99) == pytest.approx(50.0)

    def test_quantile_clamps_to_observed_min(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(10.0,))
        hist.observe(3.0)
        assert hist.labels().quantile(0.5) == pytest.approx(3.0)

    def test_empty_histogram_has_no_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        assert hist.labels().quantile(0.5) is None
        assert hist.quantile(0.5) is None

    def test_sample_carries_quantile_keys(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        sample = hist.labels().sample()
        assert {"p50", "p95", "p99"} <= set(sample)

    def test_merge_ignores_quantile_keys(self):
        """merge_records recovers bounds from le_ keys only, so the
        p50/p95/p99 decorations on snapshots must not confuse it."""
        source = MetricsRegistry()
        source.histogram("h", buckets=(1.0,)).observe(0.5)
        target = MetricsRegistry()
        assert target.merge_records(source.snapshot()) == 1
        merged = target.histogram("h").labels().sample()
        assert merged["count"] == 1
        assert merged["buckets"]["le_1"] == 1
