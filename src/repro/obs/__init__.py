"""Unified observability layer: metrics, span tracing, run manifests.

The pipeline stages (clustering fit, matching, dispatch pricing, broker
delivery and rebuilds, experiment sweeps) all report into one
process-local :class:`MetricsRegistry` and one :class:`Tracer`; a
:class:`RunManifest` pins down what produced the numbers, and the JSONL
exporters turn all three into one machine-readable trace per run.

Module-level defaults keep instrumentation one import away::

    from repro.obs import get_registry, get_tracer

    with get_tracer().span("my.phase") as span:
        ...
    get_registry().counter("my_events_total").inc()

The default tracer starts *disabled* (spans cost one attribute check);
``--profile`` / ``--trace`` on the sim CLI, or :func:`enable_tracing`,
switch it on.  Metrics are always collected — they are cheap and several
components (the dispatcher's cache statistics, the broker's delivery
stats) are backed by them.
"""

from .export import export_records, read_jsonl, write_jsonl
from .flight import FlightRecorder, StageRecord, stage_latencies
from .manifest import RunManifest, bench_stamp
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .openmetrics import render_openmetrics
from .slo import Objective, SloBreach, SloEngine, load_slo_spec
from .trace import Span, Tracer, aggregate_spans

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "aggregate_spans",
    "FlightRecorder",
    "StageRecord",
    "stage_latencies",
    "Objective",
    "SloBreach",
    "SloEngine",
    "load_slo_spec",
    "render_openmetrics",
    "RunManifest",
    "bench_stamp",
    "export_records",
    "write_jsonl",
    "read_jsonl",
    "REGISTRY",
    "TRACER",
    "FLIGHT",
    "get_registry",
    "get_tracer",
    "get_flight_recorder",
    "set_registry",
    "set_tracer",
    "set_flight_recorder",
    "reset_worker_state",
    "enable_tracing",
    "disable_tracing",
]

#: the process-wide default registry every pipeline stage records into
REGISTRY = MetricsRegistry()

#: the process-wide default tracer (disabled until a profiling entry
#: point — CLI flag, benchmark, example — enables it)
TRACER = Tracer(enabled=False)

#: the process-wide default flight recorder (disabled until a serve/
#: chaos entry point enables per-event recording)
FLIGHT = FlightRecorder(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return REGISTRY


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return TRACER


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide default."""
    global REGISTRY
    REGISTRY = registry
    return registry


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide default."""
    global TRACER
    TRACER = tracer
    return tracer


def get_flight_recorder() -> FlightRecorder:
    """The process-wide default flight recorder."""
    return FLIGHT


def set_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Install ``recorder`` as the process-wide default."""
    global FLIGHT
    FLIGHT = recorder
    return recorder


def reset_worker_state(tracing: bool = False) -> None:
    """Install a fresh registry and tracer (worker-process start hook).

    A forked worker inherits copies of the parent's instruments and
    recorded spans; if it kept recording into those, its end-of-task
    snapshot would include everything the parent counted *before* the
    fork and the parent would double-count it on merge.
    """
    set_registry(MetricsRegistry())
    set_tracer(Tracer(enabled=tracing))


def enable_tracing(clear: bool = True) -> Tracer:
    """Switch the default tracer on (optionally dropping old spans)."""
    if clear:
        TRACER.clear()
    TRACER.enable()
    return TRACER


def disable_tracing() -> Tracer:
    """Switch the default tracer off (recorded spans are kept)."""
    TRACER.disable()
    return TRACER
