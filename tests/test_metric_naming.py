"""Metric-naming lint: every instrument in ``src/`` follows the
OpenMetrics conventions the exporter relies on.

Two layers:

* a static scan of the source tree for ``registry.counter("...")`` /
  ``.gauge`` / ``.histogram`` literals — counters must end ``_total``,
  gauges and histograms must not, and every name must be snake_case;
* a runtime pass over a real soak's registry snapshot — label keys must
  come from the documented allowlist so dashboards never chase ad-hoc
  label spellings.
"""

import re
from pathlib import Path

from repro.obs import get_registry
from repro.online import SoakConfig, run_soak

SRC = Path(__file__).resolve().parent.parent / "src"

#: instrument creation sites: `.counter(` / `.gauge(` / `.histogram(`
#: followed (possibly on the next line) by the name literal
_INSTRUMENT = re.compile(
    r"\.(counter|gauge|histogram)\(\s*\n?\s*\"([^\"]+)\"", re.MULTILINE
)

_SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")

#: every label key any instrument in the tree is allowed to use
LABEL_ALLOWLIST = frozenset({
    "algorithm", "backend", "kind", "matcher", "mode", "outcome", "path",
    "phase", "queue", "reason", "scheme", "shard", "stream",
})


def _instrument_literals():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for match in _INSTRUMENT.finditer(text):
            yield path.relative_to(SRC), match.group(1), match.group(2)


class TestStaticNaming:
    def test_scan_finds_the_instrument_inventory(self):
        """The regex must actually see the tree's instruments — an empty
        scan would vacuously pass everything below."""
        names = {name for _, _, name in _instrument_literals()}
        assert len(names) >= 20, sorted(names)
        assert "events_published_total" in names or any(
            name.endswith("_total") for name in names
        )

    def test_names_are_snake_case(self):
        bad = [
            (str(path), name)
            for path, _, name in _instrument_literals()
            if not _SNAKE_CASE.match(name)
        ]
        assert not bad, f"non-snake_case metric names: {bad}"

    def test_counters_end_with_total(self):
        bad = [
            (str(path), name)
            for path, kind, name in _instrument_literals()
            if kind == "counter" and not name.endswith("_total")
        ]
        assert not bad, f"counters without _total suffix: {bad}"

    def test_gauges_and_histograms_do_not_claim_total(self):
        bad = [
            (str(path), kind, name)
            for path, kind, name in _instrument_literals()
            if kind != "counter" and name.endswith("_total")
        ]
        assert not bad, f"non-counters with _total suffix: {bad}"

    def test_no_reserved_openmetrics_suffixes(self):
        """``_bucket``/``_count``/``_sum``/``_quantile`` are synthesized
        by the exporter — declaring them as instrument names would
        collide in the exposition."""
        reserved = ("_bucket", "_count", "_sum", "_quantile")
        bad = [
            (str(path), name)
            for path, _, name in _instrument_literals()
            if name.endswith(reserved)
        ]
        assert not bad, f"reserved exposition suffixes: {bad}"


class TestRuntimeLabels:
    def test_soak_snapshot_labels_stay_on_the_allowlist(self):
        config = SoakConfig(
            n_events=120, seed=3, n_nodes=100, n_subscriptions=60,
            n_groups=8, max_cells=150, churn_fraction=0.1, policy="block",
            aggregate=True,  # exercises the aggregation gauges (path=...)
        )
        spec = [
            {"name": "latency-p95", "signal": "latency", "stat": "p95",
             "threshold": 10.0, "window": 5.0},
        ]
        run_soak(config, flight=True, slo_spec=spec)
        records = get_registry().snapshot()
        assert records, "soak produced no metric records"
        used = set()
        for record in records:
            used.update(record.get("labels", {}))
        assert used, "no labelled instruments in the soak snapshot"
        stray = used - LABEL_ALLOWLIST
        assert not stray, (
            f"label keys outside the allowlist: {sorted(stray)} — either "
            f"rename the label or extend LABEL_ALLOWLIST and the "
            f"docs/observability.md table together"
        )
