"""Smoke tests: every example script runs to completion.

Each example is executed in-process via ``runpy`` with a patched
``__name__`` so its ``main()`` fires.  The slower scenarios monkey-patch
nothing — the examples were written to finish in seconds — but the two
heaviest ones are exercised through their fast paths.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "network:" in out
        assert "groups:" in out

    def test_dynamic_subscriptions(self, capsys):
        run_example("dynamic_subscriptions.py")
        out = capsys.readouterr().out
        assert "warm waste" in out
        assert "cold waste" in out

    def test_regional_multicast(self, capsys):
        run_example("regional_multicast.py")
        out = capsys.readouterr().out
        assert "regionalism" in out
        assert "broadcast/ideal ratio" in out

    def test_stock_market_fast(self, capsys):
        run_example("stock_market.py", argv=["--fast"])
        out = capsys.readouterr().out
        assert "best configuration" in out

    def test_last_mile(self, capsys):
        run_example("last_mile.py")
        out = capsys.readouterr().out
        assert "last-mile" in out or "last mile" in out

    def test_broker_simulation(self, capsys):
        run_example("broker_simulation.py")
        out = capsys.readouterr().out
        assert "realised improvement" in out

    def test_profiled_sweep(self, capsys, tmp_path):
        trace = tmp_path / "sweep.jsonl"
        run_example("profiled_sweep.py", argv=["--trace", str(trace)])
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        assert "clustering.fit" in out
        assert "delivery.plan_costs" in out
        assert "pipeline counters:" in out
        assert "matching_events_total" in out
        assert trace.exists()
