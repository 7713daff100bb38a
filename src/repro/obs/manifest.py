"""Run manifests: what exactly produced a set of numbers.

A :class:`RunManifest` freezes the provenance of one experiment run —
scenario identity and seeds, library versions, command line, and the
wall clock of each pipeline phase — so that a JSONL trace or a
``BENCH_*.json`` record can be compared across PRs knowing the two runs
measured the same thing.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["RunManifest", "bench_stamp"]


def _versions() -> Dict[str, str]:
    versions = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        # parallel sweeps scale with the core count; record it so two
        # BENCH_sweep records are only compared on comparable hardware
        "cpu_count": str(os.cpu_count() or 1),
    }
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        pass
    try:
        from .. import __version__

        versions["repro"] = __version__
    except Exception:  # pragma: no cover - import cycle guard
        pass
    try:
        # which membership-kernel backend produced the numbers — bench
        # artifacts are incomparable across backends of different speed
        from ..kernels import backend_name

        versions["kernel_backend"] = backend_name()
    except Exception:  # pragma: no cover - import cycle guard
        pass
    return versions


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def bench_stamp() -> Dict[str, str]:
    """Provenance stamp for ``BENCH_*.json`` records.

    Every benchmark emitter merges this in so the bench trajectory is
    comparable across PRs: which commit, when, and which kernel backend
    produced the numbers.
    """
    try:
        from ..kernels import backend_name

        backend = backend_name()
    except Exception:  # pragma: no cover - import cycle guard
        backend = "unknown"
    return {
        "git_sha": _git_sha(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "kernel_backend": backend,
    }


@dataclass
class RunManifest:
    """Provenance record of one run."""

    created: str
    argv: List[str]
    versions: Dict[str, str]
    scenario: Dict[str, object] = field(default_factory=dict)
    config: Dict[str, object] = field(default_factory=dict)
    phases: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def capture(
        cls,
        scenario: Optional[object] = None,
        argv: Optional[Sequence[str]] = None,
        **config: object,
    ) -> "RunManifest":
        """Snapshot the environment (and optionally a scenario).

        ``scenario`` is duck-typed: anything carrying ``name`` / ``seed``
        (and optionally ``subscriptions`` / ``topology``) contributes its
        identity, so :class:`repro.sim.Scenario` works without an import
        dependency from this leaf module.
        """
        scenario_info: Dict[str, object] = {}
        if scenario is not None:
            for attr in ("name", "seed"):
                value = getattr(scenario, attr, None)
                if value is not None:
                    scenario_info[attr] = value
            subs = getattr(scenario, "subscriptions", None)
            if subs is not None and hasattr(subs, "n_subscribers"):
                scenario_info["n_subscribers"] = int(subs.n_subscribers)
            topology = getattr(scenario, "topology", None)
            graph = getattr(topology, "graph", None)
            if graph is not None and hasattr(graph, "n_nodes"):
                scenario_info["n_nodes"] = int(graph.n_nodes)
        return cls(
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            argv=list(argv) if argv is not None else list(sys.argv),
            versions=_versions(),
            scenario=scenario_info,
            config=dict(config),
        )

    def add_phase(self, name: str, seconds: float, **extra: object) -> None:
        """Record one phase's wall clock."""
        self.phases.append(
            {"name": name, "seconds": float(seconds), **extra}
        )

    def as_dict(self) -> Dict:
        return {
            "created": self.created,
            "argv": self.argv,
            "versions": self.versions,
            "scenario": dict(self.scenario),
            "config": dict(self.config),
            "phases": [dict(p) for p in self.phases],
        }
