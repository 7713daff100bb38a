#!/usr/bin/env python3
"""Reachability probe: which functions in ``src/repro`` does the CLI enter?

Runs a fixed list of small CLI invocations in process, covering every
sub-command and the flags that switch code paths (the four multicast
backends, ``--flight/--slo/--metrics-out/--trace/--profile``,
``--csv/--chart``, the shed policies, a forwarding region fleet with
epochs and checkpoints, chaos with ``--compare-healing``, a replayed
``--schedule``, and a sweep and a serve on the numpy kernel backend).
A ``sys.setprofile`` hook records every Python function the runs enter.
Run from the repo root::

    python3 benchmarks/reachability.py [--verbose]

Counting: every non-blank, non-comment line of a function body is
attributed to its innermost enclosing function (docstrings excluded).
A function's lines are unreached when the function was never entered.
A module is *never entered* when it has function lines and none of its
functions was entered.  One small fleet runs with ``--workers 2``, so
the parent side of the process pool (start method, merging worker
metrics and spans) counts as reached; the hook does not follow the
forked workers, which run the same code the ``--workers 1`` runs enter.

An invocation that exits non-zero or raises is recorded and the probe
goes on.  The last line printed is one JSON object: ``total_lines``,
``unreached_lines``, ``unreached_share``, ``never_entered`` (module
paths) and ``failed`` (invocations that did not exit 0).  The exit code
is 1 when any module is never entered or any invocation failed, else 0.
"""

import ast
import contextlib
import functools
import io
import json
import os
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SLO_SPEC = ROOT / "examples" / "slo_ci_strict.json"


def invocations(tmp: str) -> list:
    """The probe's CLI invocations; ``tmp`` receives their output files."""
    out = functools.partial(os.path.join, tmp)
    schedule = out("schedule.json")
    small_serve = ["--events", "300", "--subs", "60", "--groups", "6",
                   "--max-cells", "200", "--churn", "0.15"]
    return [
        ["table1", "--events", "3"],
        ["table2", "--events", "3", "--profile"],
        ["fig7", "--groups", "5,10", "--events", "15",
         "--algorithms", "kmeans,forgy", "--no-noloss",
         "--csv", out("fig7.csv"), "--chart", "--workers", "1"],
        ["fig8", "--keeps", "250", "--iters", "0,1", "--groups", "10",
         "--events", "10"],
        ["fig9", "--seeds", "0", "--groups", "10", "--events", "10"],
        ["fig10", "--cells", "60,120", "--groups", "10", "--events", "10"],
        ["fig11", "--cells", "60", "--groups", "10", "--events", "10"],
        ["sweep", "--subs", "120", "--events", "15", "--groups", "5",
         "--algorithms", "kmeans,mst,pairs", "--schemes", "dense,sparse,alm",
         "--slo", str(SLO_SPEC), "--csv", out("sweep.csv"),
         "--bench", out("sweep.json"), "--workers", "1"],
        ["sweep", "--subs", "120", "--events", "15", "--groups", "5",
         "--algorithms", "approx-pairs", "--max-cells", "200", "--noloss",
         "--multicast-backend", "overlay", "--workers", "1"],
        ["serve", *small_serve, "--flight", "--slo", str(SLO_SPEC),
         "--metrics-out", out("serve.om"), "--trace", out("serve.jsonl"),
         "--bench", out("serve.json")],
        ["serve", *small_serve, "--policy", "shed-oldest",
         "--queue-capacity", "4", "--multicast-backend", "sparse"],
        ["serve", *small_serve, "--policy", "shed-lowest-priority",
         "--queue-capacity", "4", "--queue-rate", "400",
         "--multicast-backend", "alm"],
        ["serve", "--events", "200", "--subs", "5", "--groups", "1",
         "--max-cells", "300"],
        # no churn: one run of publications, split at the batch cap
        ["serve", *small_serve[:-2], "--churn", "0"],
        # forward policy under the flight recorder: publications are
        # published one at a time, with forwards counted per event
        ["fleet", *small_serve, "--shards", "3", "--fleet-policy",
         "forward", "--flight", "--workers", "1"],
        ["fleet", *small_serve, "--shards", "3", "--fleet-policy",
         "forward", "--sharding", "region", "--epochs", "2",
         "--checkpoint-dir", out("ckpt"), "--workers", "1",
         "--bench", out("fleet.json")],
        # the parent side of the process pool
        ["fleet", *small_serve, "--shards", "3", "--workers", "2"],
        ["chaos", "--subs", "100", "--events", "30", "--groups", "6",
         "--compare-healing", "--save-schedule", schedule,
         "--report", out("chaos.jsonl"), "--workers", "1"],
        ["chaos", "--subs", "100", "--events", "30", "--groups", "6",
         "--schedule", schedule, "--flight", "--churn", "2",
         "--multicast-backend", "overlay", "--no-baseline"],
        ["chaos", "--subs", "100", "--events", "300", "--groups", "6",
         "--multicast-backend", "sparse", "--no-baseline"],
        # the python MacQueen and Pairwise Grouping loops and the
        # per-event dense-mode pricing, which a compiled kernel backend
        # replaces; last, because --backend stays selected for the rest
        # of the process
        ["sweep", "--subs", "120", "--events", "15", "--groups", "5",
         "--algorithms", "kmeans,pairs", "--backend", "numpy",
         "--workers", "1"],
        ["serve", *small_serve, "--backend", "numpy"],
    ]


def function_lines(path: Path) -> dict:
    """``(first line, name) -> counted body lines`` for one module.

    The key matches the function's code object: ``co_firstlineno`` is
    the first decorator's line when the function is decorated.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    owner = {}  # line number -> innermost function key

    def visit(node, key=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            key = (first, node.name)
            body = node.body
            if (isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0]
                skip = set(range(doc.lineno, doc.end_lineno + 1))
            else:
                skip = set()
            for line in range(body[0].lineno, node.end_lineno + 1):
                if line not in skip:
                    owner[line] = key
        for child in ast.iter_child_nodes(node):
            visit(child, key)

    visit(ast.parse(source, filename=str(path)))
    counts = {}
    for line, key in owner.items():
        text = lines[line - 1].strip()
        if text and not text.startswith("#"):
            counts[key] = counts.get(key, 0) + 1
    return counts


def run_invocations(argvs: list, verbose: bool) -> tuple:
    """Run each argv through the CLI under the profile hook."""
    from repro.sim.cli import main

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    failed = []
    for argv in argvs:
        label = " ".join(argv)
        start = time.perf_counter()
        sink = io.StringIO()
        sys.setprofile(hook)
        threading.setprofile(hook)
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:  # noqa: BLE001 - record and keep going
            code = 1
            sink.write(traceback.format_exc())
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        seconds = time.perf_counter() - start
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"{seconds:7.2f}s  {status:<16} {label}")
        if code != 0:
            failed.append(label)
            tail = sink.getvalue().strip().splitlines()[-1:]
            for line in (sink.getvalue().splitlines() if verbose else tail):
                print(f"          {line}")
    return entered, failed


def main(argv=None) -> int:
    verbose = "--verbose" in (argv if argv is not None else sys.argv[1:])
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        entered, failed = run_invocations(invocations(tmp), verbose)
    hit = {
        (os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in entered
    }

    total = unreached = 0
    never_entered = []
    per_module = []
    for path in sorted(PACKAGE.rglob("*.py")):
        counts = function_lines(path)
        if not counts:
            continue
        name = str(path.relative_to(SRC))
        missed = {
            key: n for key, n in counts.items()
            if (str(path), *key) not in hit
        }
        module_total = sum(counts.values())
        module_missed = sum(missed.values())
        total += module_total
        unreached += module_missed
        if len(missed) == len(counts):
            never_entered.append(name)
        if module_missed:
            per_module.append((module_missed, module_total, name, missed))

    print()
    print(f"{'unreached':>9} {'lines':>6}  module (unreached functions)")
    for module_missed, module_total, name, missed in sorted(per_module,
                                                             reverse=True):
        names = ", ".join(
            f"{fn}:{line}" for (line, fn) in sorted(missed)
        ) if verbose else f"{len(missed)} functions"
        print(f"{module_missed:>9} {module_total:>6}  {name} ({names})")
    print(json.dumps({
        "total_lines": total,
        "unreached_lines": unreached,
        "unreached_share": round(unreached / total, 4) if total else 0.0,
        "never_entered": never_entered,
        "failed": failed,
    }))
    return 1 if never_entered or failed else 0


if __name__ == "__main__":
    sys.exit(main())
