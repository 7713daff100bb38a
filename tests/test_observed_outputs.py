"""Observed runs print what the per-event publish loop printed.

The service batches runs of publications also while a flight recorder
or an SLO engine observes it, and splices each batched event's stages
back into its chain (see docs/online.md).  These tests pin the observed
CLI runs, the flight records' stage chains, and a run several times
longer than the batch cap to sha256 digests of their output, recorded
with the per-event loop.  They also pin a small sweep's CSV rows,
recorded with the per-cell MacQueen loop, the full stable sort of the
MST edges and the per-candidate No-Loss scoring.  Run this file as a
script to print the current digests.
"""

import contextlib
import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.online import SoakConfig, run_soak
from repro.sim.cli import main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

_RUNTIME = [
    "--events", "600", "--subs", "100", "--groups", "12",
    "--max-cells", "300", "--churn", "0.15", "--seed", "7",
]

#: sha256 of each run's stdout, recorded with the per-event publish
#: loop; none of these reports prints a wall-clock column
OBSERVED_CLI = {
    "serve-flight": (
        ["serve", *_RUNTIME, "--flight"],
        "87605bc1e15b4c97077448958450c4d427fc2f1e59299c2c6a57ac94ca4135d2",
    ),
    "serve-slo": (
        ["serve", *_RUNTIME, "--slo", str(EXAMPLES / "slo_ci_strict.json")],
        "2f4ad25e36f370497457fd131917c6b69f0df379e539f008a585f7b67c68bf34",
    ),
    "fleet-forward-flight": (
        [
            "fleet", *_RUNTIME, "--shards", "3",
            "--fleet-policy", "forward", "--flight",
        ],
        "8dcf2c5a174bef1f2dcbe898b8f77ee85fbd247b4e56c67af967de06f52a94d7",
    ),
    # no churn: the whole stream is one run, several times the cap
    "serve-churn0": (
        ["serve", *_RUNTIME[:-4], "--churn", "0", "--seed", "7"],
        "e03c59903567908c7c5c88bc29c9bdb9e6c65824e80a19f0e9df76635810ad29",
    ),
}

#: sha256 of the flight records (every stage of every event, in
#: recording order) of a small serve run, with the per-event loop
FLIGHT_RECORDS_DIGEST = (
    "0bd6153253b7cb372acdf79cb952e83dc3b9e6e582b0d67c8afc453b5b9b2422"
)


_SWEEP = [
    "sweep", "--subs", "300", "--groups", "5,20",
    "--algorithms", "kmeans,forgy,mst,pairs", "--noloss",
    "--events", "30", "--workers", "1",
]

#: sha256 of a sweep's CSV rows with the wall-clock ``fit_seconds``
#: column stripped: every fit (MacQueen and Forgy K-means, MST,
#: Pairwise Grouping, No-Loss) at two group counts
SWEEP_CSV = {
    "sweep": (
        _SWEEP,
        "912ab439738e0161dba116788109b4c03a5567a9b9cec46a8d08dcb8b4901fbe",
    ),
}


def cli_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def sweep_csv_digest(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            main([*argv, "--csv", str(path)])
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
    for row in rows:
        row.pop("fit_seconds")
    text = json.dumps(rows)
    return hashlib.sha256(text.encode()).hexdigest()


def flight_records_digest():
    result = run_soak(
        SoakConfig(
            n_events=400, n_subscriptions=80, n_groups=10, max_cells=300,
            churn_fraction=0.2, seed=5,
        ),
        flight=True,
    )
    text = json.dumps(result.flight_records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestObservedRunsUnchanged:
    @pytest.mark.parametrize("name", sorted(OBSERVED_CLI))
    def test_cli_output(self, name):
        argv, digest = OBSERVED_CLI[name]
        assert cli_digest(argv) == digest

    def test_flight_stage_chains(self):
        assert flight_records_digest() == FLIGHT_RECORDS_DIGEST


class TestSweepFitsUnchanged:
    @pytest.mark.parametrize("name", sorted(SWEEP_CSV))
    def test_sweep_csv(self, name):
        argv, digest = SWEEP_CSV[name]
        assert sweep_csv_digest(argv) == digest


if __name__ == "__main__":  # print the digests of the current code
    for name, (argv, _) in sorted(OBSERVED_CLI.items()):
        print(name, cli_digest(argv))
    print("flight-records", flight_records_digest())
    for name, (argv, _) in sorted(SWEEP_CSV.items()):
        print(name, sweep_csv_digest(argv))
