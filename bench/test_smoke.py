"""Smoke tests of the benchmark itself (tiny inputs; timings unchecked)."""

import json
import subprocess
import sys

from bench import ROOT
from bench.compare import verdict
from bench.runner import load_definition
from bench.tracing import layer_totals


def test_every_workload_runs_and_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--trace",
         "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0

    definition = load_definition()
    results = json.loads(out.read_text())
    assert [s["workload"] for s in results["workloads"]] == [
        w["name"] for w in definition["workloads"]
    ]
    for summary in results["workloads"]:
        assert set(summary["metrics"]) == {m["name"] for m in definition["end_to_end"]}
        assert set(summary["per_layer"]) == {m["name"] for m in definition["per_layer"]}
        assert all(entry["value"] > 0 for entry in summary["metrics"].values())
    assert {"cpu_count", "python", "git_commit", "seed"} <= set(results["env"])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, 1, None, 7, 1],
        ["child", 1.0, 4.0, 2, 1, 7, 1],
        ["child", 3.0, 5.0, 3, 1, 7, 1],  # overlaps the first child
        ["other", 2.0, 3.0, 1, None, 8, 1],  # same id, another process
    ]
    totals = layer_totals(spans, 0.0, 10.0)
    assert totals["parent"]["total"] == 10.0
    assert totals["parent"]["self"] == 6.0
    assert totals["child"]["calls"] == 2
    assert totals["other"]["self"] == 1.0


def test_paired_rule_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [value * 0.8 for value in parent]
    slower = [value * 1.2 for value in parent]
    noisy = [0.5, 1.5] * 5
    assert verdict(parent, faster, "lower", 0.1, claimable=True)[0] == "gain"
    assert verdict(parent, faster, "lower", 0.1, claimable=False)[0] == "no change"
    assert verdict(parent, slower, "lower", 0.1, claimable=True)[0] == "regressed"
    assert verdict(parent, faster, "higher", 0.1, claimable=True)[0] == "regressed"
    assert verdict(parent, noisy, "lower", 0.1, claimable=True)[0] == "unresolved"
    # Too few pairs: a wide spread stays unresolved even when the change
    # reads better on every run.
    wide = [1.0, 1.3, 1.6]
    better = [value * 0.5 for value in wide]
    assert verdict(wide, better, "lower", 0.1, claimable=False)[0] == "unresolved"
    assert verdict(wide, better, "lower", 0.1, claimable=True)[0] == "gain (every run)"
