"""``python -m bench compare PARENT_DIR CHANGE_DIR``: the paired-run rule.

Each directory holds ``run --out`` files of one commit, made with the
same benchmark code and settings. Runs pair up in start order, and the
pairs must alternate which commit ran first. For every (workload,
end-to-end metric) row:

* **gain**: at least 9 of every 10 pairs favour the change, the medians
  differ by more than the parent's IQR, there are at least 10 pairs in
  alternating order, and the change fails no more operations;
* **regressed**: the change's median is worse than the parent's by more
  than the metric's ``BENCHMARK.json`` bound;
* **unresolved**: either side's IQR, as a share of its median, exceeds
  the bound, unless every change run beats every parent run and the
  pairs could claim a gain (enough of them, alternating, no more
  failures);
* **no change** otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .runner import load_definition

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: str) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return sorted(runs, key=lambda run: run["env"]["started"])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        summary["metrics"][metric]["value"]
        for run in runs
        for summary in run["workloads"]
        if summary["workload"] == workload and metric in summary["metrics"]
    ]


def _failed(runs: list[dict], workload: str) -> int:
    return sum(
        s["failed"] for run in runs for s in run["workloads"] if s["workload"] == workload
    )


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            claimable: bool) -> tuple[str, int]:
    """(verdict, wins) for one row; ``parent``/``change`` are paired."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pmed, p3 = _quartiles(parent)
    c1, cmed, c3 = _quartiles(change)
    if (p3 - p1) > bound * abs(pmed) or (c3 - c1) > bound * abs(cmed):
        if claimable and all(sign * (c - p) < 0 for c in change for p in parent):
            return "gain (every run)", wins
        return "unresolved", wins
    if sign * (cmed - pmed) > bound * abs(pmed):
        return "regressed", wins
    if (
        claimable
        and wins >= WIN_SHARE * len(parent)
        and sign * (cmed - pmed) < 0
        and abs(cmed - pmed) > (p3 - p1)
    ):
        return "gain", wins
    return "no change", wins


def compare(parent_dir: str, change_dir: str) -> int:
    definition = load_definition()
    parents, changes = load_runs(parent_dir), load_runs(change_dir)
    pairs = min(len(parents), len(changes))
    parents, changes = parents[:pairs], changes[:pairs]
    firsts = [
        p["env"]["started"] < c["env"]["started"] for p, c in zip(parents, changes)
    ]
    alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
    print(f"{pairs} pairs; order {'alternates' if alternating else 'does NOT alternate'}")
    if pairs < MIN_PAIRS or not alternating:
        print(f"gains need >= {MIN_PAIRS} pairs in alternating order; "
              "only regressions are judged")
    workloads = [w["name"] for w in definition["workloads"]]
    regressed = False
    for workload in workloads:
        claimable = (
            pairs >= MIN_PAIRS
            and alternating
            and _failed(changes, workload) <= _failed(parents, workload)
        )
        for metric in definition["end_to_end"]:
            parent = _values(parents, workload, metric["name"])
            change = _values(changes, workload, metric["name"])
            if not parent or len(parent) != len(change):
                continue
            result, wins = verdict(
                parent, change, metric["better"], metric["bound"], claimable
            )
            regressed |= result == "regressed"
            p1, pmed, p3 = _quartiles(parent)
            c1, cmed, c3 = _quartiles(change)
            print(
                f"{workload:12s} {metric['name']:14s} "
                f"parent {pmed:.6g} [{p1:.6g}, {p3:.6g}]  "
                f"change {cmed:.6g} [{c1:.6g}, {c3:.6g}] {metric['unit']}  "
                f"wins {wins}/{len(parent)}  bound {metric['bound']:.0%}  {result}"
            )
    return 1 if regressed else 0
