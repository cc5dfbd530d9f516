"""``python -m bench run``: every pass in a fresh process, then the report.

Each workload pass runs as ``python -m bench.workloads`` in its own
process group, one after the other, so no pass inherits another's warm
state and nothing a pass starts can outlive it. An untraced pass gives
the end-to-end metrics; ``--trace`` splits the time between an untraced
and a traced pass, reports the per-layer metrics of the traced one, and
prints the tracing overhead as the ratio of their ``cycle_cpu_s``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import ROOT

#: Scratch space for data dirs, spans and pass results; it lives in the
#: checkout and is removed when the run ends.
WORK_ROOT = ROOT / ".bench_tmp"
#: A pass that has not finished after this many seconds is killed.
PASS_TIMEOUT_S = 150.0
#: Set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3
#: Environment variables that change how the program runs; a pass
#: starts without them so every run measures the same configuration.
PROGRAM_ENV = (
    "REPRO_DATA_DIR", "REPRO_OBS_DISABLED", "REPRO_FAULT_PLAN",
    "REPRO_SLOW_REQUEST_SECONDS",
)


def load_definition() -> dict:
    """``BENCHMARK.json``: workload names, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_passes(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    smoke: bool = False,
    record: bool = False,
) -> list[dict]:
    """The pass results for one workload (untraced first)."""
    plans = [(False, seconds)]
    if trace:
        plans = [(False, seconds / 2), (True, seconds / 2)]
    results = []
    for index, (traced, pass_seconds) in enumerate(plans):
        pass_dir = work / f"{workload}-{index}"
        pass_dir.mkdir(parents=True)
        spec = {
            "workload": workload,
            "seed": seed,
            "seconds": pass_seconds,
            "setups": 1 if (smoke or trace or record) else SETUPS,
            "trace": traced,
            "work_dir": str(pass_dir),
            "result_path": str(pass_dir / "result.json"),
            "smoke": smoke,
            "max_cycles": _max_cycles(workload, smoke, record),
            "record": record,
        }
        results.append(_spawn(spec, pass_dir))
    return results


def _max_cycles(workload: str, smoke: bool, record: bool) -> int | None:
    if record:
        # One cycle pins a repeated answer; the sweep records every step.
        return None if workload == "intel-sweep" else 1
    if smoke:
        return 2 if workload == "fec-resume" else 3
    return None


def _spawn(spec: dict, pass_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(pass_dir)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.workloads", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _kill_group(proc.pid)
    if code != 0:
        raise RuntimeError(
            f"{spec['workload']} pass "
            + ("timed out" if code is None else f"exited with {code}")
        )
    return json.loads(Path(spec["result_path"]).read_text())


def _kill_group(pgid: int) -> None:
    """Stop whatever the pass left running and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.waitpid(pgid, os.WNOHANG)
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def _median_iqr(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return value, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(statistics.median(values)), float(q3 - q1)


def end_to_end(result: dict) -> dict[str, tuple[float, float, int]]:
    """(value, IQR over the run's samples, sample count) per metric."""
    return {
        "setup_s": (*_median_iqr(result["setup_cpu_s"]), len(result["setup_cpu_s"])),
        "cycle_cpu_s": (*_median_iqr(result["cycle_cpu_s"]), result["cycles"]),
        "peak_rss_mb": (result["peak_rss_mb"], 0.0, 1),
    }


def summarize(workload: str, results: list[dict], trace: bool, definition: dict) -> dict:
    """One workload's report: metrics named by BENCHMARK.json."""
    untraced = results[0]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    measured = end_to_end(untraced)
    summary = {
        "workload": workload,
        "seed": untraced["seed"],
        "rows": untraced["rows"],
        "gen_s": untraced["gen_s"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "correct": failed == 0 and untraced["cycles"] > 0,
        "errors": [e for r in results for e in r["errors"]],
        "top_f1": untraced["top_f1"],
        "numpy": untraced["numpy"],
        "wall": untraced["wall"],
        "metrics": {},
        "per_layer": {},
    }
    if trace:
        traced = results[1]
        summary["trace_overhead"] = (
            _median_iqr(traced["cycle_cpu_s"])[0] / measured["cycle_cpu_s"][0] - 1
        )
        layers = traced["layers"]
        wanted = {m["name"] for m in definition["per_layer"]}
        if set(layers) != wanted:
            raise RuntimeError(
                f"per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(layers) ^ wanted)}"
            )
        for metric in definition["per_layer"]:
            summary["per_layer"][metric["name"]] = {
                "value": layers[metric["name"]], "unit": metric["unit"],
            }
    for metric in definition["end_to_end"]:
        value, iqr, n = measured[metric["name"]]
        summary["metrics"][metric["name"]] = {
            "value": value, "unit": metric["unit"], "iqr": iqr, "n": n,
        }
    return summary


def print_summary(summary: dict) -> None:
    name = summary["workload"]
    out = sys.stdout
    print(f"== {name} (seed {summary['seed']}, {summary['rows']} rows)", file=out)
    print(f"   gen_s {summary['gen_s']:.4f} s (input generation, not timed)", file=out)
    for metric, entry in summary["metrics"].items():
        print(f"   {metric:40s} {entry['value']:.6g} {entry['unit']}"
              f"  n={entry['n']} IQR={entry['iqr']:.4g}", file=out)
    for name, value in summary["wall"].items():
        print(f"   wall {name:35s} {value:.6g}", file=out)
    for metric, entry in summary["per_layer"].items():
        print(f"   {metric:40s} {entry['value']:.6g} {entry['unit']}", file=out)
    print(f"   failed_frac {summary['failed_frac']:.4g} "
          f"({summary['failed']}/{summary['attempted']})  top_f1 {summary['top_f1']:.4f}",
          file=out)
    if "trace_overhead" in summary:
        print(f"   tracing overhead {100 * summary['trace_overhead']:+.1f}% "
              "(traced / untraced cycle_cpu_s - 1)", file=out)
    for error in summary["errors"][:5]:
        print(f"   ERROR {error}", file=out)


def environment(seed: int, seconds: float, trace: bool) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started": time.time(),
    }


def _git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    definition = load_definition()
    known = [w["name"] for w in definition["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else definition["run_seconds"]
    trace = bool(args.trace)
    env = environment(args.seed, seconds, trace)
    work = WORK_ROOT / f"run-{os.getpid()}"
    summaries = []
    try:
        for workload in workloads:
            results = run_passes(
                workload, args.seed, seconds, trace, work, smoke=args.smoke
            )
            summary = summarize(workload, results, trace, definition)
            print_summary(summary)
            summaries.append(summary)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"env": env, "workloads": summaries}, indent=1) + "\n"
        )
    correct = all(s["correct"] for s in summaries)
    # One workload: names as BENCHMARK.json has them; several: prefixed.
    section = "per_layer" if trace else "metrics"
    metrics = {
        (name if len(summaries) == 1 else f"{s['workload']}.{name}"): {
            "value": entry["value"], "unit": entry["unit"],
        }
        for s in summaries
        for name, entry in s[section].items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def record_golden(args) -> int:
    """Re-record ``bench/golden/<workload>.json`` on the default seed."""
    from .workloads import DEFAULT_SEED, GOLDEN_DIR

    definition = load_definition()
    work = WORK_ROOT / f"golden-{os.getpid()}"
    try:
        for workload in args.workload or [w["name"] for w in definition["workloads"]]:
            (result,) = run_passes(
                workload, DEFAULT_SEED, 1e9, False, work, record=True
            )
            if result["failed"]:
                print(f"error: {workload}: {result['errors']}", file=sys.stderr)
                return 1
            GOLDEN_DIR.mkdir(exist_ok=True)
            (GOLDEN_DIR / f"{workload}.json").write_text(json.dumps({
                "workload": workload,
                "seed": DEFAULT_SEED,
                "rows": result["rows"],
                "digest": "blake2b-128 over 'predicate|repr(score)|repr(epsilon_after)' "
                          "lines, one per ranked predicate",
                "digests": result["answers"],
                "top": result["tops"],
            }, indent=1) + "\n")
            print(f"recorded {len(result['answers'])} answer(s) for {workload}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0
