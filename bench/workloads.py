"""The four analyst workloads, one measured pass per process.

``python -m bench.workloads SPEC_JSON`` runs one pass and writes its raw
samples as JSON to ``spec["result_path"]``; :mod:`bench.runner` spawns
it. A pass generates its inputs from the seed (untimed, reported as
``gen_s``), sets up ``setups`` times, then runs closed-loop analyst
cycles for ``seconds`` and checks every answer: against the golden
fixture on the default seed, and on every seed for determinism and
(served) for equality with the in-process answer.

Times are taken twice. CPU seconds of the program's processes, scaled
to a reference speed (:class:`Speed`), are the gated end-to-end
metrics: on a shared virtual machine the hypervisor steals CPU from the
guest for seconds at a time, and the CPUs it leaves run faster or
slower for tens of seconds at a time, so wall-clock medians of
otherwise identical runs differ by 10–40% and raw CPU medians by
10–30%. Wall-clock latencies and rates are still measured, printed and
kept in the results file.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tracing
from .server import Server, proc_cpu_s, proc_status_kb, proc_wchar

#: The seed the golden fixtures were recorded with.
DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: ``intel_at_scale`` factor: 97,200 readings, 120 half-hour windows.
INTEL_SCALE = 5
#: S is the share of windows with the highest std_temp: at full scale,
#: the windows after the failure onset, where the failing motes mix in.
#: A fixed share (not a cut) keeps |S| and |F| the same for every seed.
S_SHARE = 0.25
#: The sweep's too-high threshold, typed by the analyst as a multiple of
#: the median std_temp (the default, the highest unselected value, gives
#: a brush that stops short of the hottest windows ε = 0 and no report).
HOT_FACTOR = 4.0
#: The zoomed tuples brushed as D': temp >= 100 (the failing motes).
DPRIME_TEMP = 100.0
#: Sweep brushes slide over S one window at a time at SWEEP_WIDTHS
#: consecutive widths from half of S, so every step is a new selection
#: and any prefix of the sweep mixes the widths alike (a faster run does
#: not drift to wider, slower brushes).
SWEEP_WIDTHS = 4
#: FEC analyst cycles journaled before the resume rounds start.
JOURNAL_CYCLES = 4
#: CPU seconds of one :func:`reference_cpu_s` loop at the speed every
#: gated time is scaled to: about its median on the two-vCPU machine the
#: benchmark was built on, so scaled times read as CPU seconds there.
REF_S = 0.010
#: Reference loops per speed reading (their median is the reading).
REF_REPEATS = 3
#: Seconds between speed readings while the served analysts run.
REF_PERIOD_S = 0.2
_REF_INPUT = np.random.default_rng(0).random(200_000)
#: The eight clicks of one FEC analyst cycle.
CYCLE_COMMANDS = (
    "execute", "select_results", "zoom", "select_inputs",
    "set_metric", "debug", "apply", "undo",
)


@dataclass
class Spec:
    """One pass, as :mod:`bench.runner` asks for it."""

    workload: str
    seed: int
    seconds: float
    setups: int
    trace: bool
    work_dir: str
    result_path: str
    smoke: bool = False
    max_cycles: int | None = None
    record: bool = False

    @property
    def check_golden(self) -> bool:
        return self.seed == DEFAULT_SEED and not self.smoke and not self.record

    def more(self, cycles: int) -> bool:
        return self.max_cycles is None or cycles < self.max_cycles


class CycleFailed(Exception):
    """A click failed; the rest of that analyst cycle is skipped."""


class Tally:
    """Operations attempted and failed (errors, refusals, mismatches)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: 20 - len(self.errors)])


class Clicks:
    """Times each click of one analyst; a failed click ends the cycle.

    Per command it keeps wall-clock samples. Per completed cycle it
    keeps the wall time since the previous cycle ended (or
    :meth:`start`), so a resume round's restart counts; the wall time
    of the clicks other than ``debug`` and ``recover``; and the CPU time
    of all its clicks in this process, which is the program's CPU time
    when the program runs in process. Given a :class:`Speed`, that CPU
    time is scaled by a speed reading taken as each cycle ends.
    """

    def __init__(self, tally: Tally, speed: "Speed | None" = None) -> None:
        self.tally = tally
        self.speed = speed
        self.samples: dict[str, list[float]] = {}
        self.cycle_wall: list[float] = []
        self.cycle_edit_wall: list[float] = []
        self.cycle_cpu: list[float] = []
        self._edits = self._cpu = 0.0
        self._broken = False
        self._cycle_start = time.perf_counter()

    def __call__(self, command: str, fn, *args, **kwargs):
        from repro.errors import ReproError

        self.tally.attempted += 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            value = fn(*args, **kwargs)
        except ReproError as error:
            self.tally.fail(f"{command}: {type(error).__name__}: {error}")
            self._broken = True
            raise CycleFailed from error
        elapsed = time.perf_counter() - start
        self._cpu += time.process_time() - cpu
        self.samples.setdefault(command, []).append(elapsed)
        if command not in ("debug", "recover"):
            self._edits += elapsed
        return value

    def start(self) -> None:
        self._cycle_start = time.perf_counter()

    def end_cycle(self) -> None:
        now = time.perf_counter()
        cpu = self._cpu
        if self.speed is not None:
            # Read the speed after failed cycles too, so that every
            # cycle is scaled by the readings right next to it.
            cpu = self.speed.scale(cpu)
        if not self._broken:
            self.cycle_wall.append(now - self._cycle_start)
            self.cycle_edit_wall.append(self._edits)
            self.cycle_cpu.append(cpu)
        self._cycle_start = time.perf_counter()
        self._edits = self._cpu = 0.0
        self._broken = False

    def rate(self) -> float:
        """Cycles per second at the median cycle wall time."""
        return 1.0 / statistics.median(self.cycle_wall) if self.cycle_wall else 0.0

    def merge(self, other: "Clicks") -> None:
        for command, values in other.samples.items():
            self.samples.setdefault(command, []).extend(values)
        self.cycle_wall.extend(other.cycle_wall)
        self.cycle_edit_wall.extend(other.cycle_edit_wall)


def _untimed() -> Clicks:
    """Clicks of set-up and checks: not counted, and a failure is fatal."""
    return Clicks(Tally())


def reference_cpu_s() -> float:
    """Thread CPU seconds of a fixed loop of interpreted integer
    arithmetic and a numpy sort, the two kinds of work the program does."""
    start = time.thread_time()
    total = 0
    for i in range(100_000):
        total += i * i
    np.sort(_REF_INPUT)
    return time.thread_time() - start


def speed_reading() -> float:
    """The median of :data:`REF_REPEATS` reference loops."""
    return statistics.median(reference_cpu_s() for _ in range(REF_REPEATS))


class Speed:
    """Scales CPU seconds to the reference speed.

    The CPUs of a shared virtual machine run faster or slower for tens
    of seconds at a time, so the same work's CPU time moves by 10–30%
    between runs however many samples a run takes. Work slows down and
    speeds up with a reference loop run right before and after it, so
    the ratio of their CPU times moves less: the median cycle CPU of ten
    same-seed intel-warm passes spread 4.7% raw and 2.4% scaled.
    """

    def __init__(self) -> None:
        self._last = speed_reading()

    def factor(self) -> float:
        """Takes a reading; ``REF_S`` ÷ the mean of it and the previous one."""
        now = speed_reading()
        factor = REF_S / ((self._last + now) / 2)
        self._last = now
        return factor

    def scale(self, cpu_s: float) -> float:
        """``cpu_s`` spent since the previous reading, at ``REF_S`` speed."""
        return cpu_s * self.factor()


def _read_speed_until(stop: threading.Event, readings: list[float]) -> None:
    """Take a reference loop's CPU time every ``REF_PERIOD_S``."""
    while not stop.wait(REF_PERIOD_S):
        readings.append(reference_cpu_s())


def _cpu_used() -> float:
    """CPU seconds of this process and of every descendant it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------


def _num(value) -> str:
    # The wire sends non-finite floats as null; digest both sides alike.
    return repr(float(value)) if value is not None and math.isfinite(value) else "None"


def _digest(rows) -> str:
    text = "\n".join(f"{text}|{_num(score)}|{_num(after)}" for text, score, after in rows)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def report_digest(report) -> str:
    """Predicate text + repr(score) + repr(epsilon_after), every rank."""
    return _digest(
        (r.predicate.describe(), r.score, r.epsilon_after) for r in report
    )


def payload_digest(payload: dict) -> str:
    """:func:`report_digest` of a wire ``debug`` payload."""
    return _digest(
        (p["predicate"], p["score"], p["epsilon_after"])
        for p in payload["predicates"]
    )


def _top(report) -> str:
    return report[0].predicate.describe() if len(report) else ""


def top_f1(report, table, inputs: np.ndarray, truth: np.ndarray) -> float:
    """F1 of the top predicate against the injected anomaly, within F."""
    if not len(report):
        return 0.0
    matched = np.asarray(table.tids)[report[0].predicate.mask(table)]
    matched = np.intersect1d(matched, inputs)
    relevant = np.intersect1d(truth, inputs)
    hits = len(np.intersect1d(matched, relevant))
    total = len(matched) + len(relevant)
    return 2.0 * hits / total if total else 0.0


def check_golden(spec: Spec, tally: Tally, answers: dict[int, str]) -> None:
    """Compare answers (by sweep step, else 0) with the fixture."""
    if not spec.check_golden:
        return
    path = GOLDEN_DIR / f"{spec.workload}.json"
    golden = json.loads(path.read_text())["digests"] if path.exists() else []
    for index, answer in answers.items():
        if index >= len(golden) or golden[index] != answer:
            tally.fail(f"answer {index} differs from {path.name}")


# ----------------------------------------------------------------------
# intel: in-process sessions, the way the CLI shell builds them
# ----------------------------------------------------------------------


def _intel_inputs(spec: Spec):
    from repro.data import generate_intel
    from repro.data.intel import intel_at_scale

    scale = 1 if spec.smoke else INTEL_SCALE
    return generate_intel(
        intel_at_scale(scale, failure_onset_frac=0.7, seed=spec.seed)
    )


def _intel_session(table):
    """A fresh database over a fresh table object, query executed:
    (session, S's result rows, the sweep's too-high threshold)."""
    from repro.data.intel import WALKTHROUGH_QUERY
    from repro.db import Database
    from repro.db.table import Table
    from repro.frontend import DBWipesSession

    db = Database()
    db.register(
        Table(
            table.schema,
            {name: table.column(name) for name in table.schema.names},
            name=table.name,
        )
    )
    session = DBWipesSession(db)
    result = session.execute(WALKTHROUGH_QUERY)
    std = np.asarray(result.column("std_temp"), dtype=np.float64)
    top = np.argsort(-std, kind="stable")[: max(1, round(S_SHARE * len(std)))]
    return session, sorted(int(row) for row in top), HOT_FACTOR * float(np.median(std))


def _intel_debug(clicks, session, rows, **threshold):
    """Brush S, zoom, brush D', pick ε, debug: (report, F's tids).

    Without a ``threshold`` the too-high form takes its default, the
    highest unselected std_temp, as the CLI walkthrough does.
    """
    from repro.frontend import Brush

    clicks("select_results", session.select_results, rows)
    inputs = clicks("zoom", session.zoom).keys
    clicks("select_inputs", session.select_inputs, Brush.above(DPRIME_TEMP))
    clicks("set_metric", session.set_metric, "too_high", agg_name="std_temp",
           **threshold)
    return clicks("debug", session.debug, "std_temp"), inputs


def sweep_brushes(rows: list[int]) -> list[list[int]]:
    """Adjacent, distinct brushes over S's windows (see SWEEP_WIDTHS)."""
    narrowest = max(1, len(rows) // 2)
    return [
        rows[first:first + width]
        for first in range(len(rows))
        for width in range(narrowest, narrowest + SWEEP_WIDTHS)
        if first + width <= len(rows)
    ]


def _intel_setups(spec: Spec, table, speed: Speed, typed_threshold: bool = False):
    """``spec.setups`` fresh sessions, each warmed by one debug of S."""
    setups = []
    for _ in range(spec.setups):
        started, cpu = time.perf_counter(), time.process_time()
        session, rows, cut = _intel_session(table)
        threshold = {"threshold": cut} if typed_threshold else {}
        warm, inputs = _intel_debug(_untimed(), session, rows, **threshold)
        wall_s, cpu_s = time.perf_counter() - started, time.process_time() - cpu
        setups.append((wall_s, speed.scale(cpu_s)))
    return setups, session, rows, cut, warm, inputs


def intel_warm(spec: Spec, tally: Tally, recorder) -> dict:
    """Repeated debugs of one selection: where memoization would show."""
    started = time.perf_counter()
    table, truth = _intel_inputs(spec)
    gen_s = time.perf_counter() - started
    speed = Speed()
    setups, session, rows, _, warm, inputs = _intel_setups(spec, table, speed)
    answer = report_digest(warm)

    clicks = Clicks(tally, speed)
    reports = []
    start = time.perf_counter()
    deadline = start + spec.seconds
    clicks.start()
    while time.perf_counter() < deadline and spec.more(len(reports)):
        try:
            reports.append(_intel_debug(clicks, session, rows)[0])
        except CycleFailed:
            pass
        finally:
            clicks.end_cycle()
    end = time.perf_counter()

    for index, report in enumerate(reports):
        if report_digest(report) != answer:
            tally.fail(f"debug {index} differs from the warm-up answer")
    check_golden(spec, tally, {0: answer})
    f1 = top_f1(warm, table, inputs, truth.tids)
    if f1 < 0.5:
        tally.fail(f"top predicate F1 {f1:.3f} < 0.5")
    return _result(
        spec, table.num_rows, gen_s, setups, clicks, len(reports),
        cycle_cpu_s=clicks.cycle_cpu,
        peak_rss_mb=_own_peak_rss_mb(),
        answers=[answer], tops=[_top(warm)], f1s=[f1],
        layers=_in_process_layers(recorder, start, end, len(reports)),
    )


def intel_sweep(spec: Spec, tally: Tally, recorder) -> dict:
    """A new brush per step, each cleaned and undone: caches keyed on
    the selection always miss, and every step rewrites the query."""
    started = time.perf_counter()
    table, truth = _intel_inputs(spec)
    gen_s = time.perf_counter() - started
    speed = Speed()
    setups, session, rows, cut, _, _ = _intel_setups(
        spec, table, speed, typed_threshold=True
    )
    brushes = sweep_brushes(rows)
    original = _result_bytes(session.result)

    clicks = Clicks(tally, speed)
    steps: list[tuple[int, object, np.ndarray]] = []
    start = time.perf_counter()
    deadline = start + spec.seconds
    clicks.start()
    for index, brush in enumerate(brushes):
        if time.perf_counter() >= deadline or not spec.more(len(steps)):
            break
        try:
            report, inputs = _intel_debug(clicks, session, brush, threshold=cut)
            clicks("apply", session.apply_predicate, 0)
            restored = clicks("undo", session.undo_cleaning)
        except CycleFailed:
            continue
        finally:
            clicks.end_cycle()
        steps.append((index, report, inputs))
        if _result_bytes(restored) != original:
            tally.fail(f"step {index}: undo did not restore the query result")
    end = time.perf_counter()

    answers = {index: report_digest(report) for index, report, _ in steps}
    if steps:
        first = steps[0][0]
        again, _ = _intel_debug(_untimed(), session, brushes[first], threshold=cut)
        if report_digest(again) != answers[first]:
            tally.fail(f"step {first} answers differently when repeated")
    check_golden(spec, tally, answers)
    return _result(
        spec, table.num_rows, gen_s, setups, clicks, len(steps),
        cycle_cpu_s=clicks.cycle_cpu,
        peak_rss_mb=_own_peak_rss_mb(),
        answers=list(answers.values()),
        tops=[_top(report) for _, report, _ in steps],
        f1s=[top_f1(report, table, inputs, truth.tids) for _, report, inputs in steps],
        layers=_in_process_layers(recorder, start, end, len(steps)),
    )


def _result_bytes(result) -> bytes:
    return b"".join(
        np.ascontiguousarray(result.column(name)).tobytes()
        for name in result.column_names
    )


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _in_process_layers(recorder, start: float, end: float, cycles: int) -> dict:
    if recorder is None:
        return {}
    return layer_metrics(tracing.layer_totals(recorder.spans, start, end), cycles, {})


# ----------------------------------------------------------------------
# fec: analysts talking to `serve --async --workers 2`
# ----------------------------------------------------------------------


def _fec_inputs(spec: Spec):
    from repro.data import FECConfig, generate_fec

    return generate_fec(FECConfig(seed=spec.seed))


def _fec_reference(table, truth) -> tuple[str, float, str]:
    """The in-process answer to the §3.2 cycle on the same table."""
    from repro.data import walkthrough_query
    from repro.db import Database
    from repro.frontend import Brush, DBWipesSession

    db = Database()
    db.register(table)
    session = DBWipesSession(db)
    session.execute(walkthrough_query())
    session.select_results(Brush.below(0.0))
    inputs = np.asarray(session.zoom().keys)
    session.select_inputs(Brush.below(0.0))
    session.set_metric("too_low", threshold=0.0)
    report = session.debug()
    return (
        report_digest(report), top_f1(report, table, inputs, truth.tids), _top(report)
    )


def _persist_fec(table, data_dir: Path) -> None:
    """Import the generated table the way ``store import`` does."""
    from repro.data import walkthrough_query
    from repro.db import Database
    from repro.service.cache import DatasetCatalog

    db = Database()
    db.register(table)
    catalog = DatasetCatalog(data_dir)
    catalog.register("fec", lambda: db, bootstrap=walkthrough_query())
    catalog.import_dataset("fec")


def _fec_cycle(clicks: Clicks, client, answered: list | None = None) -> dict:
    """The §3.2 cycle; returns the debug payload (and appends the time
    it arrived to ``answered``)."""
    clicks("execute", client.execute, client.bootstrap)
    clicks("select_results", client.select_results, brush={"below": 0.0})
    clicks("zoom", client.zoom)
    clicks("select_inputs", client.select_inputs, brush={"below": 0.0})
    clicks("set_metric", client.set_metric, "too_low", threshold=0.0)
    payload = clicks("debug", client.debug)
    if answered is not None:
        answered.append(time.perf_counter())
    clicks("apply", client.apply, 0)
    clicks("undo", client.undo)
    return payload


def _client(server: Server, name: str):
    from repro.service import ServiceClient

    return ServiceClient("127.0.0.1", server.port, session=name, timeout=120.0)


def _analyst(server: Server, name: str):
    client = _client(server, name)
    client.open("fec")
    return client


def _server_counters(client) -> dict:
    """Counters read before and after the measured window."""
    stats = client.stats()
    workers = sorted(stats["per_worker"], key=lambda w: w["worker"])
    pids = [int(w["pid"]) for w in workers]
    return {
        "cpu": [proc_cpu_s(pid) for pid in pids],
        "wchar": sum(proc_wchar(pid) for pid in pids),
        "appends": sum(
            int(((w.get("stats") or {}).get("journal") or {}).get("appends", 0))
            for w in workers
        ),
        "hits": stats["preprocess_cache"]["hits"],
        "misses": stats["preprocess_cache"]["misses"],
        "gateway": stats.get("gateway", {}),
    }


def _peak_rss_mb(server: Server) -> float:
    return sum(proc_status_kb(pid, "VmHWM") for pid in server.processes()) / 1024.0


def _dir_bytes(path: Path, pattern: str = "**/*") -> int:
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file())


def _trace_dir(spec: Spec) -> Path | None:
    if not spec.trace:
        return None
    path = Path(spec.work_dir) / "spans"
    path.mkdir(exist_ok=True)
    return path


def fec_served(spec: Spec, tally: Tally, recorder) -> dict:
    """Two closed-loop analysts through the gateway, router and workers.

    ``cycle_cpu_s`` is the CPU the gateway and workers spend per analyst
    cycle over the window (the analysts stand in for the browser, so the
    load generator's own CPU is not counted), scaled by the median of
    speed readings a third thread takes throughout the window.
    """
    work = Path(spec.work_dir)
    started = time.perf_counter()
    table, truth = _fec_inputs(spec)
    gen_s = time.perf_counter() - started
    answer, f1, top = _fec_reference(table, truth)
    trace_dir = _trace_dir(spec)
    setups = []
    server, analysts = None, []
    speed = Speed()
    try:
        for attempt in range(spec.setups):
            if server is not None:
                for client in analysts:
                    client.close()
                server.stop()
            data_dir = work / f"served-{attempt}"
            started, cpu = time.perf_counter(), _cpu_used()
            _persist_fec(table, data_dir)
            server = Server(data_dir, work / "server.log", trace_dir)
            boot_s = server.start()
            analysts = [_analyst(server, f"analyst-{i}") for i in range(2)]
            for client in analysts:
                _fec_cycle(_untimed(), client)
            wall_s, cpu_s = time.perf_counter() - started, _cpu_used() - cpu + server.cpu_s()
            setups.append((wall_s, speed.scale(cpu_s)))

        before = _server_counters(analysts[0])
        cpu_before = server.cpu_s()
        per_analyst = [(Clicks(Tally()), []) for _ in analysts]
        readings = [reference_cpu_s()]  # at least one, however short the window
        stop = threading.Event()
        start = time.perf_counter()
        deadline = start + spec.seconds
        errors: list[BaseException] = []

        def loop(client, clicks: Clicks, payloads: list) -> None:
            try:
                clicks.start()
                while time.perf_counter() < deadline and spec.more(len(payloads)):
                    try:
                        payloads.append(_fec_cycle(clicks, client))
                    except CycleFailed:
                        pass
                    finally:
                        clicks.end_cycle()
            except BaseException as error:  # surfaced after join
                errors.append(error)

        threads = [
            threading.Thread(target=loop, args=(client, clicks, payloads))
            for client, (clicks, payloads) in zip(analysts, per_analyst)
        ]
        reader = threading.Thread(target=_read_speed_until, args=(stop, readings))
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        stop.set()
        reader.join()
        if errors:
            raise errors[0]
        cpu_after = server.cpu_s()
        after = _server_counters(analysts[0])
        peak_rss_mb = _peak_rss_mb(server)
        journal_bytes = _dir_bytes(data_dir / "journal", "*.jsonl")
        disk_bytes = _dir_bytes(data_dir)
    finally:
        for client in analysts:
            client.close()
        if server is not None:
            server.stop()

    clicks = Clicks(tally)
    payloads = []
    for analyst_clicks, analyst_payloads in per_analyst:
        tally.merge(analyst_clicks.tally)
        clicks.merge(analyst_clicks)
        payloads.extend(analyst_payloads)
    for index, payload in enumerate(payloads):
        if payload_digest(payload) != answer:
            tally.fail(f"served debug {index} differs from the in-process answer")
    check_golden(spec, tally, {0: answer})
    cycles = len(payloads)

    layers = {}
    if trace_dir is not None:
        totals = tracing.layer_totals(tracing.read_flushed(trace_dir), start, end)
        layers = layer_metrics(
            totals, cycles,
            _service_layers(clicks, totals, cycles, before, after)
            | {
                "service.journal.file_bytes": float(journal_bytes),
                "service.boot_s": boot_s,
                "db.store.disk_bytes": float(disk_bytes),
            },
        )
    return _result(
        spec, table.num_rows, gen_s, setups, clicks, cycles,
        cycle_cpu_s=[
            (cpu_after - cpu_before) / max(cycles, 1) * REF_S / statistics.median(readings)
        ],
        peak_rss_mb=peak_rss_mb,
        answers=[answer], tops=[top], f1s=[f1], layers=layers,
        cycles_per_s=sum(analyst_clicks.rate() for analyst_clicks, _ in per_analyst),
    )


def fec_resume(spec: Spec, tally: Tally, recorder) -> dict:
    """Restart the server and resume a journaled analyst, round after round.

    ``cycle_cpu_s`` is the CPU the round's gateway and workers spend
    from launch to the end of the resumed analyst's cycle, scaled by the
    speed readings taken between rounds.
    """
    from repro.data import walkthrough_query

    work = Path(spec.work_dir)
    started = time.perf_counter()
    table, truth = _fec_inputs(spec)
    gen_s = time.perf_counter() - started
    answer, f1, top = _fec_reference(table, truth)
    trace_dir = _trace_dir(spec)
    log = work / "server.log"
    setups = []
    speed = Speed()
    for attempt in range(spec.setups):
        pristine = work / f"pristine-{attempt}"
        started, cpu = time.perf_counter(), _cpu_used()
        _persist_fec(table, pristine)
        server = Server(pristine, log)
        try:
            server.start()
            client = _analyst(server, "analyst-0")
            for _ in range(JOURNAL_CYCLES):
                _fec_cycle(_untimed(), client)
            client.close()
            # Read the speed while the server idles, not while it exits.
            factor = speed.factor()
        finally:
            server.stop()
        wall_s, cpu_s = time.perf_counter() - started, _cpu_used() - cpu
        setups.append((wall_s, cpu_s * factor))
    expected_replay = JOURNAL_CYCLES * len(CYCLE_COMMANDS)

    clicks = Clicks(tally)
    payloads = []
    resume_s, round_cpu, boot_s, recover_s, replayed = [], [], [], [], []
    rss, journal_bytes, disk_bytes = [], [], []
    round_dir = work / "round"
    start = time.perf_counter()
    deadline = start + spec.seconds
    clicks.start()
    while time.perf_counter() < deadline and spec.more(len(payloads)):
        shutil.copytree(pristine, round_dir)
        launched = time.perf_counter()
        server = Server(round_dir, log, trace_dir)
        try:
            boot_s.append(server.start())
            client = _client(server, "analyst-0")
            # Not open(): that would start a fresh journal.
            client.bootstrap = walkthrough_query()
            try:
                recovered = clicks("recover", client.recover)
                recover_s.append(clicks.samples["recover"][-1])
                replayed.append(recovered["replayed"])
                if recovered["replayed"] != expected_replay or recovered["truncated_at"]:
                    tally.fail(f"recover replayed {recovered['replayed']} of "
                               f"{expected_replay} ({recovered['truncated_at']})")
                answered: list[float] = []
                payloads.append(_fec_cycle(clicks, client, answered))
                resume_s.append(answered[0] - launched)
                # Read the speed while the server idles, not while it exits.
                round_cpu.append(speed.scale(server.cpu_s()))
                rss.append(_peak_rss_mb(server))
            except CycleFailed:
                pass
            finally:
                clicks.end_cycle()
                client.close()
            journal_bytes.append(_dir_bytes(round_dir / "journal", "*.jsonl"))
            disk_bytes.append(_dir_bytes(round_dir))
        finally:
            server.stop()
            shutil.rmtree(round_dir)
    end = time.perf_counter()

    for index, payload in enumerate(payloads):
        if payload_digest(payload) != answer:
            tally.fail(f"resumed debug {index} differs from the in-process answer")
    check_golden(spec, tally, {0: answer})
    cycles = len(payloads)
    layers = {}
    if trace_dir is not None:
        totals = tracing.layer_totals(tracing.read_flushed(trace_dir), start, end)
        layers = layer_metrics(
            totals, cycles,
            _client_layers(clicks, totals, cycles)
            | {
                "service.journal.file_bytes": _median(journal_bytes),
                "service.journal.replayed": _median(replayed),
                "service.journal.recover_s": _median(recover_s),
                "service.boot_s": _median(boot_s),
                "db.store.disk_bytes": _median(disk_bytes),
            },
        )
    return _result(
        spec, table.num_rows, gen_s, setups, clicks, cycles,
        cycle_cpu_s=round_cpu,
        peak_rss_mb=_median(rss),
        answers=[answer], tops=[top], f1s=[f1], layers=layers,
        wall={"resume_s": _median(resume_s)},
    )


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def _client_layers(clicks: Clicks, totals: dict, cycles: int) -> dict:
    """Client-side latency per command and what the gateway adds."""
    metrics = {
        f"service.client.{command}_p50_s": _median(clicks.samples.get(command, []))
        for command in CYCLE_COMMANDS
    }
    client_total = sum(sum(values) for values in clicks.samples.values())
    routed = totals.get("service.router.handle", {}).get("total", 0.0)
    metrics["service.async_server.self_s"] = (client_total - routed) / max(cycles, 1)
    return metrics


def _service_layers(clicks, totals, cycles, before, after) -> dict:
    metrics = _client_layers(clicks, totals, cycles)
    cpu = [b - a for a, b in zip(before["cpu"], after["cpu"])]
    for index, seconds in enumerate(cpu):
        metrics[f"service.workers.cpu_s.{index}"] = seconds / max(cycles, 1)
    metrics["service.workers.busy_share_max"] = max(cpu) / sum(cpu) if sum(cpu) else 0.0
    gateway = after["gateway"]
    metrics["service.async_server.shed"] = float(
        gateway.get("shed", 0) - before["gateway"].get("shed", 0)
    )
    metrics["service.async_server.max_inflight"] = float(gateway.get("max_inflight", 0))
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    metrics["core.preprocessor.cache_hit_rate"] = hits / lookups if lookups else 0.0
    appends = after["appends"] - before["appends"]
    metrics["service.journal.bytes_per_append"] = (
        (after["wchar"] - before["wchar"]) / appends if appends else 0.0
    )
    return metrics


#: Every per-layer metric, zero where the workload does not run the
#: layer (the in-process workloads never touch the service tier).
LAYER_DEFAULTS = dict.fromkeys(
    (
        *(f"service.client.{command}_p50_s" for command in CYCLE_COMMANDS),
        "service.async_server.self_s",
        "service.async_server.shed",
        "service.async_server.max_inflight",
        "service.workers.cpu_s.0",
        "service.workers.cpu_s.1",
        "service.workers.busy_share_max",
        "core.preprocessor.cache_hit_rate",
        "service.journal.bytes_per_append",
        "service.journal.file_bytes",
        "service.journal.replayed",
        "service.journal.recover_s",
        "service.boot_s",
        "db.store.disk_bytes",
    ),
    0.0,
)


def layer_metrics(totals: dict, cycles: int, service: dict) -> dict:
    """Per-layer metrics per analyst cycle from the window's spans."""
    cycles = max(cycles, 1)

    def seconds(name: str, key: str = "total") -> float:
        return totals.get(name, {}).get(key, 0.0) / cycles

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / cycles

    rules = totals.get("core.predicates.run", {}).get("count", 0)
    ranked = totals.get("core.ranker.run", {}).get("count", 0)
    debug_s = seconds("core.backend.debug")
    metrics = {
        "core.backend.debug_s": debug_s,
        "core.backend.unattributed_s": debug_s - sum(seconds(s) for s in tracing.STAGES),
        "core.preprocessor.run_s": seconds("core.preprocessor.run"),
        "core.enumerator.run_s": seconds("core.enumerator.run"),
        "core.enumerator.clean_s": seconds("core.enumerator.clean"),
        "learn.kmeans.mask_s": seconds("learn.kmeans.mask"),
        "learn.subgroup.fit_s": seconds("learn.subgroup.fit"),
        "learn.discretize.mdl_s": seconds("learn.discretize.mdl"),
        "learn.discretize.mdl_calls": calls("learn.discretize.mdl"),
        "learn.discretize.mdl_values": totals.get("learn.discretize.mdl", {}).get("count", 0)
        / cycles,
        "core.predicates.run_s": seconds("core.predicates.run"),
        "core.predicates.rules": rules / cycles,
        "learn.tree.fit_s": seconds("learn.tree.fit"),
        "learn.tree.fits": calls("learn.tree.fit"),
        "learn.tree.prune_s": seconds("learn.tree.prune"),
        "learn.split_index.build_s": seconds("learn.split_index.build"),
        "core.maskset.engine_s": seconds("core.maskset.engine"),
        "core.ranker.run_s": seconds("core.ranker.run"),
        "core.ranker.kept_ratio": ranked / rules if rules else 0.0,
        "db.executor.sql_s": seconds("db.executor.sql"),
        "db.executor.sql_calls": calls("db.executor.sql"),
        "service.router.self_s": seconds("service.router.handle", "self"),
        "service.workers.wait_s": seconds("service.workers.call")
        - seconds("service.handlers.dispatch"),
        "service.handlers.dispatch_s": seconds("service.handlers.dispatch"),
    }
    return {**LAYER_DEFAULTS, **metrics, **service}


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _result(
    spec, rows, gen_s, setups, clicks, cycles, *, cycle_cpu_s, peak_rss_mb,
    answers, tops, f1s, layers, cycles_per_s=None, wall=None,
) -> dict:
    """A pass's raw samples; :mod:`bench.runner` turns them into metrics."""
    top_f1_median = _median(f1s)
    return {
        "workload": spec.workload,
        "seed": spec.seed,
        "rows": rows,
        "gen_s": gen_s,
        "setup_cpu_s": [cpu for _, cpu in setups],
        "cycle_cpu_s": cycle_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "cycles": cycles,
        "wall": {
            "setup_s": _median([wall_s for wall_s, _ in setups]),
            "debug_p50_s": _median(clicks.samples.get("debug", [])),
            "edit_p50_s": _median(clicks.cycle_edit_wall),
            "cycles_per_s": clicks.rate() if cycles_per_s is None else cycles_per_s,
            **(wall or {}),
        },
        "layers": {**layers, "core.ranker.top_f1": top_f1_median} if layers else {},
        "top_f1": top_f1_median,
        "answers": answers,
        "tops": tops,
        "numpy": np.__version__,
    }


WORKLOADS = {
    "intel-warm": intel_warm,
    "intel-sweep": intel_sweep,
    "fec-served": fec_served,
    "fec-resume": fec_resume,
}


def run_pass(spec: Spec) -> dict:
    """One pass. ``recorder`` carries the in-process spans of a traced
    intel pass; the fec workloads trace inside the server processes."""
    recorder = None
    if spec.trace and spec.workload.startswith("intel"):
        recorder = tracing.Recorder()
        tracing.install(recorder)
    tally = Tally()
    result = WORKLOADS[spec.workload](spec, tally, recorder)
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    return result


def main(argv: list[str]) -> int:
    spec = Spec(**json.loads(argv[0]))
    result = run_pass(spec)
    Path(spec.result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
