"""The conference-demo driver: ``python -m repro``.

The paper's §3 invites attendees to "explore anomalies in campaign
donations ... and in readings from a 54-node sensor deployment", with
provided bootstrap queries. This CLI is that experience in a terminal:

* ``python -m repro fec`` / ``python -m repro intel`` — start a private
  loopback server in this process, open session ``demo`` on the
  dataset, run its bootstrap query and start the interactive loop (the
  ``connect`` shell below; ``REPRO_DATA_DIR`` makes the catalog durable,
  as for ``serve``);
* ``python -m repro fec --script`` — run the full §3.2 walkthrough
  non-interactively (useful for demos, docs, and tests);
* ``python -m repro serve`` — boot the multi-session TCP service, an
  admission-controlled asyncio gateway (options: ``--host``,
  ``--port``, ``--max-sessions``, ``--ttl``, ``--workers``,
  ``--data-dir`` for the durable storage tier, ``--slow-threshold``,
  ``--max-inflight`` (a count, or ``auto`` to self-tune),
  ``--max-queue``, ``--rate``, ``--burst``);
* ``python -m repro store`` — manage the durable columnar tier:
  ``store import <dataset> --data-dir D`` persists a demo dataset as
  table directories of one memory-mapped ``.npy`` file per column;
  ``store inspect --data-dir D`` prints the layout from the manifests
  alone;
* ``python -m repro connect`` — the same interactive loop against a
  running server (``--host``, ``--port``, ``--session``,
  ``--dataset``, ``--script``);
* ``python -m repro metrics`` — cluster-merged telemetry from a running
  server, Prometheus text by default (``--host``, ``--port``,
  ``--json``);
* ``python -m repro drain`` — rolling-restart one worker of a running
  routed server: ``drain --worker N [--deadline S] [--restart]
  [--host H] [--port P]`` drains in-flight work, flushes journals,
  hands sessions to replicas, and optionally restarts the process.

Interactive commands mirror the dashboard's controls; each is one
request to the server::

    sql <query>         run a new aggregate query
    show                render the current scatterplot
    select y> <v>       brush results with y above v   (also: y<, x=, row <i>)
    zoom                zoom into the selected results' input tuples
    inputs y> <v>       brush zoomed tuples as D' (also: y<, x=, row <tid>)
    forms               list error-metric options for the debugged aggregate
    metric <id> [v]     pick the error metric (threshold/expected = v)
    debug               compute ranked predicates
    apply <rank>        click a predicate: rewrite the query and re-execute
    undo / redo         undo / redo the last cleaning
    query               print the current SQL
    snapshot            print the session's state
    stats               print the server's counters
    metrics             print the server's telemetry (Prometheus text)
    trace [id]          print the span tree of the last (or given) request
    help                this text
    quit                leave
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterable, Iterator, TextIO

from .errors import ReproError

#: Scripted walkthroughs replaying §3.2 (fec) and Figures 4-6 (intel).
SCRIPTS = {
    "fec": [
        "show",
        "select y< 0",
        "zoom",
        "inputs y< 0",
        "forms",
        "metric too_low 0",
        "debug",
        "apply 1",
        "show",
        "query",
    ],
    "intel": [
        "show",
        "select y> 7 std_temp",
        "zoom",
        "inputs y> 100",
        "forms",
        "metric too_high",
        "debug",
        "apply 1",
        "query",
    ],
}

#: The brush bounds each shell brush sets to its value.
_BRUSH_BOUNDS = {"y>": ("y0",), "y<": ("y1",), "x=": ("x0", "x1")}


def _text(value, spec: str = ".4g") -> str:
    """A payload value as text; the wire carries NaN and ±inf as ``null``."""
    if value is None:
        return "NULL"
    return format(value, spec) if isinstance(value, float) else str(value)


class Shell:
    """The demo's line commands over a :class:`~repro.service.ServiceClient`.

    Every command line is one wire request, so ``python -m repro
    fec|intel`` (a private in-process server) and ``connect`` (a running
    one) validate and answer alike.
    """

    def __init__(self, client, out: TextIO | None = None):
        self.client = client
        self.out = out or sys.stdout
        self._debug_agg: str | None = None

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    # -- command dispatch ------------------------------------------------

    def run_line(self, line: str) -> bool:
        """Execute one command line; returns False when asked to quit."""
        line = line.strip()
        if not line or line.startswith("#"):
            return True
        parts = line.split()
        name, args = parts[0].lower(), parts[1:]
        if name in ("quit", "exit"):
            return False
        handler = getattr(self, f"_cmd_{name}", None)
        if handler is None:
            self._print(f"unknown command {name!r}; try 'help'")
            return True
        try:
            handler(args)
        except (ReproError, ValueError) as error:
            # ValueError: a number argument that does not parse.
            self._print(f"error: {error}")
        return True

    def run(self, lines: Iterable[str], echo: bool = True) -> None:
        """Run a sequence of command lines (the --script mode)."""
        for line in lines:
            if echo:
                self._print(f"dbwipes> {line}")
            if not self.run_line(line):
                break

    def repl(self, stdin: TextIO | None = None) -> None:
        """Read commands until EOF or ``quit``."""
        stdin = stdin or sys.stdin
        while True:
            self.out.write("dbwipes> ")
            self.out.flush()
            line = stdin.readline()
            if not line:
                break
            if not self.run_line(line):
                break

    @staticmethod
    def _parse_brush(args: list[str], keys: str) -> tuple[dict, list[str]]:
        """``y> 5`` / ``y< 0`` / ``x= 3`` / ``row 1 2 3`` as the wire
        selection: ``{"brush": {...}}``, or ``{keys: [...]}``."""
        if not args:
            raise ReproError("selection needs an argument; e.g. 'select y> 10'")
        head = args[0]
        if head == "row":
            return {keys: [int(a) for a in args[1:]]}, []
        if head in _BRUSH_BOUNDS and len(args) >= 2:
            value = float(args[1])
            return {"brush": dict.fromkeys(_BRUSH_BOUNDS[head], value)}, args[2:]
        raise ReproError(f"cannot parse selection {' '.join(args)!r}")

    # -- commands ----------------------------------------------------------

    def _cmd_help(self, args: list[str]) -> None:
        self._print(__doc__ or "")

    def _cmd_sql(self, args: list[str]) -> None:
        result = self.client.execute(" ".join(args), max_rows=8)
        self._debug_agg = None
        self._print(f"{result['num_rows']} rows")
        for row in [result["columns"], *result["rows"]]:
            self._print("  " + "  ".join(_text(value) for value in row))
        hidden = result["num_rows"] - len(result["rows"])
        if hidden:
            self._print(f"... ({hidden} more rows)")

    def _cmd_show(self, args: list[str]) -> None:
        y = args[0] if args else None
        self._print(self.client.render(height=14, y=y))

    def _cmd_select(self, args: list[str]) -> None:
        selection, rest = self._parse_brush(args, "rows")
        y_axis = rest[0] if rest else None
        if y_axis:
            self._debug_agg = y_axis
        rows = self.client.select_results(y=y_axis, **selection)
        self._print(f"selected {len(rows)} suspicious results: {rows[:12]}")

    def _cmd_zoom(self, args: list[str]) -> None:
        scatter = self.client.zoom(max_points=0)
        self._print(
            f"zoomed into {scatter['n']} input tuples "
            f"(x: {scatter['x_label']}, y: {scatter['y_label']})"
        )

    def _cmd_inputs(self, args: list[str]) -> None:
        selection, __ = self._parse_brush(args, "tids")
        tids = self.client.select_inputs(**selection)
        self._print(f"selected {len(tids)} suspicious inputs as D'")

    def _cmd_forms(self, args: list[str]) -> None:
        for option in self.client.error_form(self._debug_agg):
            defaults = f"  (default {option['defaults']})" if option["defaults"] else ""
            self._print(f"  {option['form_id']:10s} {option['label']}{defaults}")

    def _cmd_metric(self, args: list[str]) -> None:
        if not args:
            self._print("usage: metric <form_id> [value]")
            return
        form_id = args[0]
        params = {}
        if len(args) > 1:
            key = "expected" if form_id == "not_equal" else "threshold"
            params[key] = float(args[1])
        metric = self.client.set_metric(form_id, agg=self._debug_agg, **params)
        self._print(f"metric: {metric}")

    def _cmd_debug(self, args: list[str]) -> None:
        report = self.client.debug(self._debug_agg, max_rows=8)
        self._print(f"Ranked predicates — {report['metric']}")
        self._print(
            f"S = {report['selected_rows']}, |F| = {report['n_inputs']}, "
            f"|D'| = {report['n_dprime']}, candidates = {report['n_candidates']}, "
            f"eps = {_text(report['epsilon'])}"
        )
        self._print("-" * 72)
        if not report["predicates"]:
            self._print("(no predicates found)")
        for rank, ranked in enumerate(report["predicates"], start=1):
            before, reduction = ranked["epsilon_before"], ranked["error_reduction"]
            relative = 0.0
            if before and before > 0 and reduction is not None:
                relative = reduction / before
            self._print(
                f"{rank:2d}. {ranked['predicate']}  "
                f"[score={_text(ranked['score'], '.3f')} "
                f"Δε={_text(reduction, '.3g')} ({100 * relative:.0f}%) "
                f"f1={_text(ranked['accuracy'], '.2f')} "
                f"terms={ranked['complexity']}]"
            )
        hidden = report["n_predicates"] - len(report["predicates"])
        if hidden:
            self._print(f"... ({hidden} more)")

    def _cmd_apply(self, args: list[str]) -> None:
        rank = int(args[0]) if args else 1
        applied = self.client.apply(rank - 1, max_rows=0)
        self._print(f"applied: NOT ({applied['applied']})")
        self._print(f"{applied['result']['num_rows']} rows after cleaning")

    def _cmd_undo(self, args: list[str]) -> None:
        self.client.undo(max_rows=0)
        self._print("undone")

    def _cmd_redo(self, args: list[str]) -> None:
        self.client.redo(max_rows=0)
        self._print("redone")

    def _cmd_query(self, args: list[str]) -> None:
        self._print(self.client.sql())

    def _cmd_snapshot(self, args: list[str]) -> None:
        for key, value in self.client.snapshot().items():
            self._print(f"  {key}: {value}")

    def _cmd_stats(self, args: list[str]) -> None:
        for key, value in self.client.stats().items():
            self._print(f"  {key}: {value}")

    def _cmd_metrics(self, args: list[str]) -> None:
        from .obs import render_prometheus

        result = self.client.metrics()
        self._print(render_prometheus(result["merged"]).rstrip())

    def _cmd_trace(self, args: list[str]) -> None:
        from .obs import render_tree

        trace_id = args[0] if args else self.client.last_trace
        result = self.client.trace(trace_id)
        if not result.get("trace_id"):
            self._print("no trace recorded yet; run a command first")
            return
        self._print(f"trace {result['trace_id']}")
        self._print(render_tree(result["tree"]).rstrip())


def _flag_value(argv: list[str], name: str, default: str) -> str:
    """The value of ``--name value`` in argv (last one wins)."""
    value = default
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            value = argv[i + 1]
    return value


#: Each verb's flags that take a value, and its switches (``serve``
#: accepts and ignores ``--async``); any other argument is an error.
_VERB_FLAGS = {
    "serve": ({
        "--host", "--port", "--max-sessions", "--ttl", "--workers",
        "--data-dir", "--slow-threshold", "--max-inflight", "--max-queue",
        "--rate", "--burst",
    }, {"--async"}),
    "store": ({"--data-dir"}, set()),
    "connect": ({"--host", "--port", "--session", "--dataset"}, {"--script"}),
    "metrics": ({"--host", "--port"}, {"--json"}),
    "drain": ({"--host", "--port", "--worker", "--deadline"}, {"--restart"}),
}

#: Any other verb names a dataset (``fec``, ``intel``): only ``--script``.
_DEMO_FLAGS = (set(), {"--script"})


def _check_flags(verb: str, argv: list[str]) -> None:
    """Reject an unknown ``verb`` argument or a value flag with no value."""
    values, switches = _VERB_FLAGS.get(verb, _DEMO_FLAGS)
    i = 0
    while i < len(argv):
        if argv[i] in switches:
            i += 1
        elif argv[i] not in values:
            raise ValueError(f"unknown {verb} argument {argv[i]!r}")
        elif i + 1 == len(argv):
            raise ValueError(f"{argv[i]} needs a value")
        else:
            i += 2


def serve_main(argv: list[str]) -> int:
    """``python -m repro serve`` — boot the multi-session service.

    ``--workers N`` (N >= 1) serves from N worker processes behind the
    dataset-hash router instead of one in-process session manager.
    ``--slow-threshold S`` marks requests slower than S seconds in the
    slow-request log (exported via the env so workers inherit it).
    ``--data-dir D`` makes the catalog durable: datasets persist as
    memory-mapped table directories and sessions as journals under D,
    so a restarted server reopens its tables instead of regenerating
    them (exported via ``REPRO_DATA_DIR`` so workers inherit it).

    The server is the asyncio gateway: admission control
    (``--max-inflight`` / ``--max-queue``, shedding excess load with
    ``ServerBusy`` + ``retry_after``) and per-connection token-bucket
    rate limiting (``--rate`` / ``--burst`` heavy commands per second).
    ``--async`` is accepted and ignored, because scripts such as the
    ``bench/`` launcher pass it. An unknown argument, or a value flag
    given last, is an error before anything boots.
    """
    import os

    from .obs import set_slow_threshold
    from .service import DBWipesServer
    from .service.cache import DATA_DIR_ENV

    try:
        _check_flags("serve", argv)
        host = _flag_value(argv, "--host", "127.0.0.1")
        port = int(_flag_value(argv, "--port", "8642"))
        max_sessions = int(_flag_value(argv, "--max-sessions", "64"))
        ttl = _flag_value(argv, "--ttl", "")
        workers = int(_flag_value(argv, "--workers", "0"))
        data_dir = _flag_value(argv, "--data-dir", "")
        slow = _flag_value(argv, "--slow-threshold", "")
        inflight_raw = _flag_value(argv, "--max-inflight", "auto")
        max_inflight = None if inflight_raw == "auto" else int(inflight_raw)
        max_queue = int(_flag_value(argv, "--max-queue", "32"))
        rate = _flag_value(argv, "--rate", "")
        burst = _flag_value(argv, "--burst", "")
        if slow:
            # Refuses a negative or NaN value before anything is exported.
            set_slow_threshold(float(slow))
            # Via the environment so ``spawn``-started workers (which
            # re-import everything) see the same threshold.
            os.environ["REPRO_SLOW_REQUEST_SECONDS"] = str(float(slow))
        if data_dir:
            # Same idiom: every catalog built after this point — the
            # in-process one, or each forked worker's own — resolves the
            # durable root from the environment.
            os.environ[DATA_DIR_ENV] = data_dir
        # The server checks every limit before it binds or spawns.
        server = DBWipesServer(
            host=host,
            port=port,
            workers=workers,
            max_sessions=max_sessions,
            ttl_seconds=float(ttl) if ttl else None,
            max_inflight=max_inflight,
            max_queue=max_queue,
            rate=float(rate) if rate else None,
            burst=float(burst) if burst else None,
        )
        datasets = (
            "per-worker demo catalogs"
            if server.manager is None
            else f"datasets: {', '.join(server.manager.catalog.names)}"
        )
        server.start()  # binds the port; the loop runs in a thread
    except (ReproError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    bound_host, bound_port = server.address
    tier = f"{workers} workers" if workers > 0 else "in-process"
    if data_dir:
        tier += f", data_dir={data_dir}"
    print(
        f"dbwipes service listening on {bound_host}:{bound_port} "
        f"(async gateway, max_inflight={inflight_raw}, max_queue={max_queue}, "
        f"{tier}, {datasets})",
        flush=True,
    )
    try:
        server.join()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.stop()
    return 0


def store_main(argv: list[str]) -> int:
    """``python -m repro store`` — manage the durable columnar tier.

    * ``store import <dataset> [--data-dir D]`` — build a demo dataset
      and persist it as table directories, one memory-mapped ``.npy``
      file per column (idempotent: an existing persisted copy is kept);
    * ``store inspect [--data-dir D]`` — print the durable layout as
      JSON, reading only the manifests (no table data is touched).

    ``--data-dir`` falls back to ``REPRO_DATA_DIR`` when omitted.
    """
    import json

    from .errors import StorageError
    from .service.cache import DatasetCatalog

    if not argv or argv[0] in ("-h", "--help"):
        print(store_main.__doc__)
        return 0
    action = argv[0]
    data_dir = _flag_value(argv, "--data-dir", "") or None
    try:
        if action == "import" and (len(argv) < 2 or argv[1].startswith("--")):
            raise ReproError("usage: store import <dataset> [--data-dir D]")
        # The action and an import's dataset are positional.
        _check_flags("store", argv[2 if action == "import" else 1 :])
        catalog = DatasetCatalog.with_demo_datasets(data_dir=data_dir)
        if action == "import":
            db, created = catalog.import_dataset(argv[1])
            verb = "imported" if created else "already persisted"
            tables = ", ".join(
                f"{t}({db.table(t).num_rows} rows)" for t in db.table_names
            )
            print(f"{verb} {argv[1]!r} under {catalog.data_dir}: {tables}")
        elif action == "inspect":
            if catalog.data_dir is None:
                raise StorageError(
                    "inspect needs a data dir (--data-dir or REPRO_DATA_DIR)"
                )
            print(json.dumps(catalog.storage_info(), indent=2))
        else:
            raise ReproError(
                f"unknown store action {action!r}; try 'import' or 'inspect'"
            )
    except (ReproError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _reach(host: str, port: int, session: str | None = None):
    """A client whose server answered ``ping``; None, reason printed, if not."""
    from .service import ServiceClient

    client = ServiceClient(host, port, session=session)
    try:
        client.ping()
    except ReproError as error:
        client.close()
        print(f"error: cannot reach {host}:{port}: {error}", file=sys.stderr)
        return None
    return client


def _drive(client, dataset: str, scripted: bool) -> int:
    """Open ``dataset``, run its bootstrap query, then the script or the
    prompt; ``connect`` and ``python -m repro fec|intel`` share it."""
    try:
        opened = client.open(dataset)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    shell = Shell(client)
    bootstrap = opened.get("bootstrap")
    print(f"Joined session {client.session!r} on dataset {dataset!r}.")
    if bootstrap:
        print(f"  {bootstrap}")
        shell.run_line(f"sql {bootstrap}")
    if scripted:
        shell.run(SCRIPTS.get(dataset, ()))
        return 0
    print("Type 'help' for commands.")
    shell.repl()
    return 0


def connect_main(argv: list[str]) -> int:
    """``python -m repro connect`` — the demo shell over a live socket."""
    try:
        _check_flags("connect", argv)
        host = _flag_value(argv, "--host", "127.0.0.1")
        port = int(_flag_value(argv, "--port", "8642"))
        session = _flag_value(argv, "--session", "demo")
        dataset = _flag_value(argv, "--dataset", "fec")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    client = _reach(host, port, session)
    if client is None:
        return 2
    try:
        return _drive(client, dataset, "--script" in argv)
    finally:
        client.close()


@contextmanager
def loopback_client(manager=None) -> Iterator:
    """A client, as session ``demo``, of a private in-process server on a
    free loopback port.

    ``manager`` defaults to the server's own
    :class:`~repro.service.SessionManager` over the demo datasets.
    """
    from .service import DBWipesServer, ServiceClient

    server = DBWipesServer(manager, port=0)
    server.start()
    client = ServiceClient(*server.address, session="demo")
    try:
        yield client
    finally:
        client.close()
        server.stop()


def demo_main(dataset: str, argv: list[str]) -> int:
    """``python -m repro fec|intel`` — the ``connect`` shell against a
    private loopback server, as session ``demo``."""
    try:
        _check_flags(dataset, argv)
        with loopback_client() as client:
            return _drive(client, dataset, "--script" in argv)
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def metrics_main(argv: list[str]) -> int:
    """``python -m repro metrics`` — scrape a running service.

    Prints the cluster-merged registry (front end + every worker,
    counters summed and histograms merged bucket-wise) in Prometheus
    text exposition format, or as the raw JSON snapshot with
    ``--json``. Slow-request records, if any, follow as a comment
    block so a terminal scrape surfaces them without extra flags.
    """
    import json

    from .obs import render_prometheus

    try:
        _check_flags("metrics", argv)
        host = _flag_value(argv, "--host", "127.0.0.1")
        port = int(_flag_value(argv, "--port", "8642"))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    client = _reach(host, port)
    if client is None:
        return 2
    try:
        result = client.metrics()
    except ReproError as error:
        print(f"error: cannot scrape {host}:{port}: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()
    if "--json" in argv:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    print(render_prometheus(result["merged"]).rstrip())
    slow = result.get("slow_requests") or []
    if slow:
        print(f"# {len(slow)} slow request(s):")
        for record in slow:
            print(
                f"#   cmd={record.get('cmd')} seconds={record.get('seconds')} "
                f"trace={record.get('trace_id')}"
            )
    return 0


def drain_main(argv: list[str]) -> int:
    """``python -m repro drain`` — rolling-restart one worker.

    ``drain --worker N [--deadline S] [--restart] [--host H] [--port P]``
    stops new-session placement on worker N, waits out its in-flight
    requests (bounded by ``--deadline`` seconds, default 5), flushes
    every live session's journal, hands its placements to replicas by
    replay, and with ``--restart`` swaps in a fresh process and
    re-admits it. Prints the JSON summary the router returns.
    """
    import json

    try:
        _check_flags("drain", argv)
        host = _flag_value(argv, "--host", "127.0.0.1")
        port = int(_flag_value(argv, "--port", "8642"))
        worker = int(_flag_value(argv, "--worker", "0"))
        deadline = float(_flag_value(argv, "--deadline", "5"))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    restart = "--restart" in argv
    client = _reach(host, port)
    if client is None:
        return 2
    try:
        summary = client.drain(worker, deadline=deadline, restart=restart)
    except ReproError as error:
        print(f"error: cannot drain worker {worker}: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    verbs = {
        "serve": serve_main,
        "store": store_main,
        "connect": connect_main,
        "metrics": metrics_main,
        "drain": drain_main,
    }
    if argv[0] in verbs:
        return verbs[argv[0]](argv[1:])
    return demo_main(argv[0], argv[1:])
