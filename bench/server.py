"""The DBWipes server as a child process of the load generator.

``python -m bench.server [--trace-dir D] SERVE_ARGS...`` is a thin
launcher for ``repro.cli.serve_main``. It exists so that a traced run
can install the layer wrappers (:mod:`bench.tracing`) before the server
forks its workers, which inherit them. :class:`Server` starts it, reads
the bound port from its banner, and stops it with SIGINT, the way an
operator stops ``python -m repro serve``.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from . import ROOT

_BANNER = re.compile(rb"listening on [^:\s]+:(\d+)")
#: Seconds a server may take to boot or to shut down before the bench
#: gives up on it (and kills what is left).
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class Server:
    """One ``serve --async --workers 2`` over a durable data dir."""

    def __init__(self, data_dir: Path, log_path: Path, trace_dir: Path | None = None):
        self.data_dir = data_dir
        self.log_path = log_path
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> float:
        """Launch and wait for the listening banner; returns boot seconds."""
        command = [sys.executable, "-m", "bench.server"]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        command += [
            "serve", "--async", "--workers", "2", "--port", "0",
            "--data-dir", str(self.data_dir),
        ]
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, stdout=subprocess.PIPE, stderr=log
            )
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        match = _BANNER.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(
                f"server did not start: {line!r}; see {self.log_path}"
            )
        self.port = int(match.group(1))
        return time.perf_counter() - started

    def processes(self) -> list[int]:
        """The gateway pid followed by its live children (the workers)."""
        assert self.proc is not None
        pids = [self.proc.pid]
        try:
            for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
                pids += [int(pid) for pid in (task / "children").read_text().split()]
        except OSError:
            pass  # the gateway is exiting
        return pids

    def cpu_s(self) -> float:
        """CPU seconds the gateway and its workers have used so far."""
        total = 0.0
        for pid in self.processes():
            try:
                total += proc_cpu_s(pid)
            except OSError:
                pass  # exited between the listing and the read
        return total

    def stop(self) -> None:
        """SIGINT, wait, and make sure no server process outlives this."""
        if self.proc is None:
            return
        workers = self.processes()[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in workers:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.proc = None


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def proc_status_kb(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` field in kB (e.g. ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_wchar(pid: int) -> int:
    """Bytes ``pid`` has passed to write calls so far."""
    with open(f"/proc/{pid}/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise KeyError("wchar")


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] != ["serve"]:
        print("usage: python -m bench.server [--trace-dir D] serve ...", file=sys.stderr)
        return 2
    if trace_dir is not None:
        from .tracing import Recorder, install

        install(Recorder(flush_dir=trace_dir))
    from repro.cli import serve_main

    return serve_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
