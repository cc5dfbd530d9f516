"""Per-session command journals: the crash-recovery substrate.

Every state-mutating wire command a session executes is appended to a
per-session JSON-line journal under the durable data dir (PR 9), so a
session is fully described by its dataset plus the ordered command
list — the pipeline is deterministic, so replaying the journal on any
worker rebuilds byte-identical state. The first replayed ``debug``
recomputes its preprocessing from the reopened tables; every later
replayed ``debug`` that repeats its selection and D′ answers from the
stage memo on the cached ``PreprocessResult``, so it skips both
enumeration stages (see :mod:`repro.core.backend`).

The on-disk contract:

- **One line per command.** An append writes one checksummed line
  through ``os.open(path, O_WRONLY | O_APPEND)``, so a command's cost
  does not grow with the session (fec-served sessions reach about a
  thousand records in 24 s). A crash mid-write leaves at most a torn
  last line, which replay drops. The whole file is written to
  ``.{stem}.tmp-{pid}`` and ``os.replace``\\ d over the target only on
  ``create``, on ``publish`` (drain's repair), when the file is
  missing (the open has no ``O_CREAT``, so a deleted journal is never
  regrown as a headless fragment), and on the append after a failed or
  short write, which marks the journal dirty.
- **Corruption degrades, never errors.** Each record carries a
  blake2b checksum over its canonical JSON; replay stops at the first
  bad line and recovers the longest valid prefix. A corrupt journal
  yields a shorter session, not a crash loop.
- **Single writer by construction.** The router places each session
  on exactly one worker at a time, so a journal has one appender; the
  in-memory record list is authoritative and the file is its mirror
  (``publish`` re-mirrors it wholesale, which is also how drain
  repairs a journal that was corrupted on disk). A failover can leave
  an older copy of a session live on the worker it left. That copy is
  current only while the file is a prefix of its records (the same
  ``seq`` and ``crc`` for each, see :meth:`SessionJournal.holds`); once
  another worker has appended past it, the session manager drops it
  instead of serving or publishing it.
- **Recovery writes nothing until its replay ends.** A recovered
  session adopts the loaded records (:meth:`JournalStore.adopt`), so a
  worker that dies mid-replay leaves the file whole. Only a replay that
  dropped a corrupt tail or stopped early publishes, once, the prefix
  it kept.

Record 0 is always the ``open`` record naming the session and its
dataset; subsequent records are ``{"seq", "cmd", "args", "crc"}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from . import faults
from .protocol import jsonify

__all__ = [
    "JOURNALED_COMMANDS",
    "JournalStore",
    "LoadedJournal",
    "SessionJournal",
]

#: The state-mutating wire commands worth replaying. Read-only
#: commands (``sql``, ``result``, ``render``, ``snapshot``,
#: ``error_form``) are recomputed on demand and never journaled.
JOURNALED_COMMANDS = frozenset(
    {
        "execute",
        "select_results",
        "zoom",
        "select_inputs",
        "set_metric",
        "debug",
        "apply",
        "undo",
        "redo",
    }
)


def _digest(name: str) -> str:
    """A filesystem-safe stem for arbitrary session names."""
    return hashlib.blake2b(name.encode("utf-8"), digest_size=12).hexdigest()


def _crc(seq: int, cmd: str, args: dict) -> str:
    canonical = json.dumps(
        {"seq": seq, "cmd": cmd, "args": args}, sort_keys=True
    )
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


class LoadedJournal:
    """The replayable content of one journal file."""

    __slots__ = ("name", "dataset", "entries", "corrupt_records")

    def __init__(self, name, dataset, entries, corrupt_records):
        self.name = name
        self.dataset = dataset
        #: The valid record prefix as written, the open record first.
        self.entries = entries
        #: Lines dropped by the checksum/shape check (replay truncated).
        self.corrupt_records = corrupt_records

    @property
    def records(self) -> list[tuple[str, dict]]:
        """``(cmd, args)`` pairs in execution order (open record excluded)."""
        return [(entry["cmd"], entry["args"]) for entry in self.entries[1:]]


class SessionJournal:
    """One live session's record list plus its on-disk mirror."""

    __slots__ = ("store", "name", "dataset", "records", "dirty")

    def __init__(
        self, store: "JournalStore", name: str, dataset: str, entries=None
    ):
        self.store = store
        self.name = name
        self.dataset = dataset
        #: The file may not mirror ``records``: the last write failed.
        self.dirty = False
        if entries is not None:
            # Adopted from the file, which already holds them.
            self.records = list(entries)
            return
        args = {"name": name, "dataset": dataset}
        self.records = [{"seq": 0, "cmd": "open", "args": args}]
        self.records[0]["crc"] = _crc(0, "open", args)
        self.publish()

    def append(self, cmd: str, args: dict) -> None:
        args = jsonify(args if isinstance(args, dict) else {})
        seq = len(self.records)
        record = {"seq": seq, "cmd": cmd, "args": args, "crc": _crc(seq, cmd, args)}
        self.records.append(record)
        if self.dirty or not self.store.exists(self.name):
            self.publish()
        else:
            self.dirty = not self.store._append(self.name, record)

    def publish(self) -> None:
        """Rewrite the whole file from ``records`` (atomic rename)."""
        self.dirty = not self.store._publish(self.name, self.records)

    def truncate(self, length: int) -> None:
        """Keep the first ``length`` records and publish them."""
        del self.records[length:]
        self.publish()

    def holds(self, entries: list[dict]) -> bool:
        """Whether ``entries`` (a file's records) are a prefix of ours:
        the same ``seq`` and ``crc`` for each one."""
        return len(entries) <= len(self.records) and all(
            entry["seq"] == record["seq"] and entry["crc"] == record["crc"]
            for entry, record in zip(entries, self.records)
        )


class JournalStore:
    """All journals under one directory (``<data_dir>/journal``)."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._appends = 0
        self._publish_failures = 0
        self._corrupt_records = 0

    def path_for(self, name: str) -> Path:
        return self.directory / f"{_digest(name)}.jsonl"

    def create(self, name: str, dataset: str) -> SessionJournal:
        """A fresh journal for a (re)opened session — truncates any
        prior file: an explicit ``open`` starts a new history."""
        return SessionJournal(self, name, dataset)

    def adopt(self, loaded: LoadedJournal) -> SessionJournal:
        """The journal of a session recovered from ``loaded``: its
        records as read, with nothing written."""
        return SessionJournal(self, loaded.name, loaded.dataset, loaded.entries)

    @staticmethod
    def _line(name: str, record: dict, plan) -> str:
        if plan is not None and plan.corrupts_record(name, record["seq"]):
            # Scripted corruption: keep the line parseable but fail its
            # checksum, exercising the replay guard.
            record = {**record, "crc": "0" * 16}
        return json.dumps(record, sort_keys=True) + "\n"

    def _count(self, ok: bool) -> bool:
        with self._lock:
            if ok:
                self._appends += 1
            else:
                self._publish_failures += 1
        return ok

    def _append(self, name: str, record: dict) -> bool:
        """Append one record's line; False after a failed or short write."""
        data = self._line(name, record, faults.active_plan()).encode("utf-8")
        try:
            fd = os.open(self.path_for(name), os.O_WRONLY | os.O_APPEND)
            try:
                ok = os.write(fd, data) == len(data)
            finally:
                os.close(fd)
        except OSError:
            ok = False
        return self._count(ok)

    def _publish(self, name: str, records: list[dict]) -> bool:
        """Write every record to a staging file and rename it over the
        journal; False when that failed."""
        target = self.path_for(name)
        staging = target.parent / f".{target.stem}.tmp-{os.getpid()}"
        plan = faults.active_plan()
        try:
            staging.write_text("".join(self._line(name, r, plan) for r in records))
            os.replace(staging, target)
        except OSError:
            try:
                staging.unlink(missing_ok=True)
            except OSError:
                pass
            return self._count(False)
        return self._count(True)

    def peek(self, name: str) -> str | None:
        """The dataset a journaled session belongs to, or ``None``."""
        loaded = self.load(name)
        return loaded.dataset if loaded is not None else None

    def load(self, name: str) -> LoadedJournal | None:
        """Parse a journal, keeping the longest valid record prefix."""
        try:
            text = self.path_for(name).read_text()
        except OSError:
            return None
        entries: list[dict] = []
        dataset = None
        corrupt = 0
        for expected_seq, line in enumerate(text.splitlines()):
            record = self._parse_record(line, expected_seq)
            if record is None:
                corrupt = 1
                break
            if expected_seq == 0:
                if record["cmd"] != "open" or record["args"].get("name") != name:
                    return None
                dataset = record["args"].get("dataset")
            entries.append(record)
        if dataset is None:
            return None
        if corrupt:
            with self._lock:
                self._corrupt_records += 1
        return LoadedJournal(name, dataset, entries, corrupt)

    @staticmethod
    def _parse_record(line: str, expected_seq: int) -> dict | None:
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict):
            return None
        seq, cmd, args = record.get("seq"), record.get("cmd"), record.get("args")
        if seq != expected_seq or not isinstance(cmd, str):
            return None
        if not isinstance(args, dict):
            return None
        if record.get("crc") != _crc(seq, cmd, args):
            return None
        return record

    def exists(self, name: str) -> bool:
        return self.path_for(name).exists()

    def discard(self, name: str) -> None:
        """Forget a closed session's history (close is deliberate)."""
        try:
            self.path_for(name).unlink(missing_ok=True)
        except OSError:
            pass

    def sessions(self) -> int:
        """How many journal files exist right now."""
        return sum(1 for _ in self.directory.glob("*.jsonl"))

    def stats(self) -> dict:
        with self._lock:
            return {
                "directory": str(self.directory),
                "sessions": self.sessions(),
                "appends": self._appends,
                "publish_failures": self._publish_failures,
                "corrupt_records": self._corrupt_records,
            }
