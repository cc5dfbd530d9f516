"""Durable preprocess artifacts: ``PreprocessResult`` on disk.

Preprocessing is the expensive, shareable prefix of every ``debug()``
(provenance gather, leave-one-out influence, per-group value slices —
all arrays). This module serializes a :class:`PreprocessResult` into a
single ``.npz`` per request identity so a *restarted* server can answer
its first ``debug()`` from disk instead of recomputing, byte-identical
to the pre-restart answer.

Identity, not location: the artifact key (:func:`artifact_key`) is a
digest over the base table's *content digest* plus the query text, the
selection S, the metric spec, and the debugged aggregate. Nothing in the
key depends on process ids, object identity, or file paths, so any
process serving the same logical data — the in-process server, each of
``--workers N`` forked workers — resolves the same request to the same
artifact file.

Fork/concurrency safety (the PR's single-writer rule): writers stage
into a per-pid hidden temp file in the artifact directory and publish
with ``os.replace`` — atomic on POSIX, so readers never see a partial
file; a writer that finds the artifact already published skips its own
write entirely, so N forked workers racing on a cold cache produce one
file and zero clobbers.

Only metrics expressible as a :func:`~repro.core.error_metrics.metric_spec`
(the built-in error-form metrics) are persisted; custom
:class:`~repro.core.error_metrics.ErrorMetric` subclasses simply stay
memory-only — :func:`artifact_key` returns ``None`` and the cache skips
the disk tier for them.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..db.aggregates import get_aggregate
from ..db.result import ResultSet
from ..db.schema import Column, Schema
from ..db.table import Table
from ..db.types import ColumnType, dict_decode, dict_encode
from .error_metrics import ErrorMetric, metric_from_spec, metric_spec
from .influence import GroupInfluence, InfluenceResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .preprocessor import PreprocessResult

#: Serialization format version; part of every artifact key, so a format
#: change silently invalidates old artifacts instead of misreading them.
ARTIFACT_FORMAT = 1


def artifact_key(
    result: ResultSet,
    selected_rows: Sequence[int],
    metric: ErrorMetric,
    agg_name: str | None,
) -> str | None:
    """Cross-process identity of a preprocess request, or ``None``.

    The durable analogue of ``preprocess_key``: where the in-memory key
    anchors on the table *object* (identity within one process), this
    one anchors on the table's content digest so it survives restarts
    and matches across workers. ``None`` means the request cannot be
    persisted (custom metric) and should bypass the disk tier.
    """
    spec = metric_spec(metric)
    if spec is None:
        return None
    h = hashlib.blake2b(digest_size=16)
    for part in (
        f"v{ARTIFACT_FORMAT}",
        result.source.content_digest(),
        result.statement.to_sql(),
        json.dumps([int(r) for r in selected_rows]),
        json.dumps(spec, sort_keys=True),
        str(agg_name),
    ):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


class ArtifactStore:
    """A directory of ``<key>.npz`` preprocess artifacts."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._saves = 0
        self._loads = 0
        self._load_failures = 0

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def has(self, key: str) -> bool:
        return self.path(key).exists()

    def save(self, key: str, pre: "PreprocessResult") -> bool:
        """Persist an artifact; returns whether a new file was published.

        First writer wins: if the artifact already exists (another
        worker got there first — keys are content-addressed, so the
        bytes are equivalent) this is a no-op.
        """
        target = self.path(key)
        if target.exists():
            return False
        self.directory.mkdir(parents=True, exist_ok=True)
        staging = self.directory / f".{key}.tmp-{os.getpid()}.npz"
        arrays = _serialize(pre)
        try:
            with staging.open("wb") as handle:
                np.savez(handle, **arrays)
            os.replace(staging, target)
        finally:
            if staging.exists():  # pragma: no cover - error path
                staging.unlink()
        self._saves += 1
        return True

    def load(self, key: str) -> "PreprocessResult | None":
        """Load an artifact by key; ``None`` on miss or unreadable file.

        A corrupt/partial/foreign file is treated as a miss (the caller
        recomputes and may rewrite) rather than an error — durability is
        an optimization, never a correctness dependency.
        """
        target = self.path(key)
        if not target.exists():
            return None
        try:
            with np.load(target, allow_pickle=False) as bundle:
                pre = _deserialize(bundle)
        except Exception:
            self._load_failures += 1
            return None
        self._loads += 1
        return pre

    def keys(self) -> list[str]:
        if not self.directory.exists():
            return []
        return sorted(p.stem for p in self.directory.glob("*.npz"))

    def stats(self) -> dict:
        return {
            "dir": str(self.directory),
            "entries": len(self.keys()),
            "saves": self._saves,
            "loads": self._loads,
            "load_failures": self._load_failures,
        }


def _serialize(pre: "PreprocessResult") -> dict[str, np.ndarray]:
    F = pre.F
    schema = F.schema
    str_values: dict[str, list[str]] = {}
    arrays: dict[str, np.ndarray] = {}
    for i, column in enumerate(schema):
        array = F.column(column.name)
        if column.ctype is ColumnType.STR:
            codes, values = dict_encode(array)
            str_values[column.name] = values
            array = codes
        arrays[f"fcol_{i}"] = np.ascontiguousarray(array)
    arrays["f_tids"] = np.ascontiguousarray(F.tids)
    arrays["inf_tids"] = np.asarray(pre.influence.tids, dtype=np.int64)
    arrays["inf_scores"] = np.asarray(pre.influence.scores, dtype=np.float64)
    for i, (values, tids) in enumerate(zip(pre.group_values, pre.group_tids)):
        arrays[f"gv_{i}"] = np.asarray(values, dtype=np.float64)
        arrays[f"gt_{i}"] = np.asarray(tids, dtype=np.int64)
    for i, group in enumerate(pre.influence.groups):
        arrays[f"gloo_{i}"] = np.asarray(group.loo_values, dtype=np.float64)
        arrays[f"ginf_{i}"] = np.asarray(group.influence, dtype=np.float64)
    meta = {
        "format": ARTIFACT_FORMAT,
        "f_name": F.name,
        "f_schema": [[c.name, c.ctype.value] for c in schema],
        "f_str": str_values,
        "selected_rows": [int(r) for r in pre.selected_rows],
        "agg_name": pre.agg_name,
        "aggregate": pre.aggregate.name,
        "metric": metric_spec(pre.metric),
        "epsilon": float(pre.influence.epsilon),
        "n_groups": len(pre.group_values),
        "groups": [
            {"row": int(g.row), "group_value": float(g.group_value)}
            for g in pre.influence.groups
        ],
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    return arrays


def _deserialize(bundle) -> "PreprocessResult":
    from .preprocessor import PreprocessResult

    meta = json.loads(bytes(bundle["meta"]).decode("utf-8"))
    if meta.get("format") != ARTIFACT_FORMAT:
        raise ValueError(f"unsupported artifact format {meta.get('format')!r}")
    schema = Schema(
        [Column(name, ColumnType(value)) for name, value in meta["f_schema"]]
    )
    columns: dict[str, np.ndarray] = {}
    for i, column in enumerate(schema):
        array = bundle[f"fcol_{i}"]
        if column.ctype is ColumnType.STR:
            array = dict_decode(array, meta["f_str"][column.name])
        columns[column.name] = array
    F = Table(schema, columns, tids=bundle["f_tids"], name=meta["f_name"])
    n_groups = int(meta["n_groups"])
    group_values = tuple(bundle[f"gv_{i}"] for i in range(n_groups))
    group_tids = tuple(bundle[f"gt_{i}"] for i in range(n_groups))
    groups = tuple(
        GroupInfluence(
            row=int(spec["row"]),
            tids=group_tids[i],
            values=group_values[i],
            loo_values=bundle[f"gloo_{i}"],
            influence=bundle[f"ginf_{i}"],
            group_value=float(spec["group_value"]),
        )
        for i, spec in enumerate(meta["groups"])
    )
    influence = InfluenceResult(
        tids=bundle["inf_tids"],
        scores=bundle["inf_scores"],
        epsilon=float(meta["epsilon"]),
        groups=groups,
    )
    return PreprocessResult(
        F=F,
        influence=influence,
        selected_rows=tuple(meta["selected_rows"]),
        metric=metric_from_spec(meta["metric"]),
        agg_name=meta["agg_name"],
        aggregate=get_aggregate(meta["aggregate"]),
        group_values=group_values,
        group_tids=group_tids,
    )
