"""Provenance capture for query execution.

The paper distinguishes *coarse-grained* provenance (the operator graph
that produced a result) from *fine-grained* provenance (the input tuples
behind each output row). DBWipes needs fine-grained provenance as the raw
material for ranked provenance: the Preprocessor's first step is
"compute F, the set of input tuples that generated S".

:class:`FineProvenance` maps each output row of a query to the tids of
the input tuples that fed it, and keeps a handle on the post-WHERE base
table so those tids can be dereferenced to values without re-running the
query. :class:`CoarseProvenance` records the operator pipeline — it is
deliberately uninformative for aggregate debugging, which is exactly the
limitation the paper's introduction calls out (every input flows through
the same operators), and the baseline benchmarks exercise it as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import ProvenanceError
from .table import Table


@dataclass(frozen=True)
class OpNode:
    """One operator in the coarse-grained provenance graph."""

    op: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.op}({self.detail})" if self.detail else self.op


@dataclass(frozen=True)
class CoarseProvenance:
    """The linear operator pipeline that produced a result set."""

    nodes: tuple[OpNode, ...] = field(default_factory=tuple)

    def describe(self) -> str:
        """Human-readable pipeline, e.g. ``scan -> filter -> groupby -> aggregate``."""
        return " -> ".join(str(node) for node in self.nodes)


class FineProvenance:
    """Fine-grained lineage: output row index -> input tuple ids.

    ``base`` is the table *after* the WHERE clause was applied (tids are
    preserved from the source table), so every recorded tid can be
    dereferenced against it.
    """

    def __init__(self, base: Table, lineage: Sequence[np.ndarray]):
        self._base = base
        self._lineage = [np.asarray(tids, dtype=np.int64) for tids in lineage]

    @property
    def base(self) -> Table:
        """The post-WHERE input table the lineage tids point into."""
        return self._base

    @property
    def num_rows(self) -> int:
        """Number of output rows with recorded lineage."""
        return len(self._lineage)

    def lineage(self, row: int) -> np.ndarray:
        """Tids of the input tuples behind output row ``row``."""
        if row < 0 or row >= len(self._lineage):
            raise ProvenanceError(f"no lineage recorded for output row {row}")
        return self._lineage[row]

    def lineage_many(self, rows: Iterable[int]) -> np.ndarray:
        """Union (concatenation, deduplicated) of lineage for several rows."""
        parts = [self.lineage(row) for row in rows]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def lineage_table(self, row: int) -> Table:
        """The input tuples behind output row ``row`` as a table."""
        return self._base.take_tids(self.lineage(row))

    def lineage_table_many(self, rows: Iterable[int]) -> Table:
        """The union of input tuples behind several output rows as a table."""
        return self._base.take_tids(self.lineage_many(rows))

    def all_tids(self) -> np.ndarray:
        """Every tid that contributed to any output row."""
        return self.lineage_many(range(len(self._lineage)))

    def reorder(self, positions: Sequence[int]) -> "FineProvenance":
        """Lineage re-indexed after the output rows were reordered/filtered."""
        return FineProvenance(self._base, [self._lineage[p] for p in positions])

    def sizes(self) -> np.ndarray:
        """Per-output-row lineage sizes (how many inputs fed each row)."""
        return np.array([len(tids) for tids in self._lineage], dtype=np.int64)

    @property
    def nbytes(self) -> int:
        """Bytes the lineage arrays keep alive.

        A buffer several rows view counts once, whole: grouped lineage
        is split from one sorted tid array, and rows that HAVING, ORDER
        BY or LIMIT keep still pin all of it.
        """
        owners = {}
        for tids in self._lineage:
            owner = tids.base if isinstance(tids.base, np.ndarray) else tids
            owners[id(owner)] = owner
        return sum(owner.nbytes for owner in owners.values())

    def freeze(self) -> None:
        """Make every lineage array reject in-place writes."""
        for tids in self._lineage:
            tids.setflags(write=False)
