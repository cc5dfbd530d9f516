"""CN2-SD subgroup discovery (Lavrač, Kavšek, Flach, Todorovski — JMLR 2004).

The Dataset Enumerator uses subgroup discovery to *extend* the cleaned
user examples ``D'`` into candidate error sets: it searches for compact
conjunctive descriptions whose covered tuples are unusually rich in
positives (user examples and high-influence tuples).

This is a faithful from-scratch CN2-SD:

* rule quality is **weighted relative accuracy** (WRAcc);
* search is **beam search** over conjunctions of attribute conditions;
* after each rule is emitted, covered positives are **multiplicatively
  down-weighted** (weighted covering) so later rules describe different
  parts of the positive class.

Numeric attributes are discretized with class-aware MDL cut points
(falling back to equal-frequency quantiles), yielding threshold
conditions such as ``temp > 100.3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..db.predicate import CategoricalClause, Clause, NumericClause, Predicate
from ..db.table import Table
from ..errors import LearnError
from .discretize import equal_frequency_edges, mdl_entropy_edges
from .metrics import wracc
from .rules import Rule, dedupe_rules


@dataclass(frozen=True)
class _Condition:
    """A primitive condition: a clause plus its precomputed row mask."""

    clause: Clause
    mask: np.ndarray
    column: str
    #: "le" (upper bound), "gt" (lower bound), or "eq" (categorical).
    direction: str

    @property
    def slot(self) -> tuple[str, str]:
        """The (column, direction) slot this condition occupies in a rule."""
        return (self.column, self.direction)


@dataclass
class _BeamEntry:
    clauses: tuple[Clause, ...]
    mask: np.ndarray
    quality: float
    #: (column, direction) pairs already used; direction is "le"/"gt" for
    #: numeric bounds and "eq" for categorical, so a rule may carry both
    #: bounds of a numeric interval but never two categorical values or two
    #: upper bounds on one column.
    slots: frozenset


class SubgroupDiscovery:
    """CN2-SD: beam search for high-WRAcc conjunctions with weighted covering."""

    def __init__(
        self,
        beam_width: int = 8,
        max_conditions: int = 3,
        n_rules: int = 6,
        gamma: float = 0.5,
        min_coverage: int = 2,
        numeric_bins: int = 8,
        discretizer: str = "mdl",
        max_values: int = 16,
    ):
        if not 0.0 <= gamma <= 1.0:
            raise LearnError("gamma must be in [0, 1]")
        if beam_width < 1:
            raise LearnError("beam_width must be >= 1")
        if max_conditions < 1:
            raise LearnError("max_conditions must be >= 1")
        if discretizer not in ("mdl", "frequency", "both"):
            raise LearnError("discretizer must be 'mdl', 'frequency', or 'both'")
        self.beam_width = beam_width
        self.max_conditions = max_conditions
        self.n_rules = n_rules
        self.gamma = gamma
        self.min_coverage = min_coverage
        self.numeric_bins = numeric_bins
        self.discretizer = discretizer
        self.max_values = max_values

    def memo_key(self) -> tuple:
        """``(name, value)`` of every constructor tunable, for memo keys."""
        return (
            ("beam_width", self.beam_width),
            ("max_conditions", self.max_conditions),
            ("n_rules", self.n_rules),
            ("gamma", self.gamma),
            ("min_coverage", self.min_coverage),
            ("numeric_bins", self.numeric_bins),
            ("discretizer", self.discretizer),
            ("max_values", self.max_values),
        )

    # ------------------------------------------------------------------

    def fit(
        self,
        table: Table,
        labels: np.ndarray,
        features: Sequence[str] | None = None,
        shared_edges: Mapping[str, Sequence[float]] | None = None,
    ) -> list[Rule]:
        """Discover up to ``n_rules`` subgroups of the positive class.

        ``shared_edges`` optionally supplies precomputed equal-frequency
        cut points per numeric column (e.g. from a
        :class:`~repro.core.preprocessor.PreprocessResult` shared across
        enumerator strategies); they replace the class-agnostic
        discretization this method would otherwise re-derive. Class-aware
        MDL cuts still adapt to ``labels``.
        """
        labels = np.asarray(labels, dtype=bool)
        if len(labels) != len(table):
            raise LearnError("labels length must match table length")
        if len(table) == 0 or not labels.any():
            return []
        if features is None:
            features = table.schema.names
        conditions = self._build_conditions(table, labels, features, shared_edges)
        if not conditions:
            return []
        weights = np.ones(len(table), dtype=np.float64)
        rules: list[Rule] = []
        emitted: set[Predicate] = set()
        for _ in range(self.n_rules):
            best = self._beam_search(conditions, labels, weights, emitted)
            if best is None or best.quality <= 0:
                break
            covered = best.mask
            n_covered = int(covered.sum())
            n_pos = int((covered & labels).sum())
            predicate = Predicate(best.clauses).simplify()
            if predicate is None:
                break
            emitted.add(predicate)
            rules.append(
                Rule(
                    predicate=predicate,
                    n_covered=float(n_covered),
                    n_pos_covered=float(n_pos),
                    quality=best.quality,
                    source="cn2sd",
                )
            )
            # Weighted covering: decay covered positives.
            decay = covered & labels
            weights[decay] *= self.gamma
            if weights[labels].sum() < 1e-9:
                break
        return dedupe_rules(rules)

    # ------------------------------------------------------------------

    def _build_conditions(
        self,
        table: Table,
        labels: np.ndarray,
        features: Sequence[str],
        shared_edges: Mapping[str, Sequence[float]] | None = None,
    ) -> list[_Condition]:
        conditions: list[_Condition] = []
        for name in features:
            ctype = table.schema.type_of(name)
            values = table.column(name)
            if ctype.is_numeric:
                precomputed = (
                    shared_edges.get(name) if shared_edges is not None else None
                )
                edges = self._numeric_edges(values, labels, precomputed)
                for edge in edges:
                    low = NumericClause(name, None, float(edge), hi_inclusive=True)
                    high = NumericClause(name, float(edge), None, lo_inclusive=False)
                    conditions.append(_Condition(low, low.mask(table), name, "le"))
                    conditions.append(_Condition(high, high.mask(table), name, "gt"))
            else:
                counts: dict = {}
                for value in values:
                    if value is None:
                        continue
                    counts[value] = counts.get(value, 0) + 1
                top = sorted(counts, key=lambda v: -counts[v])[: self.max_values]
                for value in top:
                    clause = CategoricalClause(name, frozenset([value]))
                    conditions.append(
                        _Condition(clause, clause.mask(table), name, "eq")
                    )
        # Vacuous conditions (covering all rows or none — e.g. the single
        # value of a constant column) restrict nothing and would only pad
        # rules with noise conjuncts.
        return [
            condition
            for condition in conditions
            if 0 < int(condition.mask.sum()) < len(table)
        ]

    def _numeric_edges(
        self,
        values: np.ndarray,
        labels: np.ndarray,
        precomputed: Sequence[float] | None = None,
    ) -> list[float]:
        values = np.asarray(values, dtype=np.float64)

        def frequency_edges() -> list[float]:
            if precomputed is not None:
                return list(precomputed)
            return equal_frequency_edges(values, self.numeric_bins)

        edges: list[float] = []
        if self.discretizer in ("mdl", "both"):
            edges = mdl_entropy_edges(values, labels)
        if self.discretizer == "frequency" or (
            self.discretizer in ("mdl", "both") and not edges
        ):
            edges = frequency_edges()
        elif self.discretizer == "both":
            merged = sorted(set(edges) | set(frequency_edges()))
            edges = merged
        return edges

    def _beam_search(
        self,
        conditions: list[_Condition],
        labels: np.ndarray,
        weights: np.ndarray,
        emitted: set[Predicate] | None = None,
    ) -> _BeamEntry | None:
        total_w = float(weights.sum())
        pos_w = float(weights[labels].sum())
        if pos_w <= 0:
            return None
        emitted = emitted or set()

        def quality_of(mask: np.ndarray) -> float:
            covered_w = float(weights[mask].sum())
            covered_pos_w = float(weights[mask & labels].sum())
            return wracc(total_w, pos_w, covered_w, covered_pos_w)

        def is_new(entry: _BeamEntry) -> bool:
            predicate = Predicate(entry.clauses).simplify()
            return predicate is not None and predicate not in emitted

        beam: list[_BeamEntry] = []
        best: _BeamEntry | None = None
        # Level 1: single conditions.
        for condition in conditions:
            mask = condition.mask
            if int(mask.sum()) < self.min_coverage or not (mask & labels).any():
                continue
            entry = _BeamEntry(
                clauses=(condition.clause,),
                mask=mask,
                quality=quality_of(mask),
                slots=frozenset([condition.slot]),
            )
            beam.append(entry)
        beam.sort(key=lambda e: -e.quality)
        beam = beam[: self.beam_width]
        for entry in beam:
            if is_new(entry):
                best = entry
                break
        # Deeper levels.
        for _ in range(1, self.max_conditions):
            children: list[_BeamEntry] = []
            seen: set[frozenset] = set()
            for entry in beam:
                for condition in conditions:
                    # One condition per (column, direction) slot: numeric
                    # columns can gain both an upper and a lower bound
                    # (forming an interval), categoricals only one value.
                    if condition.slot in entry.slots:
                        continue
                    if (condition.column, "eq") in entry.slots:
                        continue
                    mask = entry.mask & condition.mask
                    count = int(mask.sum())
                    if count < self.min_coverage or not (mask & labels).any():
                        continue
                    if count == int(entry.mask.sum()):
                        # The condition restricted nothing on this branch.
                        continue
                    clauses = entry.clauses + (condition.clause,)
                    key = frozenset(clauses)
                    if key in seen:
                        continue
                    seen.add(key)
                    children.append(
                        _BeamEntry(
                            clauses=clauses,
                            mask=mask,
                            quality=quality_of(mask),
                            slots=entry.slots | {condition.slot},
                        )
                    )
            if not children:
                break
            children.sort(key=lambda e: -e.quality)
            beam = children[: self.beam_width]
            for entry in beam:
                if is_new(entry) and (best is None or entry.quality > best.quality):
                    best = entry
                    break
        return best
