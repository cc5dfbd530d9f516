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

The beam is an array program over bit-packed masks (:mod:`.bitmask`).
Every condition's mask is packed once per :meth:`SubgroupDiscovery.fit`.
Rows fall into weight groups: the negatives (weight 1) and, per
``k``, the positives that ``k`` emitted rules have covered (weight
``γ^k``). A beam level counts, for every (beam entry, condition) child
at once, the covered rows of each group as popcounts of
``condition ∧ entry ∧ group``, and forms a covered weight as
``Σ_k w_k · count_k`` in a fixed order (negatives, then ``k`` = 0, 1,
…). Only the ``beam_width`` survivors get real masks. The child order,
the filters, the dedupe and the stable sort are those of the
one-child-at-a-time search (kept as a parity oracle in
``tests/reference``). At the default γ = 0.5 every weight is dyadic and
both ways of summing are exact; at other γ a quality may differ in its
last bit from a float sum over the rows, but it no longer depends on
summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..db.predicate import CategoricalClause, Clause, NumericClause, Predicate
from ..db.table import Table
from ..errors import LearnError
from .bitmask import pack_words, popcount, unpack_masks
from .discretize import equal_frequency_edges, mdl_entropy_edges
from .rules import Rule, dedupe_rules
from .split_index import CategoricalColumnIndex


@dataclass(frozen=True)
class _Condition:
    """A primitive condition: a clause and the rule slot it occupies."""

    clause: Clause
    column: str
    #: "le" (upper bound), "gt" (lower bound), or "eq" (categorical).
    direction: str

    @property
    def slot(self) -> tuple[str, str]:
        """The (column, direction) slot this condition occupies in a rule."""
        return (self.column, self.direction)


class _Conditions:
    """The conditions of one fit, their packed masks and integer ids.

    (column, direction) slots and clauses become small ints, so a beam
    level can filter slots and dedupe children with array operations.
    Equal clauses share an id, which keeps the dedupe by clause set.
    """

    def __init__(self, conditions: list[_Condition], bits: np.ndarray):
        self.conditions = conditions
        #: ``(C, words)`` packed row masks.
        self.bits = bits
        slot_ids: dict = {}
        self.slot = np.array(
            [slot_ids.setdefault(c.slot, len(slot_ids)) for c in conditions],
            dtype=np.int64,
        )
        #: Each condition's column's categorical slot: a categorical
        #: value on a column excludes every other condition on it.
        self.eq_slot = np.array(
            [slot_ids.setdefault((c.column, "eq"), len(slot_ids)) for c in conditions],
            dtype=np.int64,
        )
        self.n_slots = len(slot_ids)
        clause_ids: dict = {}
        self.clause_id = np.array(
            [clause_ids.setdefault(c.clause, i) for i, c in enumerate(conditions)],
            dtype=np.int64,
        )

    def __len__(self) -> int:
        return len(self.conditions)

    def allowed(self, slots: frozenset) -> np.ndarray:
        """Conditions a rule holding ``slots`` may still gain."""
        used = np.zeros(self.n_slots, dtype=bool)
        used[list(slots)] = True
        return ~(used[self.slot] | used[self.eq_slot])


class _WeightGroups:
    """The rows of one beam search, grouped by their weighted-covering
    weight: group 0 holds the negatives (weight 1.0), and each later
    group the positives covered by ``k`` emitted rules, weighing 1.0
    multiplied by γ ``k`` times (as the decay computes it)."""

    def __init__(self, labels: np.ndarray, times_covered: np.ndarray, gamma: float):
        masks = [~labels]
        self.weights = [1.0]
        weight = 1.0
        for times in range(int(times_covered.max()) + 1):
            members = labels & (times_covered == times)
            if members.any():
                masks.append(members)
                self.weights.append(weight)
            weight *= gamma
        self.bits = pack_words(np.array(masks))
        sizes = popcount(self.bits)[None, :]
        #: Total positive weight and total weight.
        self.pos_weight = float(self._positive_weight(sizes)[0])
        self.total_weight = float(sizes[0, 0] + self.pos_weight)

    def counts(self, bits: np.ndarray) -> np.ndarray:
        """``(rows, groups)`` set-bit counts of each packed row in each group."""
        return np.column_stack([popcount(bits & group) for group in self.bits])

    def _positive_weight(self, counts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(counts))
        for group in range(1, len(self.weights)):
            out += self.weights[group] * counts[:, group]
        return out

    def quality(self, counts: np.ndarray) -> np.ndarray:
        """WRAcc (:func:`~.metrics.wracc`) of rows with these group counts."""
        covered_pos = self._positive_weight(counts)
        covered = counts[:, 0] + covered_pos
        base_rate = self.pos_weight / self.total_weight
        with np.errstate(divide="ignore", invalid="ignore"):
            coverage = covered / self.total_weight
            quality = coverage * (covered_pos / covered - base_rate)
        return np.where(covered > 0, quality, 0.0)


@dataclass
class _BeamEntry:
    clauses: tuple[Clause, ...]
    #: Clause ids of ``clauses`` (the identity the dedupe compares).
    ids: tuple[int, ...]
    #: Packed covered rows.
    bits: np.ndarray
    #: Rows and positive rows covered.
    count: int
    n_pos: int
    quality: float
    #: Slot ids already used; a slot is a (column, direction) pair, with
    #: direction "le"/"gt" for numeric bounds and "eq" for categorical,
    #: so a rule may carry both bounds of a numeric interval but never
    #: two categorical values or two upper bounds on one column.
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
        max_values: int = 16,
    ):
        if not 0.0 <= gamma <= 1.0:
            raise LearnError("gamma must be in [0, 1]")
        if beam_width < 1:
            raise LearnError("beam_width must be >= 1")
        if max_conditions < 1:
            raise LearnError("max_conditions must be >= 1")
        if n_rules < 1:
            raise LearnError("n_rules must be >= 1")
        if numeric_bins < 1:
            raise LearnError("numeric_bins must be >= 1")
        if max_values < 0:
            raise LearnError("max_values must be >= 0")
        self.beam_width = beam_width
        self.max_conditions = max_conditions
        self.n_rules = n_rules
        self.gamma = gamma
        self.min_coverage = min_coverage
        self.numeric_bins = numeric_bins
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

        ``shared_edges`` optionally supplies ready-made equal-frequency
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
        if not len(conditions):
            return []
        # How many emitted rules have covered each row (weighted covering
        # decays a positive's weight by γ each time).
        times_covered = np.zeros(len(table), dtype=np.int64)
        rules: list[Rule] = []
        emitted: set[Predicate] = set()
        for _ in range(self.n_rules):
            groups = _WeightGroups(labels, times_covered, self.gamma)
            if groups.pos_weight < 1e-9:
                break
            best = self._beam_search(conditions, groups, emitted)
            if best is None or best.quality <= 0:
                break
            predicate = Predicate(best.clauses).simplify()
            if predicate is None:
                break
            emitted.add(predicate)
            rules.append(
                Rule(
                    predicate=predicate,
                    n_covered=float(best.count),
                    n_pos_covered=float(best.n_pos),
                    quality=best.quality,
                    source="cn2sd",
                )
            )
            covered = unpack_masks(best.bits, len(table))[0]
            times_covered[covered & labels] += 1
        return dedupe_rules(rules)

    # ------------------------------------------------------------------

    def _build_conditions(
        self,
        table: Table,
        labels: np.ndarray,
        features: Sequence[str],
        shared_edges: Mapping[str, Sequence[float]] | None = None,
    ) -> _Conditions:
        conditions: list[_Condition] = []
        masks: list[np.ndarray] = []
        for name in features:
            ctype = table.schema.type_of(name)
            values = table.column(name)
            if ctype.is_numeric:
                fallback = (
                    shared_edges.get(name) if shared_edges is not None else None
                )
                edges = self._numeric_edges(values, labels, fallback)
                # NumericClause.mask's comparisons, one column at a time.
                cuts = np.asarray(edges, dtype=np.float64)[:, None]
                with np.errstate(invalid="ignore"):
                    at_most = values[None, :] <= cuts
                    above = values[None, :] > cuts
                for row, edge in enumerate(edges):
                    low = NumericClause(name, None, float(edge), hi_inclusive=True)
                    high = NumericClause(name, float(edge), None, lo_inclusive=False)
                    conditions.append(_Condition(low, name, "le"))
                    masks.append(at_most[row])
                    conditions.append(_Condition(high, name, "gt"))
                    masks.append(above[row])
            else:
                for clause, mask in self._categorical_conditions(table, name):
                    conditions.append(_Condition(clause, name, "eq"))
                    masks.append(mask)
        n = len(table)
        bits = pack_words(np.array(masks).reshape(len(masks), n))
        counts = popcount(bits)
        # Vacuous conditions (covering all rows or none — e.g. the single
        # value of a constant column) restrict nothing and would only pad
        # rules with noise conjuncts.
        keep = np.flatnonzero((counts > 0) & (counts < n))
        return _Conditions([conditions[i] for i in keep], bits[keep])

    def _categorical_conditions(self, table: Table, name: str):
        """``(clause, mask)`` of the column's ``max_values`` commonest values.

        The column is coded by the split index's coder
        (:meth:`~.split_index.CategoricalColumnIndex.build`), whose codes
        follow the sorted values. Ties in count go to the value seen
        first in the column, so the order does not depend on that sort.
        """
        column = CategoricalColumnIndex.build(name, table.column(name))
        n_values = len(column.values)
        counts = np.bincount(column.codes, minlength=column.n_bins)[:n_values]
        # Every value occurs, so codes 0..n_values-1 all appear here.
        __, first_seen = np.unique(column.codes, return_index=True)
        order = np.lexsort((first_seen[:n_values], -counts))
        for code in order[: self.max_values]:
            clause = CategoricalClause(name, frozenset([column.values[code]]))
            yield clause, column.codes == code

    def _numeric_edges(
        self,
        values: np.ndarray,
        labels: np.ndarray,
        fallback: Sequence[float] | None = None,
    ) -> list[float]:
        values = np.asarray(values, dtype=np.float64)
        edges = mdl_entropy_edges(values, labels)
        if edges:
            return edges
        if fallback is not None:
            return list(fallback)
        return equal_frequency_edges(values, self.numeric_bins)

    def _beam_search(
        self,
        conditions: _Conditions,
        groups: _WeightGroups,
        emitted: set[Predicate],
    ) -> _BeamEntry | None:
        def is_new(entry: _BeamEntry) -> bool:
            predicate = Predicate(entry.clauses).simplify()
            return predicate is not None and predicate not in emitted

        # Level 1: single conditions.
        counts = groups.counts(conditions.bits)
        rows = np.arange(len(conditions))
        beam = self._survivors(conditions, groups, None, rows, counts)
        best = next((entry for entry in beam if is_new(entry)), None)
        # Deeper levels: every (entry, condition) child, entries in beam
        # order and conditions in order within each entry.
        for _ in range(1, self.max_conditions):
            if not beam:
                break
            parent_rows, condition_rows, child_counts = [], [], []
            for index, entry in enumerate(beam):
                # One condition per (column, direction) slot: numeric
                # columns can gain both an upper and a lower bound
                # (forming an interval), categoricals only one value.
                allowed = np.flatnonzero(conditions.allowed(entry.slots))
                counts = groups.counts(conditions.bits[allowed] & entry.bits)
                total = counts.sum(axis=1)
                # A child that keeps every row restricted nothing.
                keep = total != entry.count
                parent_rows.append(np.full(int(keep.sum()), index))
                condition_rows.append(allowed[keep])
                child_counts.append(counts[keep])
            beam = self._survivors(
                conditions,
                groups,
                beam,
                np.concatenate(condition_rows),
                np.concatenate(child_counts),
                np.concatenate(parent_rows),
            )
            for entry in beam:
                if is_new(entry) and (best is None or entry.quality > best.quality):
                    best = entry
                    break
        return best

    def _survivors(
        self,
        conditions: _Conditions,
        groups: _WeightGroups,
        parents: list[_BeamEntry] | None,
        condition_rows: np.ndarray,
        counts: np.ndarray,
        parent_rows: np.ndarray | None = None,
    ) -> list[_BeamEntry]:
        """The next beam: the ``beam_width`` best candidates, as entries.

        Candidates are single conditions (``parents`` is ``None``) or
        children ``parents[parent_rows[i]] + condition_rows[i]``, in
        order, with their group ``counts``. A candidate must cover at
        least ``min_coverage`` rows and one positive, and a child whose
        clause set an earlier child already has is dropped.
        """
        total = counts.sum(axis=1)
        n_pos = total - counts[:, 0]
        keep = np.flatnonzero((total >= self.min_coverage) & (n_pos > 0))
        if parents is not None and len(keep):
            parent_ids = np.array([parent.ids for parent in parents])
            ids = np.column_stack(
                [
                    parent_ids[parent_rows[keep]],
                    conditions.clause_id[condition_rows[keep]],
                ]
            )
            ids.sort(axis=1)
            __, first = np.unique(ids, axis=0, return_index=True)
            keep = keep[np.sort(first)]
        quality = groups.quality(counts[keep])
        order = np.argsort(-quality, kind="stable")[: self.beam_width]
        beam = []
        for position in order:
            row = keep[position]
            condition = int(condition_rows[row])
            clause = conditions.conditions[condition].clause
            bits = conditions.bits[condition]
            slot = int(conditions.slot[condition])
            clause_id = int(conditions.clause_id[condition])
            if parents is None:
                clauses, ids, slots = (clause,), (clause_id,), frozenset([slot])
            else:
                parent = parents[int(parent_rows[row])]
                bits = bits & parent.bits
                clauses = parent.clauses + (clause,)
                ids = tuple(sorted(parent.ids + (clause_id,)))
                slots = parent.slots | {slot}
            beam.append(
                _BeamEntry(
                    clauses=clauses,
                    ids=ids,
                    bits=bits,
                    count=int(total[row]),
                    n_pos=int(n_pos[row]),
                    quality=float(quality[position]),
                    slots=slots,
                )
            )
        return beam
