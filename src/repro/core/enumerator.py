"""The Dataset Enumerator: clean D' and extend it into candidate D* sets.

Paper §2.2.2: *"The Dataset Enumerator cleans D' by identifying a self
consistent subset. We are currently experimenting with clustering (e.g.,
K-means) and classification based techniques that train classifiers on
D' and remove elements that are not consistent with the classifier. We
then extend the cleaned D' using subgroup discovery algorithms to find
groups of inputs that highly influence ε."*

Output: an ordered list of :class:`CandidateSet`, each a plausible
approximation of the true error set D*:

1. the cleaned D' itself;
2. the high-influence extension (cleaned D' ∪ tuples whose leave-one-out
   influence clears a quantile threshold);
3. one candidate per discovered subgroup (tuples covered by a CN2-SD
   rule learned with the extension as the positive class).

When the user supplied no examples at all, candidates fall back to pure
influence thresholds at several quantiles — ε still identifies which
inputs matter (this is the "pre-defined criteria" degenerate mode the
introduction contrasts against, available as a fallback rather than the
primary path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..db.table import Table
from ..errors import PipelineError
from ..learn.classify import MixedNaiveBayes
from ..learn.kmeans import dominant_cluster_mask
from ..learn.rules import Rule
from ..learn.subgroup import SubgroupDiscovery
from .preprocessor import PreprocessResult

CLEAN_STRATEGIES = ("kmeans", "nb", "none")

#: The "nb" cleaner drops D' tuples whose density score lies more than
#: this many robust z-units below the median.
NB_MAD_THRESHOLD = 3.5


@dataclass(frozen=True)
class CandidateSet:
    """One candidate approximation of the true error set D*.

    ``rules`` carries the learner rules that *generated* this tid set
    (e.g. CN2-SD subgroups). Several subgroups may cover the identical
    tuple set — all their descriptions are kept, because the Predicate
    Ranker may prefer a different description than the one found first.
    """

    tids: np.ndarray
    origin: str
    rules: tuple[Rule, ...] = ()
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def size(self) -> int:
        """Number of tuples in the candidate."""
        return len(self.tids)

    def label_mask(self, table: Table) -> np.ndarray:
        """Boolean labels over ``table``: True where the row is in this set."""
        return _tid_mask(table, self.tids)


class DatasetEnumerator:
    """Cleans D' and enumerates candidate error sets."""

    def __init__(
        self,
        clean_strategy: str = "kmeans",
        extend: bool = True,
        influence_quantile: float = 0.75,
        fallback_quantiles: tuple[float, ...] = (0.5, 0.75, 0.9),
        subgroup: SubgroupDiscovery | None = None,
        feature_columns: Sequence[str] | None = None,
        max_candidates: int = 8,
        min_keep_fraction: float = 0.6,
        seed: int = 0,
    ):
        if clean_strategy not in CLEAN_STRATEGIES:
            raise PipelineError(
                f"clean_strategy must be one of {CLEAN_STRATEGIES}"
            )
        if max_candidates < 1:
            raise PipelineError(f"max_candidates must be >= 1, got {max_candidates}")
        for name, value in (
            ("influence_quantile", influence_quantile),
            ("min_keep_fraction", min_keep_fraction),
            *(("fallback_quantiles", quantile) for quantile in fallback_quantiles),
        ):
            if not 0.0 <= value <= 1.0:
                raise PipelineError(f"{name} must be in [0, 1], got {value!r}")
        self.clean_strategy = clean_strategy
        self.extend = extend
        self.influence_quantile = influence_quantile
        self.fallback_quantiles = fallback_quantiles
        self.subgroup = subgroup or SubgroupDiscovery()
        self.feature_columns = tuple(feature_columns) if feature_columns else None
        self.max_candidates = max_candidates
        self.min_keep_fraction = min_keep_fraction
        self.seed = seed

    def memo_key(self) -> tuple:
        """``(name, value)`` of every constructor tunable, for memo keys.

        Two enumerators with equal keys produce identical candidates from
        the same (PreprocessResult, D'), so the key is by value: sessions
        with equal configs share one memoized answer.
        """
        return (
            ("clean_strategy", self.clean_strategy),
            ("extend", self.extend),
            ("influence_quantile", self.influence_quantile),
            ("fallback_quantiles", tuple(self.fallback_quantiles)),
            ("subgroup", self.subgroup.memo_key()),
            ("feature_columns", self.feature_columns),
            ("max_candidates", self.max_candidates),
            ("min_keep_fraction", self.min_keep_fraction),
            ("seed", self.seed),
        )

    # ------------------------------------------------------------------

    def run(
        self, pre: PreprocessResult, dprime_tids: Sequence[int] | np.ndarray = ()
    ) -> list[CandidateSet]:
        """Produce candidate D* sets from the preprocessed selection."""
        F = pre.F
        dprime = self._restrict_to_F(F, dprime_tids)
        candidates: list[CandidateSet] = []
        if len(dprime) > 0:
            cleaned = self.clean_dprime(F, dprime, pre=pre)
            candidates.append(CandidateSet(tids=cleaned, origin="dprime"))
            extension = self._extend_by_influence(pre, cleaned)
            if len(extension) > len(cleaned):
                candidates.append(CandidateSet(tids=extension, origin="influence"))
            positives = extension if len(extension) else cleaned
        else:
            for quantile in self.fallback_quantiles:
                tids = pre.influence.top_tids(quantile)
                if len(tids):
                    candidates.append(
                        CandidateSet(
                            tids=tids,
                            origin=f"influence@{quantile:g}",
                        )
                    )
            positives = (
                candidates[-1].tids if candidates else np.empty(0, dtype=np.int64)
            )
        if self.extend and len(positives):
            candidates.extend(self._subgroup_candidates(F, positives, pre=pre))
        return self._dedupe(candidates)[: self.max_candidates]

    # ------------------------------------------------------------------

    def clean_dprime(
        self, F: Table, dprime: np.ndarray, pre: PreprocessResult | None = None
    ) -> np.ndarray:
        """The self-consistent subset of the user's examples.

        ``pre`` (when available) supplies shared per-column numeric casts
        so each cleaning strategy reuses one float64 view of F instead of
        re-deriving it.
        """
        if len(dprime) < 4 or self.clean_strategy == "none":
            return dprime
        dprime_table = F.take_tids(dprime)
        if self.clean_strategy == "kmeans":
            keep = self._kmeans_keep(dprime_table, F=F, dprime=dprime, pre=pre)
        else:
            keep = self._nb_keep(dprime_table)
        # Cleaning removes *stray* examples; if it would discard close to
        # half of D', the "structure" is ambiguous and trusting the user's
        # selection wholesale is safer than gutting it.
        if keep.sum() < self.min_keep_fraction * len(dprime):
            return dprime
        return dprime[keep]

    def _kmeans_keep(
        self,
        dprime_table: Table,
        F: Table | None = None,
        dprime: np.ndarray | None = None,
        pre: PreprocessResult | None = None,
    ) -> np.ndarray:
        numeric = self._numeric_features(dprime_table)
        if not numeric:
            return np.ones(len(dprime_table), dtype=bool)
        if pre is not None and F is not None and F is pre.F and dprime is not None:
            # Slice the shared float64 casts of F instead of re-casting
            # the materialized D' table column by column.
            positions = F.positions_of(dprime)
            X = np.column_stack(
                [pre.numeric_values(name)[positions] for name in numeric]
            )
        else:
            X = np.column_stack(
                [
                    np.asarray(dprime_table.column(name), dtype=np.float64)
                    for name in numeric
                ]
            )
        X = np.nan_to_num(X, nan=0.0)
        return dominant_cluster_mask(X, seed=self.seed)

    def _nb_keep(self, dprime_table: Table) -> np.ndarray:
        features = self._all_features(dprime_table)
        if not features:
            return np.ones(len(dprime_table), dtype=bool)
        labels = np.ones(len(dprime_table), dtype=bool)
        # One-class mode: fit on D' only, score typicality, drop robust outliers.
        nb = MixedNaiveBayes().fit(dprime_table, labels, features=features)
        scores = nb.density_score(dprime_table)
        median = float(np.median(scores))
        mad = float(np.median(np.abs(scores - median)))
        if mad <= 0:
            return np.ones(len(dprime_table), dtype=bool)
        robust_z = 0.6745 * (scores - median) / mad
        return robust_z > -NB_MAD_THRESHOLD

    # ------------------------------------------------------------------

    def _extend_by_influence(
        self, pre: PreprocessResult, cleaned: np.ndarray
    ) -> np.ndarray:
        high = pre.influence.top_tids(self.influence_quantile)
        if len(high) == 0:
            return cleaned
        return np.unique(np.concatenate([cleaned, high]))

    def _subgroup_candidates(
        self, F: Table, positives: np.ndarray, pre: PreprocessResult | None = None
    ) -> list[CandidateSet]:
        labels = _tid_mask(F, positives)
        if not labels.any() or labels.all():
            return []
        features = self._all_features(F)
        shared_edges = None
        if pre is not None and F is pre.F:
            # Equal-frequency cut points depend only on F's distribution;
            # compute them once on the PreprocessResult and hand them to
            # every CN2-SD invocation instead of re-deriving per call.
            shared_edges = {
                name: pre.frequency_edges(name, self.subgroup.numeric_bins)
                for name in features
                if F.schema.type_of(name).is_numeric
            }
        rules = self.subgroup.fit(
            F, labels, features=features, shared_edges=shared_edges
        )
        out: list[CandidateSet] = []
        for rule in rules:
            tids = rule.predicate.matching_tids(F)
            if len(tids) == 0:
                continue
            out.append(
                CandidateSet(
                    tids=np.asarray(tids, dtype=np.int64),
                    origin="subgroup",
                    rules=(rule,),
                )
            )
        return out

    # ------------------------------------------------------------------

    def _restrict_to_F(
        self, F: Table, dprime_tids: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        tids = np.asarray(list(dprime_tids), dtype=np.int64)
        if len(tids) == 0:
            return tids
        present = np.isin(tids, np.asarray(F.tids, dtype=np.int64))
        return np.unique(tids[present])

    def _numeric_features(self, table: Table) -> list[str]:
        names = self.feature_columns or table.schema.names
        return [n for n in names if n in table.schema and table.schema.type_of(n).is_numeric]

    def _all_features(self, table: Table) -> list[str]:
        names = self.feature_columns or table.schema.names
        return [n for n in names if n in table.schema]

    @staticmethod
    def _dedupe(candidates: list[CandidateSet]) -> list[CandidateSet]:
        """Merge candidates with identical tid sets, keeping every rule."""
        by_key: dict[frozenset, CandidateSet] = {}
        order: list[frozenset] = []
        for candidate in candidates:
            key = frozenset(int(t) for t in candidate.tids)
            if not key:
                continue
            existing = by_key.get(key)
            if existing is None:
                by_key[key] = candidate
                order.append(key)
            elif candidate.rules:
                merged_rules = existing.rules + tuple(
                    rule for rule in candidate.rules if rule not in existing.rules
                )
                by_key[key] = CandidateSet(
                    tids=existing.tids,
                    origin=existing.origin,
                    rules=merged_rules,
                    extra=existing.extra,
                )
        return [by_key[key] for key in order]


def _tid_mask(table: Table, tids: np.ndarray) -> np.ndarray:
    """Vectorized membership: True where the row's tid is in ``tids``."""
    wanted = np.asarray(tids, dtype=np.int64).ravel()
    table_tids = np.asarray(table.tids, dtype=np.int64)
    if len(wanted) == 0 or len(table_tids) == 0:
        return np.zeros(len(table_tids), dtype=bool)
    return np.isin(table_tids, wanted)
