"""The ranked provenance pipeline (the bottom half of Figure 1).

``RankedProvenance.debug`` wires the four backend components together::

    Query, S, D', ε ──> Preprocessor ──> Dataset Enumerator
                       ──> Predicate Enumerator ──> Predicate Ranker
                       ──> ranked predicates

Each stage's wall-clock time is recorded in the report for the scaling
benchmarks. The stages run in :class:`~repro.core.backend.InProcessBackend`;
``RankedProvenance`` is the stable facade the frontend and service tiers
program against. Every stage kernel has one implementation, so
:class:`PipelineConfig` holds what the analysis should do, not how; the
slower reference implementations the parity tests compare against live
in ``tests/reference/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..db.result import ResultSet
from ..learn.subgroup import SubgroupDiscovery
from .backend import InProcessBackend
from .error_metrics import ErrorMetric
from .predicates import DEFAULT_STRATEGIES, TreeStrategy
from .preprocessor import PreprocessCache
from .ranker import RankerWeights
from .report import DebugReport


@dataclass
class PipelineConfig:
    """All tunables of the ranked provenance pipeline in one place."""

    #: How to clean D': "kmeans", "nb", or "none".
    clean_strategy: str = "kmeans"
    #: Extend candidates with subgroup discovery.
    extend_with_subgroups: bool = True
    #: Influence quantile for the high-influence extension of D'.
    influence_quantile: float = 0.75
    #: Tree strategies for the predicate enumerator (the paper's m).
    strategies: tuple[TreeStrategy, ...] = DEFAULT_STRATEGIES
    #: Columns usable in predicates (None = every column of F).
    feature_columns: tuple[str, ...] | None = None
    #: Minimum positive-leaf precision for tree rules.
    min_precision: float = 0.5
    #: Bias tree sample weights by influence scores.
    weight_by_influence: bool = False
    #: Ranker weights and complexity cap.
    ranker_weights: RankerWeights = field(default_factory=RankerWeights)
    max_terms: int = 8
    #: Post-rank hull merging of fragmented predicates (Scorpion-style).
    merge_predicates: bool = False
    #: Cap on candidate datasets.
    max_candidates: int = 8
    #: Subgroup discovery configuration.
    subgroup: SubgroupDiscovery | None = None
    #: Random seed shared by all stochastic stages.
    seed: int = 0


class RankedProvenance:
    """The DBWipes backend: from a selection to ranked predicates.

    ``preprocess_cache`` (a
    :class:`~repro.core.preprocessor.PreprocessCache`) may be shared by
    many pipelines: the serving tier hands every session the same cache
    so concurrent debugging requests over the same selection reuse one
    :class:`~repro.core.preprocessor.PreprocessResult`.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        preprocess_cache: "PreprocessCache | None" = None,
    ):
        self.config = config or PipelineConfig()
        #: The execution backend running the five stages (see
        #: :mod:`~repro.core.backend`).
        self.backend = InProcessBackend(
            self.config, preprocess_cache=preprocess_cache
        )

    @property
    def preprocess_cache(self) -> PreprocessCache:
        """The preprocess cache: the shared one, or the private one-entry cache."""
        return self.backend.preprocess_cache

    def debug(
        self,
        result: ResultSet,
        selected_rows: Sequence[int] | np.ndarray,
        metric: ErrorMetric,
        dprime_tids: Sequence[int] | np.ndarray = (),
        agg_name: str | None = None,
        on_partial: Callable[[str, list], None] | None = None,
    ) -> DebugReport:
        """Run the full pipeline and return the ranked predicate report.

        Parameters mirror the paper's inputs: the executed query result,
        the suspicious output rows S, the error metric ε, the optional
        suspicious input examples D', and which aggregate column to debug.
        ``on_partial(stage, ranked)`` streams intermediate ranked lists
        (post-rank, then per merge round) without changing the result.
        """
        return self.backend.debug(
            result,
            selected_rows,
            metric,
            dprime_tids=dprime_tids,
            agg_name=agg_name,
            on_partial=on_partial,
        )
