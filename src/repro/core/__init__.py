"""``repro.core`` — the Ranked Provenance System (the paper's contribution).

Pipeline: Preprocessor → Dataset Enumerator → Predicate Enumerator →
Predicate Ranker, orchestrated by :class:`RankedProvenance`.
"""

from .backend import InProcessBackend
from .enumerator import CLEAN_STRATEGIES, CandidateSet, DatasetEnumerator
from .error_metrics import (
    DiffFromConstant,
    ErrorMetric,
    NotEqual,
    TooHigh,
    TooLow,
    available_metric_ids,
    metric_from_form,
)
from .influence import (
    GroupInfluence,
    InfluenceResult,
    leave_one_out_influence,
    subset_epsilon_grouped_batch,
)
from .maskset import ClauseMaskCache, MaskSet
from .merger import PredicateMerger, hull
from .pipeline import PipelineConfig, RankedProvenance
from .predicates import (
    DEFAULT_STRATEGIES,
    CandidateRule,
    PredicateEnumerator,
    TreeStrategy,
)
from .preprocessor import (
    PreprocessCache,
    PreprocessResult,
    Preprocessor,
    preprocess_key,
)
from .ranker import PredicateRanker, RankerWeights
from .report import DebugReport, RankedPredicate

__all__ = [
    "CLEAN_STRATEGIES",
    "DEFAULT_STRATEGIES",
    "CandidateRule",
    "CandidateSet",
    "ClauseMaskCache",
    "MaskSet",
    "DatasetEnumerator",
    "DebugReport",
    "DiffFromConstant",
    "ErrorMetric",
    "GroupInfluence",
    "InProcessBackend",
    "InfluenceResult",
    "NotEqual",
    "PipelineConfig",
    "PredicateEnumerator",
    "PredicateMerger",
    "PredicateRanker",
    "PreprocessCache",
    "PreprocessResult",
    "Preprocessor",
    "RankedPredicate",
    "RankedProvenance",
    "RankerWeights",
    "TooHigh",
    "TooLow",
    "TreeStrategy",
    "available_metric_ids",
    "hull",
    "leave_one_out_influence",
    "metric_from_form",
    "preprocess_key",
    "subset_epsilon_grouped_batch",
]
