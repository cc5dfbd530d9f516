"""``repro.learn`` — from-scratch ML substrate.

Decision trees (gini / entropy / gain-ratio + pruning), CN2-SD subgroup
discovery with weighted covering, k-means with silhouette model
selection, mixed naive Bayes, discretization, and metrics. No external
ML dependencies; numpy only.
"""

from .classify import MixedNaiveBayes
from .discretize import bin_index, equal_frequency_edges, mdl_entropy_edges
from .kmeans import (
    KMeansResult,
    choose_k,
    dominant_cluster_mask,
    kmeans,
    silhouette,
    standardize,
)
from .metrics import (
    Confusion,
    confusion,
    entropy,
    gini_impurity,
    jaccard,
    precision_recall_f1,
    split_info,
    wracc,
)
from .rules import Rule, dedupe_rules
from .split_index import CategoricalColumnIndex, NumericColumnIndex, SplitIndex
from .subgroup import SubgroupDiscovery
from .tree import CRITERIA, CategoricalSplit, DecisionTree, NumericSplit

__all__ = [
    "CRITERIA",
    "CategoricalColumnIndex",
    "CategoricalSplit",
    "Confusion",
    "DecisionTree",
    "KMeansResult",
    "MixedNaiveBayes",
    "NumericColumnIndex",
    "NumericSplit",
    "Rule",
    "SplitIndex",
    "SubgroupDiscovery",
    "bin_index",
    "choose_k",
    "confusion",
    "dedupe_rules",
    "dominant_cluster_mask",
    "entropy",
    "equal_frequency_edges",
    "gini_impurity",
    "jaccard",
    "kmeans",
    "mdl_entropy_edges",
    "precision_recall_f1",
    "silhouette",
    "split_info",
    "standardize",
    "wracc",
]
