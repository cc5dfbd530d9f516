"""``repro.data`` — synthetic stand-ins for the demo's datasets.

See DESIGN.md for the substitution rationale: the real FEC dump and
Intel Lab trace are unavailable offline, so seeded generators reproduce
the statistical shapes the walkthrough depends on — with ground-truth
labels the real data never had.
"""

from .anomalies import GroundTruth, explanation_quality, tid_set_quality
from .demo import BOOTSTRAP_QUERIES, load_dataset
from .fec import REATTRIBUTION_MEMO, FECConfig, generate_fec, walkthrough_query
from .intel import (
    WALKTHROUGH_QUERY,
    WINDOW_MINUTES,
    IntelConfig,
    generate_intel,
    intel_at_scale,
)
from .synthetic import SyntheticConfig, dirty_group_rows, generate_synthetic

__all__ = [
    "BOOTSTRAP_QUERIES",
    "FECConfig",
    "GroundTruth",
    "IntelConfig",
    "REATTRIBUTION_MEMO",
    "SyntheticConfig",
    "WALKTHROUGH_QUERY",
    "WINDOW_MINUTES",
    "dirty_group_rows",
    "explanation_quality",
    "generate_fec",
    "generate_intel",
    "generate_synthetic",
    "intel_at_scale",
    "load_dataset",
    "tid_set_quality",
    "walkthrough_query",
]
