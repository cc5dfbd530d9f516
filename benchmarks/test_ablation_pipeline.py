"""A2: pipeline design-choice ablations.

The pipeline makes four design choices; this bench measures each one's
contribution to explanation quality (F1 of the top predicate vs ground
truth) on the decoy workload, plus the latency cost of the full
configuration:

* D' cleaning (kmeans / nb / none) — with a deliberately polluted D';
* subgroup-discovery extension on/off;
* the number of tree strategies m (1 vs the default 5);
* influence weighting of tree samples on/off.
"""

import numpy as np
import pytest

from repro.core import (
    DEFAULT_STRATEGIES,
    PipelineConfig,
    RankedProvenance,
    RankerWeights,
    TooHigh,
)
from repro.data import dirty_group_rows, explanation_quality


@pytest.fixture(scope="module")
def decoy_case():
    """A deliberately *hard* workload: subtle conjunction anomaly, decoy
    outliers, and a sloppy (2/3 innocent) D' brush — chosen because the
    easy workloads converge to the same answer under every configuration,
    which demonstrates robustness but not the ablation deltas."""
    from repro.data import SyntheticConfig, generate_synthetic
    from repro.db import Database

    table, truth = generate_synthetic(
        SyntheticConfig(
            n_rows=6000,
            shift_stds=6.0,
            predicate_kind="conjunction",
            legit_outlier_rate=0.02,
            legit_outlier_stds=12.0,
            corruption_rate=1.0,
            n_dirty_groups=5,
            seed=23,
        )
    )
    db = Database()
    db.register(table)
    result = db.sql(
        "SELECT grp, avg(measure) AS m FROM facts GROUP BY grp ORDER BY grp"
    )
    dirty = set(dirty_group_rows(table, truth).tolist())
    S = [i for i in range(result.num_rows) if result.row(i)[0] in dirty]
    values = np.asarray(result.column("m"))
    threshold = float(np.delete(values, S).max())
    F = result.inputs_for(S)
    clean_dprime = np.asarray(F.tids)[truth.label_mask(F)]
    rng = np.random.default_rng(3)
    innocent = np.asarray(F.tids)[~truth.label_mask(F)]
    polluted = np.concatenate([
        clean_dprime,
        rng.choice(innocent, size=min(2 * len(clean_dprime), len(innocent)),
                   replace=False),
    ])
    return result, S, threshold, F, truth, clean_dprime, polluted


FEATURES = ("a", "b", "x", "y")

CONFIGS = {
    "full": PipelineConfig(feature_columns=FEATURES),
    "clean=none": PipelineConfig(feature_columns=FEATURES,
                                 clean_strategy="none"),
    "clean=nb": PipelineConfig(feature_columns=FEATURES, clean_strategy="nb"),
    "no-subgroups": PipelineConfig(feature_columns=FEATURES,
                                   extend_with_subgroups=False),
    "m=1 strategy": PipelineConfig(feature_columns=FEATURES,
                                   strategies=DEFAULT_STRATEGIES[:1]),
    "influence-weighted": PipelineConfig(feature_columns=FEATURES,
                                         weight_by_influence=True),
    # The most fragile combination: trust the sloppy brush verbatim and
    # never extend it — trees must learn from polluted labels alone.
    "bare (no clean, no subgroups)": PipelineConfig(
        feature_columns=FEATURES,
        clean_strategy="none",
        extend_with_subgroups=False,
    ),
    # Ranker ablations: drop the error-improvement term (rank by candidate
    # accuracy alone) and the parsimony term (ignore collateral deletions).
    "ranker: no delta-eps": PipelineConfig(
        feature_columns=FEATURES,
        ranker_weights=RankerWeights(error=0.0, accuracy=1.0,
                                     complexity=0.25, parsimony=0.3),
    ),
    "ranker: no parsimony": PipelineConfig(
        feature_columns=FEATURES,
        ranker_weights=RankerWeights(error=1.0, accuracy=0.5,
                                     complexity=0.25, parsimony=0.0),
    ),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_a2_config_quality(benchmark, decoy_case, name):
    result, S, threshold, F, truth, __, polluted = decoy_case
    config = CONFIGS[name]

    pipeline = RankedProvenance(config)
    report = benchmark(
        pipeline.debug, result, S, TooHigh(threshold), dprime_tids=polluted
    )

    if report.best is not None:
        quality = explanation_quality(report.best.predicate, F, truth)
        f1 = quality.f1
    else:
        f1 = 0.0
    print(f"\nA2 [{name:30s}] top-1 F1 vs truth = {f1:.3f} "
          f"(candidates={report.n_candidates}, predicates={len(report)})")
    # Every configuration must at least produce some explanation from the
    # polluted D'; the full configuration must do reasonably well.
    assert len(report) > 0
    if name == "full":
        assert f1 > 0.5


def test_a2_delta_eps_term_is_load_bearing(decoy_case):
    """Ranking without the error-improvement term collapses (unbenchmarked).

    Without Δε the ranker trusts each predicate's fit to *its own
    candidate* — a self-fulfilling score — and surfaces descriptions that
    do not repair the error at all.
    """
    result, S, threshold, F, truth, __, polluted = decoy_case
    scores = {}
    for name in ("full", "ranker: no delta-eps"):
        report = RankedProvenance(CONFIGS[name]).debug(
            result, S, TooHigh(threshold), dprime_tids=polluted
        )
        quality = explanation_quality(report.best.predicate, F, truth)
        scores[name] = quality.f1
    print(f"\nA2 ranker ablation: full={scores['full']:.3f} "
          f"no-delta-eps={scores['ranker: no delta-eps']:.3f}")
    assert scores["full"] > scores["ranker: no delta-eps"] + 0.3
