"""A6 ablation: the array-program learners vs their scalar oracles
inside the Dataset Enumerator.

On the intel selection the tree ablation uses (|F| ≈ 4050), times
five layers twice — with the production code, and with the oracles in
``tests/reference/learn.py``:

* ``DatasetEnumerator.run`` (k-means cleaning + CN2-SD extension);
* ``SubgroupDiscovery.fit`` on the labels that run hands it (the
  batch-counted beam vs one mask and one quality call per child);
* every ``mdl_entropy_edges`` call of that fit (vector gains plus a
  shortlist rescan vs one scalar ``entropy`` pair per boundary);
* ``dominant_cluster_mask`` on the D' that run cleans (149 × 8): the
  one-fit cleaner vs ``refitting_dominant_cluster_mask``;
* the silhouette scoring of that cleaner's three fits (k = 2, 3, 4):
  one blocked distance matrix and a vectorized silhouette vs three
  ``loop_silhouette`` calls.

Asserts identical candidates (tids, origin, and rules with
``repr(quality)``), rules, MDL edges, cleaning masks and silhouettes
(by ``repr``), and at least 5x on the fit, MDL and the silhouette
scoring, and records the numbers, the repeat counts and
``environment()`` to ``BENCH_learn.json`` under ``REPRO_BENCH_DIR``
(see ``bench_output.py``; uploaded as a CI artifact next to
``BENCH_tree.json`` and ``BENCH_rank.json``).
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from reference.learn import (
    LoopSubgroupDiscovery,
    candidate_lines,
    loop_learners,
    loop_silhouette,
    refitting_dominant_cluster_mask,
    rule_lines,
    scalar_mdl_entropy_edges,
)
from repro.core import TooHigh, enumerator
from repro.core.enumerator import DatasetEnumerator
from repro.core.preprocessor import Preprocessor
from repro.learn import (
    SubgroupDiscovery,
    dominant_cluster_mask,
    kmeans,
    mdl_entropy_edges,
    standardize,
    subgroup,
)

from bench_output import bench_path, environment

# ``repro.learn.kmeans`` the attribute is the function; this is the module.
kmeans_module = importlib.import_module("repro.learn.kmeans")

BENCH_PATH = bench_path("BENCH_learn.json")
MIN_SPEEDUP = 5.0
#: Best-of repeats per timed layer: (reference, production).
REPEATS = {
    "enumerate_datasets": (2, 5),
    "subgroup_fit": (2, 5),
    "mdl": (2, 5),
    "kmeans_clean": (5, 10),
    "silhouette_scoring": (5, 20),
}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def intel_pre(intel_result, intel_selection):
    """Preprocessed intel selection and D' (not timed)."""
    S, __, dprime = intel_selection
    pre = Preprocessor().run(intel_result, S, TooHigh(4.0), agg_name="std_temp")
    return pre, dprime


def _captured_inputs(pre, dprime):
    """What ``DatasetEnumerator.run`` hands CN2-SD, its MDL calls and the
    k-means cleaner."""
    fits, mdl_calls, cleanings = [], [], []
    real_fit = SubgroupDiscovery.fit
    real_mdl = subgroup.mdl_entropy_edges

    def fit(self, *args, **kwargs):
        fits.append((args, kwargs))
        return real_fit(self, *args, **kwargs)

    def mdl(values, labels, *args):
        mdl_calls.append((values, labels))
        return real_mdl(values, labels, *args)

    def mask(X, seed=0):
        cleanings.append(X)
        return dominant_cluster_mask(X, seed=seed)

    with mock.patch.object(SubgroupDiscovery, "fit", fit), \
            mock.patch.object(subgroup, "mdl_entropy_edges", mdl), \
            mock.patch.object(enumerator, "dominant_cluster_mask", mask):
        DatasetEnumerator(seed=0).run(pre, dprime)
    assert len(fits) == 1 and len(cleanings) == 1
    return fits[0], mdl_calls, cleanings[0]


class TestLearnerAblation:
    def test_array_learners_vs_scalar_oracles(self, intel_pre):
        pre, dprime = intel_pre
        f_size = len(pre.F)
        assert f_size > 3000  # the paper-scale selection, |F| ≈ 4050

        outputs: dict[str, list[str]] = {}
        stage: dict[str, float] = {}
        for name, learners, repeats in zip(
            ("reference", "production"),
            (loop_learners, nullcontext),
            REPEATS["enumerate_datasets"],
        ):

            def run():
                candidates = DatasetEnumerator(seed=0).run(pre, dprime)
                outputs[name] = candidate_lines(candidates)

            with learners():
                stage[name] = _best_of(run, repeats)
        assert outputs["production"] == outputs["reference"]

        (args, kwargs), mdl_calls, X = _captured_inputs(pre, dprime)
        rules: dict[str, list[str]] = {}
        fit: dict[str, float] = {}
        for name, learner, repeats in zip(
            ("reference", "production"),
            (LoopSubgroupDiscovery, SubgroupDiscovery),
            REPEATS["subgroup_fit"],
        ):

            def run_fit():
                rules[name] = rule_lines(learner().fit(*args, **kwargs))

            fit[name] = _best_of(run_fit, repeats)
        assert rules["production"] == rules["reference"]
        assert rules["production"]  # the fit found subgroups

        edges: dict[str, list] = {}
        mdl: dict[str, float] = {}
        for name, function, repeats in zip(
            ("reference", "production"),
            (scalar_mdl_entropy_edges, mdl_entropy_edges),
            REPEATS["mdl"],
        ):

            def run_mdl():
                edges[name] = [function(v, y) for v, y in mdl_calls]

            mdl[name] = _best_of(run_mdl, repeats)
        assert edges["production"] == edges["reference"]

        masks: dict[str, np.ndarray] = {}
        clean: dict[str, float] = {}
        for name, cleaner, repeats in zip(
            ("reference", "production"),
            (refitting_dominant_cluster_mask, dominant_cluster_mask),
            REPEATS["kmeans_clean"],
        ):

            def run_clean():
                masks[name] = cleaner(X, seed=0)

            clean[name] = _best_of(run_clean, repeats)
        np.testing.assert_array_equal(masks["production"], masks["reference"])

        # The cleaner's contest input: standardized D', one fit per k.
        Z = np.nan_to_num(standardize(X)[0], nan=0.0)
        labelings = [kmeans(Z, k, seed=0).labels for k in (2, 3, 4)]
        scores: dict[str, list[str]] = {}
        scoring: dict[str, float] = {}
        for name, score_all, repeats in zip(
            ("reference", "production"),
            (
                lambda: [loop_silhouette(Z, labels, seed=0) for labels in labelings],
                lambda: kmeans_module._silhouettes(Z, labelings, 0),
            ),
            REPEATS["silhouette_scoring"],
        ):

            def run_scoring():
                scores[name] = [repr(score) for score in score_all()]

            scoring[name] = _best_of(run_scoring, repeats)
        assert scores["production"] == scores["reference"]

        def section(seconds: dict[str, float], layer: str) -> dict:
            reference, production = REPEATS[layer]
            return {
                "reference_seconds": round(seconds["reference"], 4),
                "production_seconds": round(seconds["production"], 4),
                "speedup": round(seconds["reference"] / seconds["production"], 2),
                "repeats": {"reference": reference, "production": production},
            }

        payload = {
            "workload": "intel",
            "f_size": f_size,
            "n_positives": int(np.asarray(args[1]).sum()),
            "n_candidates": len(outputs["production"]),
            "n_rules": len(rules["production"]),
            "mdl_calls": len(mdl_calls),
            "mdl_values": int(sum(len(values) for values, __ in mdl_calls)),
            "cleaning_input": list(X.shape),
            "cleaning_kept": int(masks["production"].sum()),
            "environment": environment(),
            "enumerate_datasets": section(stage, "enumerate_datasets"),
            "subgroup_fit": section(fit, "subgroup_fit"),
            "mdl": section(mdl, "mdl"),
            "kmeans_clean": section(clean, "kmeans_clean"),
            "silhouette_scoring": section(scoring, "silhouette_scoring"),
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

        print(
            f"\nA6: |F|={f_size}: enumerate_datasets "
            f"{payload['enumerate_datasets']['speedup']}x, CN2-SD fit "
            f"{payload['subgroup_fit']['speedup']}x, MDL "
            f"{payload['mdl']['speedup']}x ({len(mdl_calls)} calls), k-means "
            f"cleaning {payload['kmeans_clean']['speedup']}x, silhouette "
            f"scoring {payload['silhouette_scoring']['speedup']}x "
            f"({X.shape[0]} x {X.shape[1]}) -> {BENCH_PATH.name}"
        )
        assert payload["subgroup_fit"]["speedup"] >= MIN_SPEEDUP
        assert payload["mdl"]["speedup"] >= MIN_SPEEDUP
        assert payload["silhouette_scoring"]["speedup"] >= MIN_SPEEDUP
