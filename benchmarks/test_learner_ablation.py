"""A6 ablation: the array-program learners vs their scalar oracles
inside the Dataset Enumerator.

On the intel selection the tree ablation uses (|F| ≈ 4050), times
three layers twice — with the production code, and with the oracles in
``tests/reference/learn.py`` patched in:

* ``DatasetEnumerator.run`` (k-means cleaning + CN2-SD extension);
* ``SubgroupDiscovery.fit`` on the labels that run hands it (the
  batch-counted beam vs one mask and one quality call per child);
* every ``mdl_entropy_edges`` call of that fit (vector gains plus a
  shortlist rescan vs one scalar ``entropy`` pair per boundary).

Asserts identical candidates (tids, origin, and rules with
``repr(quality)``) and rules, and at least 5x on both the fit and MDL,
and records the numbers to ``BENCH_learn.json`` under
``REPRO_BENCH_DIR`` (see ``bench_output.py``; uploaded as a CI
artifact next to ``BENCH_tree.json`` and ``BENCH_rank.json``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from reference.learn import (
    LoopSubgroupDiscovery,
    candidate_lines,
    loop_learners,
    rule_lines,
    scalar_mdl_entropy_edges,
)
from repro.core import TooHigh
from repro.core.enumerator import DatasetEnumerator
from repro.core.preprocessor import Preprocessor
from repro.learn import SubgroupDiscovery, mdl_entropy_edges, subgroup

from bench_output import bench_path

BENCH_PATH = bench_path("BENCH_learn.json")
MIN_SPEEDUP = 5.0


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


def _captured_fit(pre, dprime):
    """The arguments ``DatasetEnumerator.run`` gives CN2-SD and its MDL calls."""
    fits, mdl_calls = [], []
    real_fit = SubgroupDiscovery.fit
    real_mdl = subgroup.mdl_entropy_edges

    def fit(self, *args, **kwargs):
        fits.append((args, kwargs))
        return real_fit(self, *args, **kwargs)

    def mdl(values, labels, *args):
        mdl_calls.append((values, labels))
        return real_mdl(values, labels, *args)

    with mock.patch.object(SubgroupDiscovery, "fit", fit), \
            mock.patch.object(subgroup, "mdl_entropy_edges", mdl):
        DatasetEnumerator(seed=0).run(pre, dprime)
    assert len(fits) == 1
    return fits[0], mdl_calls


class TestLearnerAblation:
    def test_array_learners_vs_scalar_oracles(self, intel_pre):
        pre, dprime = intel_pre
        f_size = len(pre.F)
        assert f_size > 3000  # the paper-scale selection, |F| ≈ 4050

        outputs: dict[str, list[str]] = {}
        stage: dict[str, float] = {}
        for name, learners, repeats in (
            ("reference", loop_learners, 2),
            ("production", nullcontext, 5),
        ):

            def run():
                candidates = DatasetEnumerator(seed=0).run(pre, dprime)
                outputs[name] = candidate_lines(candidates)

            with learners():
                stage[name] = _best_of(run, repeats)
        assert outputs["production"] == outputs["reference"]

        (args, kwargs), mdl_calls = _captured_fit(pre, dprime)
        rules: dict[str, list[str]] = {}
        fit: dict[str, float] = {}
        for name, learner, repeats in (
            ("reference", LoopSubgroupDiscovery, 2),
            ("production", SubgroupDiscovery, 5),
        ):

            def run_fit():
                rules[name] = rule_lines(learner().fit(*args, **kwargs))

            fit[name] = _best_of(run_fit, repeats)
        assert rules["production"] == rules["reference"]
        assert rules["production"]  # the fit found subgroups

        edges: dict[str, list] = {}
        mdl: dict[str, float] = {}
        for name, function, repeats in (
            ("reference", scalar_mdl_entropy_edges, 2),
            ("production", mdl_entropy_edges, 5),
        ):

            def run_mdl():
                edges[name] = [function(v, y) for v, y in mdl_calls]

            mdl[name] = _best_of(run_mdl, repeats)
        assert edges["production"] == edges["reference"]

        def section(seconds: dict[str, float]) -> dict:
            return {
                "reference_seconds": round(seconds["reference"], 4),
                "production_seconds": round(seconds["production"], 4),
                "speedup": round(seconds["reference"] / seconds["production"], 2),
            }

        payload = {
            "workload": "intel",
            "f_size": f_size,
            "n_positives": int(np.asarray(args[1]).sum()),
            "n_candidates": len(outputs["production"]),
            "n_rules": len(rules["production"]),
            "mdl_calls": len(mdl_calls),
            "mdl_values": int(sum(len(values) for values, __ in mdl_calls)),
            "cpu_count": os.cpu_count(),
            "enumerate_datasets": section(stage),
            "subgroup_fit": section(fit),
            "mdl": section(mdl),
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

        print(
            f"\nA6: |F|={f_size}: enumerate_datasets "
            f"{payload['enumerate_datasets']['speedup']}x, CN2-SD fit "
            f"{payload['subgroup_fit']['speedup']}x, MDL "
            f"{payload['mdl']['speedup']}x ({len(mdl_calls)} calls) "
            f"-> {BENCH_PATH.name}"
        )
        assert payload["subgroup_fit"]["speedup"] >= MIN_SPEEDUP
        assert payload["mdl"]["speedup"] >= MIN_SPEEDUP
