"""Tests for the Dataset Enumerator (D' cleaning + candidate generation)."""

import numpy as np
import pytest

from repro.core import DatasetEnumerator, Preprocessor, TooHigh
from repro.core.enumerator import CandidateSet
from repro.db import Database, Table
from repro.errors import PipelineError
from repro.learn.rules import Rule
from repro.db.predicate import equals


@pytest.fixture
def anomaly_setup():
    """60 normal readings + 15 anomalous ones from sensor 9, one group."""
    rng = np.random.default_rng(11)
    n = 75
    sensor = np.concatenate([rng.integers(1, 6, 60), np.full(15, 9)])
    temp = np.concatenate([rng.uniform(18, 24, 60), rng.uniform(100, 120, 15)])
    volt = np.concatenate([rng.uniform(2.6, 3.0, 60), rng.uniform(2.0, 2.3, 15)])
    db = Database()
    db.create_table(
        "r",
        {"sensorid": sensor, "temp": temp, "voltage": volt, "g": np.zeros(n, dtype=np.int64)},
        types={"sensorid": "int", "temp": "float", "voltage": "float", "g": "int"},
    )
    result = db.sql("SELECT g, avg(temp) AS m FROM r GROUP BY g")
    pre = Preprocessor().run(result, [0], TooHigh(30.0))
    bad_tids = np.arange(60, 75)
    return pre, bad_tids


class TestCleaning:
    def test_kmeans_cleaning_drops_stray_examples(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        # User accidentally brushed 3 normal tuples along with 15 bad ones.
        dprime = np.concatenate([bad_tids, np.array([0, 1, 2])])
        enumerator = DatasetEnumerator(clean_strategy="kmeans")
        cleaned = enumerator.clean_dprime(pre.F, dprime)
        assert set(cleaned.tolist()) == set(bad_tids.tolist())

    def test_none_strategy_keeps_everything(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        dprime = np.concatenate([bad_tids, np.array([0])])
        enumerator = DatasetEnumerator(clean_strategy="none")
        cleaned = enumerator.clean_dprime(pre.F, dprime)
        assert len(cleaned) == len(dprime)

    def test_nb_cleaning_runs(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        dprime = np.concatenate([bad_tids, np.array([0, 1])])
        enumerator = DatasetEnumerator(clean_strategy="nb")
        cleaned = enumerator.clean_dprime(pre.F, dprime)
        assert len(cleaned) >= len(bad_tids) * 0.5

    def test_small_dprime_never_cleaned(self, anomaly_setup):
        pre, __ = anomaly_setup
        dprime = np.array([60, 61, 62])
        enumerator = DatasetEnumerator(clean_strategy="kmeans")
        assert len(enumerator.clean_dprime(pre.F, dprime)) == 3

    def test_invalid_strategy_rejected(self):
        with pytest.raises(PipelineError):
            DatasetEnumerator(clean_strategy="magic")

    @pytest.mark.parametrize("max_candidates", [0, -1])
    def test_max_candidates_below_one_rejected(self, max_candidates):
        # Zero or a negative slice bound would silently drop every
        # candidate, and with them every predicate of every debug.
        with pytest.raises(PipelineError, match="max_candidates"):
            DatasetEnumerator(max_candidates=max_candidates)

    @pytest.mark.parametrize(
        "setting",
        [
            {"influence_quantile": 1.5},
            {"influence_quantile": -0.5},
            {"influence_quantile": float("nan")},
            {"fallback_quantiles": (2.0,)},
            {"fallback_quantiles": (0.5, -0.1)},
            {"min_keep_fraction": 2.0},
            {"min_keep_fraction": -0.1},
        ],
        ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()),
    )
    def test_fractions_outside_the_unit_interval_rejected(self, setting):
        (name,) = setting
        with pytest.raises(PipelineError, match=name):
            DatasetEnumerator(**setting)

    def test_unit_interval_bounds_accepted(self):
        DatasetEnumerator(
            influence_quantile=1.0,
            fallback_quantiles=(0.0, 1.0),
            min_keep_fraction=0.0,
            max_candidates=1,
        )


class TestCandidates:
    def test_with_dprime_produces_dprime_candidate(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        candidates = DatasetEnumerator().run(pre, bad_tids)
        assert candidates
        assert candidates[0].origin == "dprime"
        assert set(candidates[0].tids.tolist()) == set(bad_tids.tolist())

    def test_without_dprime_falls_back_to_influence(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        candidates = DatasetEnumerator().run(pre, ())
        assert candidates
        assert any("influence" in c.origin for c in candidates)
        # The highest-quantile influence candidate should be mostly bad tuples.
        best = candidates[0]
        overlap = len(set(best.tids.tolist()) & set(bad_tids.tolist()))
        assert overlap / len(best.tids) > 0.8

    def test_subgroup_candidates_attached_rules(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        candidates = DatasetEnumerator().run(pre, bad_tids)
        with_rules = [c for c in candidates if c.rules]
        assert with_rules  # subgroup discovery found descriptions

    def test_stray_dprime_tids_ignored(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        dprime = np.concatenate([bad_tids, np.array([99999])])
        candidates = DatasetEnumerator().run(pre, dprime)
        assert 99999 not in candidates[0].tids.tolist()

    def test_max_candidates_cap(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        candidates = DatasetEnumerator(max_candidates=2).run(pre, bad_tids)
        assert len(candidates) <= 2

    def test_extend_disabled_skips_subgroups(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        candidates = DatasetEnumerator(extend=False).run(pre, bad_tids)
        assert all(not c.rules for c in candidates)

    def test_dedupe_merges_rules_for_identical_sets(self):
        table = Table.from_columns({"x": [1.0, 2.0]})
        tids = np.array([0, 1])
        rule_a = Rule(predicate=equals("x", 1.0), source="a")
        rule_b = Rule(predicate=equals("x", 2.0), source="b")
        merged = DatasetEnumerator._dedupe(
            [
                CandidateSet(tids=tids, origin="one", rules=(rule_a,)),
                CandidateSet(tids=tids, origin="two", rules=(rule_b,)),
            ]
        )
        assert len(merged) == 1
        assert set(r.source for r in merged[0].rules) == {"a", "b"}

    def test_label_mask(self, anomaly_setup):
        pre, bad_tids = anomaly_setup
        candidate = CandidateSet(tids=bad_tids, origin="test")
        mask = candidate.label_mask(pre.F)
        assert int(mask.sum()) == len(bad_tids)

    def test_label_mask_parity_with_per_row_loop(self, anomaly_setup):
        """The np.isin vectorization matches the original set-lookup loop."""
        pre, bad_tids = anomaly_setup
        rng = np.random.default_rng(3)
        cases = [
            bad_tids,
            np.empty(0, dtype=np.int64),
            np.array([int(pre.F.tids[0])]),
            np.array([99999, -1]),  # tids absent from F
            rng.choice(np.asarray(pre.F.tids), size=7, replace=False),
        ]
        for tids in cases:
            candidate = CandidateSet(tids=np.asarray(tids, dtype=np.int64),
                                     origin="parity")
            vectorized = candidate.label_mask(pre.F)
            tid_set = set(int(t) for t in tids)
            loop = np.fromiter(
                (int(t) in tid_set for t in np.asarray(pre.F.tids)),
                dtype=bool,
                count=len(pre.F),
            )
            np.testing.assert_array_equal(vectorized, loop)
        empty = Table.from_columns({"x": np.empty(0, dtype=np.float64)})
        assert CandidateSet(
            tids=bad_tids, origin="parity"
        ).label_mask(empty).shape == (0,)
