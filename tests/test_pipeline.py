"""End-to-end tests of the RankedProvenance pipeline."""

import numpy as np
import pytest

from repro.core import PipelineConfig, RankedProvenance, TooHigh, TooLow
from repro.data import (
    IntelConfig,
    SyntheticConfig,
    dirty_group_rows,
    explanation_quality,
    generate_intel,
    generate_synthetic,
)
from repro.db import Database
from repro.errors import PipelineError


@pytest.fixture(scope="module")
def intel_setup():
    table, truth = generate_intel(
        IntelConfig(duration_minutes=480, interval_minutes=4.0, n_sensors=30,
                    failing_sensors=(7,))
    )
    db = Database()
    db.register(table)
    result = db.sql(
        "SELECT minute / 30 AS w, avg(temp) AS m, stddev(temp) AS s "
        "FROM readings GROUP BY minute / 30 ORDER BY w"
    )
    return db, result, table, truth


class TestIntelEndToEnd:
    def test_debug_finds_failing_sensor(self, intel_setup):
        __, result, __, truth = intel_setup
        std = np.asarray(result.column("s"))
        S = [i for i in range(result.num_rows) if std[i] > 8]
        F = result.inputs_for(S)
        dprime = np.asarray(F.tids)[np.asarray(F.column("temp")) > 100]
        report = RankedProvenance().debug(
            result, S, TooHigh(4.0), dprime_tids=dprime, agg_name="s"
        )
        assert len(report) > 0
        best = report.best
        quality = explanation_quality(best.predicate, F, truth)
        assert quality.f1 > 0.9
        assert best.relative_error_reduction > 0.9

    def test_without_dprime_still_works(self, intel_setup):
        __, result, __, truth = intel_setup
        std = np.asarray(result.column("s"))
        S = [i for i in range(result.num_rows) if std[i] > 8]
        report = RankedProvenance().debug(result, S, TooHigh(4.0), agg_name="s")
        assert len(report) > 0
        F = result.inputs_for(S)
        quality = explanation_quality(report.best.predicate, F, truth)
        assert quality.precision > 0.8

    def test_timings_recorded(self, intel_setup):
        __, result, __, __ = intel_setup
        std = np.asarray(result.column("s"))
        S = [i for i in range(result.num_rows) if std[i] > 8]
        report = RankedProvenance().debug(result, S, TooHigh(4.0), agg_name="s")
        assert set(report.timings) == {
            "preprocess", "enumerate_datasets", "enumerate_predicates", "rank",
        }
        assert report.total_time() > 0

    def test_report_rendering(self, intel_setup):
        __, result, __, __ = intel_setup
        std = np.asarray(result.column("s"))
        S = [i for i in range(result.num_rows) if std[i] > 8]
        report = RankedProvenance().debug(result, S, TooHigh(4.0), agg_name="s")
        text = report.to_text()
        assert "Ranked predicates" in text
        assert "eps" in text


class TestSyntheticEndToEnd:
    @pytest.mark.parametrize("kind", ["categorical", "numeric", "conjunction"])
    def test_recovers_hidden_predicate_family(self, kind):
        table, truth = generate_synthetic(
            SyntheticConfig(n_rows=4000, predicate_kind=kind, seed=5)
        )
        db = Database()
        db.register(table)
        result = db.sql(
            "SELECT grp, avg(measure) AS m FROM facts GROUP BY grp ORDER BY grp"
        )
        dirty = set(dirty_group_rows(table, truth).tolist())
        S = [i for i in range(result.num_rows) if result.row(i)[0] in dirty]
        values = np.asarray(result.column("m"), dtype=np.float64)
        unselected = np.delete(values, S)
        # The error-form default: "too high" relative to the clean groups.
        threshold = float(unselected.max())
        F = result.inputs_for(S)
        dprime = np.asarray(F.tids)[truth.label_mask(F)]
        # Restrict predicates to descriptive attributes (not the aggregated
        # measure itself): the user wants to know *which rows* are bad, not
        # "the rows with bad values".
        config = PipelineConfig(feature_columns=("a", "b", "x", "y"))
        report = RankedProvenance(config).debug(
            result, S, TooHigh(threshold), dprime_tids=dprime
        )
        assert len(report) > 0
        quality = explanation_quality(report.best.predicate, F, truth)
        assert quality.f1 > 0.7

    def test_config_variants_run(self):
        table, truth = generate_synthetic(SyntheticConfig(n_rows=2000, seed=2))
        db = Database()
        db.register(table)
        result = db.sql("SELECT grp, avg(measure) AS m FROM facts GROUP BY grp")
        values = np.asarray(result.column("m"))
        S = [int(np.argmax(values))]
        for config in (
            PipelineConfig(clean_strategy="none"),
            PipelineConfig(clean_strategy="nb"),
            PipelineConfig(extend_with_subgroups=False),
            PipelineConfig(weight_by_influence=True),
        ):
            report = RankedProvenance(config).debug(result, S, TooHigh(55.0))
            assert report.epsilon >= 0

    @pytest.mark.parametrize(
        "setting",
        [{"max_candidates": 0}, {"influence_quantile": 1.5}],
        ids=["max_candidates", "influence_quantile"],
    )
    def test_invalid_enumerator_config_fails_at_construction(self, setting):
        # The backend builds its Dataset Enumerator up front, so a bad
        # config fails here rather than in the first debug.
        with pytest.raises(PipelineError, match=next(iter(setting))):
            RankedProvenance(PipelineConfig(**setting))


class TestNegativeSpikeEndToEnd:
    def test_too_low_metric(self, donations_db):
        result = donations_db.sql(
            "SELECT day, sum(amount) AS total FROM donations GROUP BY day "
            "ORDER BY day"
        )
        totals = np.asarray(result.column("total"))
        S = [i for i in range(result.num_rows) if totals[i] < 0]
        if not S:
            S = [int(np.argmin(totals))]
        F = result.inputs_for(S)
        dprime = np.asarray(F.tids)[np.asarray(F.column("amount")) < 0]
        report = RankedProvenance().debug(
            result, S, TooLow(0.0), dprime_tids=dprime
        )
        assert len(report) > 0
        best_sql = report.best.predicate.to_sql()
        assert "REATTRIBUTION" in best_sql or "amount" in best_sql
