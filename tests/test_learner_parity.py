"""The array-program learners against their scalar oracles.

``tests/reference/learn.py`` keeps the Dataset Enumerator's learners in
their one-call-per-candidate form: the scalar MDL recursion, the
per-child CN2-SD beam, the per-point silhouette and the refitting
k-means cleaner. Every answer here must match them bit for bit: MDL cut
points, CN2-SD rules with ``repr(quality)`` and coverage, silhouettes
by ``repr``, the cleaning mask, and whole enumeration stages and
debugs.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.learn import (
    FloatSumSubgroupDiscovery,
    LoopSubgroupDiscovery,
    candidate_lines,
    loop_learners,
    loop_silhouette,
    refitting_dominant_cluster_mask,
    rule_lines,
    scalar_mdl_entropy_edges,
)
from repro.core import PipelineConfig, RankedProvenance, TooHigh
from repro.core.enumerator import DatasetEnumerator
from repro.core.preprocessor import Preprocessor
from repro.data import BOOTSTRAP_QUERIES, IntelConfig, generate_intel, load_dataset
from repro.db import Database, Table
from repro.frontend import Brush, DBWipesSession
from repro.learn import (
    SubgroupDiscovery,
    choose_k,
    discretize,
    dominant_cluster_mask,
    kmeans,
    mdl_entropy_edges,
    silhouette,
)

# ``repro.learn.kmeans`` the attribute is the function; this is the module.
kmeans_module = importlib.import_module("repro.learn.kmeans")

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


# ----------------------------------------------------------------------
# MDL
# ----------------------------------------------------------------------


def _mdl_case(seed: int, n: int, n_distinct: int, nan_share: float, label_mode: str):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, n_distinct, n) * rng.uniform(0.1, 10.0)
    values = values + rng.normal(0, 1e-3, n) * (n_distinct > n // 2)
    values[rng.random(n) < nan_share] = np.nan
    if label_mode == "one-class-pos":
        labels = np.ones(n, dtype=bool)
    elif label_mode == "one-class-neg":
        labels = np.zeros(n, dtype=bool)
    elif label_mode == "threshold":
        labels = (np.nan_to_num(values) > np.nanmedian(values)) ^ (rng.random(n) < 0.05)
    else:
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
    return values, labels


def _mirrored_halves(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positives in the first and last quarter: two tied best cuts."""
    labels = np.zeros(n, dtype=bool)
    labels[: n // 4] = True
    labels[n - n // 4:] = True
    return np.arange(n, dtype=np.float64), labels


class TestMDLParity:
    @settings(max_examples=150, deadline=None)
    @given(
        SEEDS,
        st.integers(min_value=4, max_value=3000),
        st.sampled_from([2, 5, 40, 10_000]),
        st.sampled_from([0.0, 0.0, 0.1, 0.6]),
        st.sampled_from(["random", "threshold", "one-class-pos", "one-class-neg"]),
        st.sampled_from([1, 2, 4]),
    )
    def test_edges_match_the_scalar_recursion(
        self, seed, n, n_distinct, nan_share, label_mode, max_depth
    ):
        values, labels = _mdl_case(seed, n, n_distinct, nan_share, label_mode)
        got = mdl_entropy_edges(values, labels, max_depth)
        want = scalar_mdl_entropy_edges(values, labels, max_depth)
        assert [repr(edge) for edge in got] == [repr(edge) for edge in want]

    def test_every_intel_column_matches(self):
        table, __ = generate_intel(IntelConfig(failure_onset_frac=0.7))
        labels = np.asarray(table.column("temp")) > 100.0
        for name in table.schema.names:
            if not table.schema.type_of(name).is_numeric:
                continue
            values = np.asarray(table.column(name), dtype=np.float64)
            got = mdl_entropy_edges(values, labels)
            assert got == scalar_mdl_entropy_edges(values, labels), name

    @pytest.mark.parametrize("max_depth", [1, 4])
    def test_tied_gains_keep_the_first_boundary(self, max_depth):
        # Mirror-image halves give the two best boundaries equal gains;
        # the first one wins, as in the scalar scan's strict ``>``. At
        # depth 1 only that first cut is kept.
        values, labels = _mirrored_halves(40)
        got = mdl_entropy_edges(values, labels, max_depth=max_depth)
        assert got == scalar_mdl_entropy_edges(values, labels, max_depth=max_depth)
        assert got[0] == 9.5

    def test_ulp_noise_in_vector_gains_never_moves_a_cut(self, monkeypatch):
        # np.log2 and math.log2 disagree in the last bit on some inputs,
        # so the vector gains are only ulp-close to the scalar ones. Noise
        # of a few ulps must not change any cut: the scalar rescan of the
        # shortlist decides, which a bare argmax over vector gains would not.
        rng = np.random.default_rng(0)
        exact = discretize._entropies

        def noisy(pos, neg):
            out = exact(pos, neg)
            return out + rng.integers(-3, 4, len(out)) * np.spacing(out)

        monkeypatch.setattr(discretize, "_entropies", noisy)
        for n in (12, 40, 100, 302):
            values, labels = _mirrored_halves(n)
            for max_depth in (1, 2, 4):
                got = mdl_entropy_edges(values, labels, max_depth=max_depth)
                want = scalar_mdl_entropy_edges(values, labels, max_depth=max_depth)
                assert got == want, (n, max_depth)


# ----------------------------------------------------------------------
# CN2-SD
# ----------------------------------------------------------------------


def _subgroup_table(seed: int, n: int) -> tuple[Table, np.ndarray]:
    """Float, int, categorical and bool columns, planted positives."""
    rng = np.random.default_rng(seed)
    kinds = np.array(["a", "b", "c", "d", None], dtype=object)
    k = kinds[rng.integers(0, len(kinds), n)]
    x = np.round(rng.uniform(0, 100, n), int(rng.integers(0, 3)))
    x[rng.random(n) < 0.05] = np.nan
    z = rng.integers(0, 12, n)
    flag = rng.random(n) < 0.3
    labels = (k == "a") & (np.nan_to_num(x) > 40) | (z > 9) | flag & (z < 2)
    labels ^= rng.random(n) < 0.05
    table = Table.from_columns(
        {"k": list(k), "x": x, "z": z, "flag": flag},
        types={"k": "str", "x": "float", "z": "int", "flag": "bool"},
    )
    return table, labels


class TestSubgroupParity:
    @settings(max_examples=60, deadline=None)
    @given(
        SEEDS,
        st.integers(min_value=20, max_value=400),
        st.sampled_from([0.3, 0.5, 0.9]),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([1, 2, 25]),
    )
    def test_rules_match_the_per_child_beam(
        self, seed, n, gamma, beam_width, max_conditions, min_coverage
    ):
        table, labels = _subgroup_table(seed, n)
        params = dict(
            gamma=gamma,
            beam_width=beam_width,
            max_conditions=max_conditions,
            min_coverage=min_coverage,
        )
        got = SubgroupDiscovery(**params).fit(table, labels)
        want = LoopSubgroupDiscovery(**params).fit(table, labels)
        assert rule_lines(got) == rule_lines(want)

    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.integers(min_value=20, max_value=400))
    def test_default_gamma_matches_the_float_sum_beam(self, seed, n):
        # At γ = 0.5 every weight is dyadic, so the row-weight float sums
        # the beam used before it was batched are exact, and agree.
        table, labels = _subgroup_table(seed, n)
        got = SubgroupDiscovery().fit(table, labels)
        want = FloatSumSubgroupDiscovery().fit(table, labels)
        assert rule_lines(got) == rule_lines(want)

    def test_shared_edges_and_feature_subset_match(self):
        table, labels = _subgroup_table(5, 300)
        edges = {"x": (10.0, 50.0, 90.0), "z": (3.0, 6.0)}
        for features in (["x"], ["z", "k"], ["k"], ["flag"], None):
            got = SubgroupDiscovery().fit(table, labels, features, edges)
            want = LoopSubgroupDiscovery().fit(table, labels, features, edges)
            assert rule_lines(got) == rule_lines(want), features

    def test_repeated_edges_are_one_clause(self):
        # A repeated shared edge gives two conditions with equal clauses;
        # children reached through either are one clause set to the dedupe.
        edges = {"x": (30.0, 30.0, 70.0), "z": (2.0, 5.0, 5.0, 8.0)}
        for seed in range(4):
            table, labels = _subgroup_table(seed, 300)
            for beam_width in (1, 2, 3):
                params = dict(beam_width=beam_width, max_conditions=3)
                got = SubgroupDiscovery(**params).fit(
                    table, labels, ["x", "z", "k"], edges
                )
                want = LoopSubgroupDiscovery(**params).fit(
                    table, labels, ["x", "z", "k"], edges
                )
                assert rule_lines(got) == rule_lines(want), (seed, beam_width)

    def test_zero_gamma_and_max_values_zero_match(self):
        table, labels = _subgroup_table(9, 300)
        for params in ({"gamma": 0.0}, {"gamma": 1.0}, {"max_values": 0}):
            got = SubgroupDiscovery(n_rules=4, **params).fit(table, labels)
            want = LoopSubgroupDiscovery(n_rules=4, **params).fit(table, labels)
            assert rule_lines(got) == rule_lines(want), params


# ----------------------------------------------------------------------
# k-means cleaning
# ----------------------------------------------------------------------


def _blobs(seed: int, n: int, n_blobs: int, dims: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 10, (n_blobs, dims))
    return centers[rng.integers(0, n_blobs, n)] + rng.normal(0, 1, (n, dims))


class TestKMeansParity:
    @settings(max_examples=150, deadline=None)
    @given(
        SEEDS,
        st.integers(min_value=2, max_value=1100),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([None, None, 0, 1]),
        st.sampled_from(["random", "kmeans", "singleton"]),
    )
    @example(5, 1100, 8, 6, 3, None, "singleton")
    @example(6, 513, 8, 3, -3, 1, "kmeans")
    @example(7, 130, 2, 2, 0, 0, "random")
    @example(8, 9, 1, 2, 0, None, "singleton")
    def test_silhouette_matches_the_per_point_loop(
        self, seed, n, dims, n_labels, log_scale, decimals, label_mode
    ):
        # n crosses numpy's pairwise-sum widths (8, 128) and the 512-point
        # subsample; rounding makes ties and all-zero distances.
        rng = np.random.default_rng(seed)
        X = _blobs(seed, n, n_labels, dims) * 10.0**log_scale
        if decimals is not None:
            X = np.round(X, decimals)
        if label_mode == "kmeans" and n >= n_labels:
            labels = kmeans(X, n_labels, seed=seed % 7).labels
        else:
            labels = rng.integers(0, n_labels, n)
        if label_mode == "singleton":
            # A one-point cluster; beyond 512 points it is usually missing
            # from the subsample.
            labels[rng.integers(n)] = n_labels
        got = silhouette(X, labels, seed=seed % 7)
        want = loop_silhouette(X, labels, seed=seed % 7)
        assert repr(got) == repr(want)

    def test_label_missing_from_the_subsample(self):
        n = 700
        X = _blobs(3, n, 2, 4)
        picks = np.random.default_rng(0).choice(n, size=512, replace=False)
        unpicked = np.setdiff1d(np.arange(n), picks)
        labels = np.zeros(n, dtype=np.int64)
        labels[unpicked[:5]] = 1  # only outside the sample: one label left
        assert silhouette(X, labels) == loop_silhouette(X, labels) == 0.0
        labels[picks[:n // 3]] = 2  # two labels in the sample, three in X
        got, want = silhouette(X, labels), loop_silhouette(X, labels)
        assert repr(got) == repr(want) and got != 0.0

    @pytest.mark.parametrize("n", [40, 600, 1100])
    def test_contest_scores_every_k_on_one_distance_matrix(self, n, monkeypatch):
        built, scores = [], []
        real_distances = kmeans_module._distances
        real_mean = kmeans_module._mean_silhouette

        def distances(X):
            built.append(len(X))
            return real_distances(X)

        def mean_silhouette(D, labels):
            scores.append(real_mean(D, labels))
            return scores[-1]

        monkeypatch.setattr(kmeans_module, "_distances", distances)
        monkeypatch.setattr(kmeans_module, "_mean_silhouette", mean_silhouette)
        X = _blobs(n, n, 3, 5)
        choose_k(X, seed=2)
        assert built == [min(n, 512)]
        want = [
            loop_silhouette(X, kmeans(X, k, seed=2).labels, seed=2)
            for k in (2, 3, 4)
        ]
        assert [repr(score) for score in scores] == [repr(w) for w in want]

    def test_cluster_row_sums_are_numpy_1d_sums_at_every_width(self):
        # The silhouette is exact only while a fast-axis row sum is the
        # pairwise sum numpy gives a 1-D array; CI installs an unpinned
        # numpy, so check every width the silhouette can meet.
        rng = np.random.default_rng(0)
        for width in range(1101):
            G = rng.uniform(0, 10.0 ** rng.integers(-3, 4), (3, width))
            for labels in (np.zeros(width, dtype=np.int64), np.arange(width) % 3):
                clusters, sizes, sums = kmeans_module._cluster_row_sums(G, labels)
                for c, cluster in enumerate(clusters):
                    members = labels == cluster
                    assert sizes[c] == members.sum()
                    for i in range(len(G)):
                        want = G[i][members].sum()
                        assert repr(sums[i, c]) == repr(want), (
                            f"numpy {np.__version__}: row sum of width "
                            f"{members.sum()} is {sums[i, c]!r}, "
                            f"1-D sum is {want!r}"
                        )

    @settings(max_examples=40, deadline=None)
    @given(
        SEEDS,
        st.integers(min_value=0, max_value=1100),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
    )
    def test_cleaning_mask_matches_the_refit(self, seed, n, n_blobs, dims):
        X = _blobs(seed, n, n_blobs, dims)
        got = dominant_cluster_mask(X, seed=seed % 7)
        want = refitting_dominant_cluster_mask(X, seed=seed % 7)
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# whole stages
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def intel_stage():
    table, __ = generate_intel(IntelConfig(failure_onset_frac=0.7))
    db = Database()
    db.register(table)
    result = db.sql(
        "SELECT minute / 30 AS w, avg(temp) AS avg_temp, "
        "stddev(temp) AS std_temp FROM readings GROUP BY minute / 30"
    )
    std = np.asarray(result.column("std_temp"))
    S = [i for i in range(result.num_rows) if std[i] > 4 * float(np.median(std))]
    pre = Preprocessor().run(result, S, TooHigh(4.0), agg_name="std_temp")
    dprime = np.asarray(pre.F.tids)[np.asarray(pre.F.column("temp")) > 100.0]
    return db, result, S, pre, dprime


class TestStageParity:
    def test_dataset_enumerator_matches_the_oracles(self, intel_stage):
        __, __, __, pre, dprime = intel_stage
        got = DatasetEnumerator(seed=0).run(pre, dprime)
        with loop_learners():
            want = DatasetEnumerator(seed=0).run(pre, dprime)
        assert any(candidate.rules for candidate in got)
        assert candidate_lines(got) == candidate_lines(want)

    def test_debug_matches_the_oracles(self, intel_stage):
        __, result, S, pre, dprime = intel_stage

        def ranked():
            report = RankedProvenance(PipelineConfig()).debug(
                result, S, TooHigh(4.0), dprime_tids=dprime, agg_name="std_temp"
            )
            return [
                f"{r.predicate.to_sql()}|{r.score!r}|{r.epsilon_after!r}|{r.source}"
                for r in report
            ]

        got = ranked()
        with loop_learners():
            want = ranked()
        assert got and got == want

    @pytest.mark.parametrize("merge", [False, True], ids=["nomerge", "merge"])
    def test_fec_walkthrough_matches_the_oracles(self, merge):
        db = load_dataset("fec")

        def ranked():
            session = DBWipesSession(db, PipelineConfig(merge_predicates=merge))
            session.execute(BOOTSTRAP_QUERIES["fec"])
            session.select_results(Brush.below(0.0))
            session.zoom()
            session.select_inputs(Brush.below(0.0))
            session.set_metric("too_low", threshold=0.0)
            return [
                f"{r.predicate.to_sql()}|{r.score!r}|{r.epsilon_after!r}|"
                f"{r.candidate_origin}|{r.source}"
                for r in session.debug()
            ]

        got = ranked()
        with loop_learners():
            want = ranked()
        assert any(line.endswith("subgroup|cn2sd") for line in got)
        assert got == want
