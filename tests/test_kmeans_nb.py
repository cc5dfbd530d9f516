"""Tests for k-means clustering and naive Bayes."""

import numpy as np
import pytest

from repro.db import Table
from repro.errors import LearnError, NotFittedError
from repro.learn import (
    MixedNaiveBayes,
    choose_k,
    dominant_cluster_mask,
    kmeans,
    silhouette,
    standardize,
)


def two_blobs(n1=60, n2=20, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, (n1, 2))
    b = rng.normal(10, 1, (n2, 2))
    return np.concatenate([a, b])


class TestKMeans:
    def test_recovers_two_blobs(self):
        X = two_blobs()
        result = kmeans(X, 2, seed=1)
        labels_a = set(result.labels[:60].tolist())
        labels_b = set(result.labels[60:].tolist())
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_inertia_decreases_with_k(self):
        X = two_blobs()
        inertia_1 = kmeans(X, 1, seed=0).inertia
        inertia_2 = kmeans(X, 2, seed=0).inertia
        inertia_3 = kmeans(X, 3, seed=0).inertia
        assert inertia_1 > inertia_2 >= inertia_3

    def test_k_equals_n_zero_inertia(self):
        X = np.array([[0.0], [1.0], [2.0]])
        result = kmeans(X, 3, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_cluster_sizes_sum(self):
        X = two_blobs()
        result = kmeans(X, 2, seed=0)
        assert result.cluster_sizes().sum() == len(X)

    def test_input_validation(self):
        with pytest.raises(LearnError):
            kmeans(np.zeros((2, 2)), 3)
        with pytest.raises(LearnError):
            kmeans(np.zeros(5), 2)
        with pytest.raises(LearnError):
            kmeans(np.zeros((5, 2)), 0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        # With no Lloyd step there is no clustering: every label 0 and an
        # infinite inertia came back instead.
        with pytest.raises(LearnError, match="max_iter"):
            kmeans(two_blobs(), 2, max_iter=max_iter)

    def test_deterministic_given_seed(self):
        X = two_blobs()
        r1 = kmeans(X, 2, seed=42)
        r2 = kmeans(X, 2, seed=42)
        assert np.array_equal(r1.labels, r2.labels)

    def test_standardize(self):
        X = np.array([[1.0, 10.0], [3.0, 10.0]])
        Z, mean, std = standardize(X)
        assert mean.tolist() == [2.0, 10.0]
        assert Z[:, 0].tolist() == [-1.0, 1.0]
        # Zero-variance column passes through centered, not divided by 0.
        assert Z[:, 1].tolist() == [0.0, 0.0]


class TestModelSelection:
    def test_silhouette_high_for_separated(self):
        X = two_blobs()
        result = kmeans(X, 2, seed=0)
        assert silhouette(X, result.labels) > 0.7

    def test_silhouette_single_cluster_zero(self):
        X = two_blobs()
        assert silhouette(X, np.zeros(len(X), dtype=np.int64)) == 0.0

    @pytest.mark.parametrize("n_labels", [79, 81])
    def test_silhouette_label_count_must_match(self, n_labels):
        X = two_blobs()
        labels = np.arange(n_labels) % 2
        with pytest.raises(LearnError, match="labels"):
            silhouette(X, labels)

    def test_choose_k_two_blobs(self):
        assert choose_k(two_blobs(), seed=0) == 2

    def test_choose_k_one_blob(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (80, 2))
        assert choose_k(X, seed=0) == 1

    def test_dominant_cluster_keeps_majority(self):
        X = two_blobs(60, 20)
        mask = dominant_cluster_mask(X, seed=1)
        assert mask[:60].all()
        assert not mask[60:].any()

    def test_dominant_cluster_keeps_all_when_uniform(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (50, 3))
        mask = dominant_cluster_mask(X, seed=0)
        assert mask.all()

    def test_dominant_cluster_empty_input(self):
        assert dominant_cluster_mask(np.zeros((0, 2))).tolist() == []


class TestNaiveBayes:
    @pytest.fixture
    def mixed_table(self):
        rng = np.random.default_rng(4)
        n = 300
        labels = rng.random(n) < 0.4
        x = np.where(labels, rng.normal(5, 1, n), rng.normal(0, 1, n))
        k = np.array(
            [
                ("hot" if rng.random() < 0.8 else "cold")
                if flag
                else ("cold" if rng.random() < 0.8 else "hot")
                for flag in labels
            ],
            dtype=object,
        )
        table = Table.from_columns({"x": x, "k": list(k)}, types={"x": "float", "k": "str"})
        return table, labels

    def test_classifies_separable(self, mixed_table):
        table, labels = mixed_table
        nb = MixedNaiveBayes().fit(table, labels)
        accuracy = (nb.predict(table) == labels).mean()
        assert accuracy > 0.9

    def test_proba_in_unit_interval(self, mixed_table):
        table, labels = mixed_table
        nb = MixedNaiveBayes().fit(table, labels)
        probabilities = nb.predict_proba(table)
        assert (probabilities >= 0).all() and (probabilities <= 1).all()

    def test_density_score_flags_outliers(self):
        rng = np.random.default_rng(9)
        x = np.concatenate([rng.normal(0, 1, 50), [50.0]])
        table = Table.from_columns({"x": x})
        nb = MixedNaiveBayes().fit(table, np.ones(len(x), dtype=bool))
        scores = nb.density_score(table)
        assert scores[-1] == scores.min()

    def test_unseen_category_smoothed(self, mixed_table):
        table, labels = mixed_table
        nb = MixedNaiveBayes().fit(table, labels)
        new = Table.from_columns(
            {"x": [0.0], "k": ["never_seen"]}, types={"x": "float", "k": "str"}
        )
        probability = nb.predict_proba(new)[0]
        assert 0.0 < probability < 1.0

    def test_not_fitted(self, mixed_table):
        table, __ = mixed_table
        with pytest.raises(NotFittedError):
            MixedNaiveBayes().predict(table)

    def test_validation(self, mixed_table):
        table, __ = mixed_table
        with pytest.raises(LearnError):
            MixedNaiveBayes(laplace=0)
        with pytest.raises(LearnError):
            MixedNaiveBayes().fit(table, np.array([True]))
