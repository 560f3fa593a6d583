"""Tests for the Entity Classifier and its decision thresholds."""
import numpy as np
import pytest

from repro.core.entity_classifier import (
    ALPHA,
    BETA,
    LABEL_AMBIG,
    LABEL_ENTITY,
    LABEL_NON,
    EntityClassifier,
    length_feature,
)


class TestThresholds:
    def test_alpha_beta_values(self):
        assert ALPHA == 0.55 and BETA == 0.40

    @pytest.mark.parametrize(
        "p,label",
        [
            (0.9, LABEL_ENTITY),
            (0.55, LABEL_ENTITY),
            (0.54, LABEL_AMBIG),
            (0.41, LABEL_AMBIG),
            (0.40, LABEL_NON),
            (0.1, LABEL_NON),
        ],
    )
    def test_bucket(self, p, label):
        assert EntityClassifier.bucket(p) == label

    def test_bucket_of_an_array_labels_each_score(self):
        ps = np.array([0.9, 0.55, 0.54, 0.41, 0.40, 0.1, np.nextafter(0.40, 1.0)])
        labels = EntityClassifier.bucket(ps)
        assert labels.dtype == object
        assert labels.tolist() == [EntityClassifier.bucket(float(p)) for p in ps]
        assert labels[-1] == LABEL_AMBIG


class TestLengthFeature:
    def test_scales_with_string_length(self):
        assert length_feature("ab") == pytest.approx(0.2)
        assert length_feature("andy beshear") > length_feature("andy")


class TestTraining:
    def _separable(self, n=600, d=6, seed=0):
        rng = np.random.default_rng(seed)
        embs = rng.normal(size=(n, d)).astype(np.float32)
        labels = (embs[:, 0] > 0).astype(np.float64)
        embs[:, 0] += labels * 1.5  # widen the margin
        keys = [f"cand{i}" for i in range(n)]
        return embs, keys, labels

    def test_builds_with_plus_one_input(self):
        clf = EntityClassifier.build(6)
        assert clf.model.layers[0].W.shape[0] == 7

    def test_trains_to_high_validation_f1(self):
        embs, keys, labels = self._separable()
        clf = EntityClassifier.build(6, seed=1)
        hist = clf.train(embs, keys, labels, epochs=200, patience=20, seed=1)
        assert hist["validation_f1"] > 0.9
        assert clf.validation_f1 == hist["validation_f1"]

    def test_scores_shape_and_range(self):
        embs, keys, labels = self._separable(n=100)
        clf = EntityClassifier.build(6, seed=1)
        clf.train(embs, keys, labels, epochs=30, patience=10, seed=1)
        s = clf.scores(embs, keys)
        assert s.shape == (100,)
        assert np.all((s >= 0) & (s <= 1))

    def test_classify_returns_three_way_labels(self):
        embs, keys, labels = self._separable(n=100)
        clf = EntityClassifier.build(6, seed=1)
        clf.train(embs, keys, labels, epochs=30, patience=10, seed=1)
        out = [clf.bucket(p) for p in clf.scores(embs, keys)]
        assert set(out) <= {LABEL_ENTITY, LABEL_NON, LABEL_AMBIG}

    def test_untrained_validation_f1_is_nan(self):
        clf = EntityClassifier.build(4)
        assert np.isnan(clf.validation_f1)
