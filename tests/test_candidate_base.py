"""Tests for CandidateBase / TweetBase incremental state."""
import numpy as np
import pytest

from repro.core.candidate_base import CandidateBase
from repro.core.entity_classifier import EntityClassifier
from repro.core.tweetbase import TweetBase


class TestCandidateBase:
    def test_add_mention_accumulates(self):
        cb = CandidateBase(3)
        cb.add_mention("x", np.array([1.0, 0.0, 0.0]))
        cb.add_mention("x", np.array([0.0, 1.0, 0.0]))
        rec = cb.get("x")
        assert rec.n_mentions == 2
        assert np.allclose(rec.global_embedding, [0.5, 0.5, 0.0])

    def test_incremental_mean_matches_batch_mean(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(20, 4))
        cb = CandidateBase(4)
        for v in vecs:
            cb.add_mention("k", v)
        assert np.allclose(cb.get("k").global_embedding, vecs.mean(axis=0), atol=1e-6)

    def test_bulk_add_equals_row_loop_and_numpy_mean(self):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(60, 5)).astype(np.float32)
        keys = rng.choice(["a", "b c", "d", "e"], size=60)
        loop, bulk = CandidateBase(5), CandidateBase(5)
        for k, v in zip(keys, vecs):
            loop.add_mention(k, v)
        bulk.add_mentions(keys, vecs)
        assert bulk.keys() == loop.keys()
        for k in loop.keys():
            assert bulk.get(k).n_mentions == loop.get(k).n_mentions
            assert np.array_equal(bulk.get(k).emb_sum, loop.get(k).emb_sum)
            mean = vecs[keys == k].astype(np.float64).mean(axis=0).astype(np.float32)
            assert np.array_equal(bulk.get(k).global_embedding, mean)
        # later batches add onto the running sums exactly as the loop does
        more = rng.normal(size=(30, 5)).astype(np.float32)
        more_keys = rng.choice(["a", "e", "new"], size=30)
        for k, v in zip(more_keys, more):
            loop.add_mention(k, v)
        bulk.add_mentions(more_keys, more)
        bulk.add_mentions([], np.zeros((0, 5)))
        for k in loop.keys():
            assert bulk.get(k).n_mentions == loop.get(k).n_mentions
            assert np.array_equal(bulk.get(k).emb_sum, loop.get(k).emb_sum)

    def test_contains_and_len(self):
        cb = CandidateBase(2)
        assert "a" not in cb and len(cb) == 0
        cb.add_mention("a", np.zeros(2))
        assert "a" in cb and len(cb) == 1

    def test_classify_all_labels_records(self):
        embs = np.random.default_rng(1).normal(size=(200, 2)).astype(np.float32)
        labels = (embs[:, 0] > 0).astype(np.float64)
        embs[:, 0] += labels * 2
        clf = EntityClassifier.build(2, seed=2)
        clf.train(embs, [f"k{i}" for i in range(200)], labels, epochs=60, patience=10)
        cb = CandidateBase(2)
        cb.add_mention("pos", np.array([3.0, 0.0]))
        cb.add_mention("neg", np.array([-3.0, 0.0]))
        cb.classify_all(clf)
        assert cb.get("pos").label == "entity"
        assert cb.get("neg").label == "non-entity"
        assert cb.entity_keys() == {"pos"}

    def test_classify_all_empty_noop(self):
        cb = CandidateBase(2)
        cb.classify_all(EntityClassifier.build(2))  # must not raise


class TestTweetBase:
    def test_add_and_get(self):
        tb = TweetBase()
        tb.add_sentence(1, 0, ["a", "b"])
        assert len(tb) == 1
        assert tb.get(1, 0).tokens == ["a", "b"]

    def test_record_mentions(self):
        tb = TweetBase()
        tb.add_sentence(1, 0, ["Andy", "Beshear"])
        tb.record_mention(1, 0, 0, 2, "andy beshear")
        assert tb.all_mentions() == [(1, 0, 0, 2, "andy beshear")]

    def test_missing_sentence_raises(self):
        tb = TweetBase()
        with pytest.raises(KeyError):
            tb.get(9, 9)
