"""Tests for CandidateBase / TweetBase incremental state."""
import dataclasses

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.candidate_base import CandidateBase
from repro.core.entity_classifier import LABEL_AMBIG, EntityClassifier
from repro.core.syntactic import N_CATEGORIES
from repro.core.tweetbase import TweetBase

# one mention: key, syntactic category, and a 3-d embedding of which a
# base of width d pools the first d values
MENTION = st.tuples(
    st.sampled_from(["a", "b c", "d", "e f g"]),
    st.integers(0, N_CATEGORIES - 1),
    st.lists(st.floats(-1e6, 1e6, width=32), min_size=3, max_size=3),
)


def _pool(cb: CandidateBase, mentions: list) -> None:
    """Add ``mentions`` to ``cb`` as one batch."""
    embs = np.array([e[: cb.d_emb] for _, _, e in mentions], dtype=np.float32)
    cb.add_mentions(
        [k for k, _, _ in mentions], embs.reshape(len(mentions), cb.d_emb),
        [c for _, c, _ in mentions],
    )


class TestCandidateBase:
    def test_add_mention_accumulates(self):
        cb = CandidateBase(3)
        cb.add_mention("x", np.array([1.0, 0.0, 0.0]))
        cb.add_mention("x", np.array([0.0, 1.0, 0.0]))
        rec = cb.get("x")
        assert rec.n_mentions == 2
        assert np.allclose(cb.embeddings(["x"])[0], [0.5, 0.5, 0.0])

    def test_incremental_mean_matches_batch_mean(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(20, 4))
        cb = CandidateBase(4)
        for v in vecs:
            cb.add_mention("k", v)
        assert np.allclose(cb.embeddings(["k"])[0], vecs.mean(axis=0), atol=1e-6)

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
            assert np.array_equal(bulk.embeddings([k])[0], mean)
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

    def test_embeddings_equal_each_keys_row_loop_mean(self):
        """The gather and division give each key's float64 row-by-row sum
        over its mention count, cast to float32, bit for bit, in the
        order asked, a key repeated included."""
        rng = np.random.default_rng(5)
        cb = CandidateBase(7)
        keys = [f"k{i}" for i in range(300)]
        counts = rng.integers(1, 500, size=len(keys))
        vecs = rng.normal(size=(counts.sum(), 7)).astype(np.float32)
        cb.add_mentions(np.repeat(keys, counts), vecs)
        means = {}
        for k, rows in zip(keys, np.split(vecs, np.cumsum(counts)[:-1])):
            total = np.zeros(7)
            for row in rows:
                total += row
            means[k] = (total / len(rows)).astype(np.float32)
        asked = list(rng.permutation(keys)) + ["k3"]
        got = cb.embeddings(asked)
        assert got.dtype == np.float32 and got.shape == (len(asked), 7)
        expect = np.array([means[k] for k in asked])
        assert np.array_equal(got.view(np.uint32), expect.view(np.uint32))
        assert cb.embeddings([]).shape == (0, 7)

    @given(
        batches=st.lists(st.lists(MENTION, max_size=30), max_size=6),
        d_emb=st.sampled_from([0, 3]),
    )
    @example(batches=[[], [("a", 0, [1.0, 2.0, 3.0])], [], [("d", 5, [0.5, 0.0, -1.0])]], d_emb=3)
    @settings(max_examples=150, deadline=None)
    def test_any_split_equals_one_batch_of_the_union(self, batches, d_emb):
        """Pooling a mention sequence batch by batch, empty batches and
        batches of new keys only included, leaves the state one batch of
        the whole sequence leaves, bit for bit."""
        split, union = CandidateBase(d_emb), CandidateBase(d_emb)
        for batch in batches:
            _pool(split, batch)
        _pool(union, [m for batch in batches for m in batch])
        assert split.keys() == union.keys() and len(split) == len(union)
        for a, b in ((split.get(k), union.get(k)) for k in union.keys()):
            assert a.emb_sum.tobytes() == b.emb_sum.tobytes()
            assert np.array_equal(a.counts, b.counts) and a.n_mentions == b.n_mentions
        keys = union.keys()
        assert split.embeddings(keys).tobytes() == union.embeddings(keys).tobytes()
        pd.testing.assert_frame_equal(split.table(), union.table(), check_exact=True)

    def test_get_is_a_copy_of_the_row(self):
        """``get`` reads a candidate's row; later pooling leaves what it
        returned as it was, and the record cannot be changed."""
        cb = CandidateBase(2)
        embs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        cb.add_mentions(["a", "b", "a"], embs, [0, 1, 0])
        rec = cb.get("a")
        assert (rec.key, rec.n_mentions, rec.label) == ("a", 2, LABEL_AMBIG)
        assert np.isnan(rec.score)
        assert rec.emb_sum.tolist() == [6.0, 8.0] and rec.counts.tolist() == [2, 0, 0, 0, 0, 0]
        cb.add_mentions(["a"], np.ones((1, 2)), [3])
        assert rec.emb_sum.tolist() == [6.0, 8.0] and rec.counts.tolist() == [2, 0, 0, 0, 0, 0]
        assert cb.get("a").n_mentions == 3 and cb.get("a").counts[3] == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.label = "entity"
        with pytest.raises(KeyError):
            cb.get("missing")

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
