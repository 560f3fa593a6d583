"""Tests for shared Local EMD machinery (repro.local_emd.base)."""
import numpy as np
import pandas as pd
import pytest

from repro.local_emd.base import (
    MENTIONS_SCHEMA,
    Sentences,
    bio_spans,
    is_special,
    mention_columns,
    sentence_nondiscriminative,
    spans_to_bio,
    surface_features,
)


def _decoded(tags) -> list:
    """``bio_spans`` of the one sentence ``tags`` as ``(sentence, start,
    length)`` triples."""
    spans = bio_spans(np.asarray(tags), [0, len(tags)])
    return list(zip(*map(np.ndarray.tolist, spans)))


def _tagged(system, tweets: pd.DataFrame) -> pd.DataFrame:
    """Local EMD's mentions of ``tweets``, tagged as one chunk."""
    sents = Sentences.from_frame(tweets)
    return pd.DataFrame(mention_columns(sents, system.tag_chunk(sents)[0]))


class TestIsSpecial:
    @pytest.mark.parametrize("tok", ["#covid", "@user", "http://t.co/x"])
    def test_special(self, tok):
        assert is_special(tok)

    @pytest.mark.parametrize("tok", ["covid", "Covid", "UK", "a#b"])
    def test_not_special(self, tok):
        assert not is_special(tok)


class TestNondiscriminative:
    def test_allcaps_sentence(self):
        assert sentence_nondiscriminative(["WE", "LOVE", "CAPS"])

    def test_lower_sentence(self):
        assert sentence_nondiscriminative(["quiet", "words", "here"])

    def test_title_sentence(self):
        assert sentence_nondiscriminative(["Every", "Word", "Capped"])

    def test_mixed_sentence_is_discriminative(self):
        assert not sentence_nondiscriminative(["Italy", "is", "rising"])

    def test_specials_ignored(self):
        assert sentence_nondiscriminative(["#tag", "ALL", "CAPS"])

    def test_empty_sentence(self):
        assert sentence_nondiscriminative([])


def _one_sentence(tokens: list) -> np.ndarray:
    """``surface_features`` of the one sentence ``tokens``."""
    return surface_features(tokens, [0, len(tokens)])


class TestSurfaceFeatures:
    def test_shape(self):
        f = _one_sentence(["Italy", "is", "rising"])
        assert f.shape == (3, 9)

    def test_cap_initial(self):
        f = _one_sentence(["Italy", "is", "rising"])
        assert f[0, 0] == 1 and f[1, 0] == 0

    def test_allcaps_flag(self):
        f = _one_sentence(["UK", "is", "great"])
        assert f[0, 1] == 1 and f[0, 0] == 0

    def test_lower_flag(self):
        f = _one_sentence(["Italy", "is"])
        assert f[1, 2] == 1 and f[0, 2] == 0

    def test_special_flag(self):
        f = _one_sentence(["#covid", "x"])
        assert f[0, 3] == 1

    def test_sentence_start(self):
        f = _one_sentence(["a", "b"])
        assert f[0, 4] == 1 and f[1, 4] == 0

    def test_nondisc_broadcast(self):
        f = _one_sentence(["ALL", "CAPS"])
        assert np.all(f[:, 5] == 1)

    def test_long_word(self):
        f = _one_sentence(["abcdefgh", "abc"])
        assert f[0, 6] == 1 and f[1, 6] == 0

    def test_neighbour_caps(self):
        f = _one_sentence(["lower", "Italy", "lower"])
        assert f[0, 8] == 1  # next capitalized
        assert f[2, 7] == 1  # prev capitalized
        assert f[0, 7] == 0 and f[2, 8] == 0


class TestBioConversions:
    def test_spans_to_bio_basic(self):
        tags = spans_to_bio(5, [(1, 2)])
        assert tags.tolist() == [0, 1, 2, 0, 0]

    def test_spans_to_bio_adjacent(self):
        tags = spans_to_bio(4, [(0, 2), (2, 2)])
        assert tags.tolist() == [1, 2, 1, 2]

    def test_bio_to_spans_basic(self):
        assert _decoded([0, 1, 2, 0, 1]) == [(0, 1, 2), (0, 4, 1)]

    def test_bio_to_spans_orphan_i_opens_span(self):
        assert _decoded([2, 2, 0]) == [(0, 0, 2)]

    def test_bio_to_spans_b_after_b(self):
        assert _decoded([1, 1]) == [(0, 0, 1), (0, 1, 1)]

    def test_bio_to_spans_span_to_end(self):
        assert _decoded([0, 1, 2]) == [(0, 1, 2)]

    def test_roundtrip(self):
        spans = [(0, 1), (2, 3), (6, 1)]
        assert _decoded(spans_to_bio(8, spans)) == [(0, a, n) for a, n in spans]

    def test_empty(self):
        assert _decoded(np.array([], dtype=int)) == []
        assert spans_to_bio(0, []).tolist() == []


class TestTagPandas:
    """Local EMD's mentions of a chunk (``mention_columns`` of
    ``tag_chunk``)."""

    def test_mentions_frame_columns(self, np_chunker, d1_small):
        out = _tagged(np_chunker, d1_small.tweets.head(50))
        assert list(out.columns) == MENTIONS_SCHEMA.fieldNames() == [
            "tweet_id", "sent_id", "start", "length", "key", "surface",
        ]

    def test_keys_lowercased(self, np_chunker, d1_small):
        out = _tagged(np_chunker, d1_small.tweets.head(100))
        assert (out["key"] == out["key"].str.lower()).all()

    def test_no_specials_in_mentions(self, np_chunker, d1_small):
        out = _tagged(np_chunker, d1_small.tweets.head(100))
        assert not out["key"].str.contains("#|@|http").any()

    def test_spark_tag_matches_pandas(self, spark, np_chunker, d1_small):
        """mapInArrow distribution must not change the result set."""
        sub = d1_small.tweets.head(120)
        local = _tagged(np_chunker, sub)
        df = spark.createDataFrame(sub)
        dist = np_chunker.tag(df).toPandas()
        key_cols = ["tweet_id", "sent_id", "start", "length"]
        a = set(map(tuple, local[key_cols].itertuples(index=False)))
        b = set(map(tuple, dist[key_cols].itertuples(index=False)))
        assert a == b
