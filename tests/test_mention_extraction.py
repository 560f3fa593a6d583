"""Tests for distributed occurrence mining + local embedding collection."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.ctrie import CTrie
from repro.core.mention_extraction import collect_local_embeddings, extract_mentions
from repro.core.syntactic import N_CATEGORIES, one_hot
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tweets_df(spark, d1_small):
    return d1_small.to_spark(spark).cache()


@pytest.fixture(scope="module")
def gold_trie(d1_small):
    return CTrie(sorted(set(d1_small.gold["key"])))


class TestExtractMentions:
    def test_matches_driver_side_scan(self, spark, tweets_df, gold_trie, d1_small):
        mined = extract_mentions(spark, tweets_df, gold_trie).toPandas()
        expected = []
        for r in d1_small.tweets.itertuples():
            for s, l, k in gold_trie.scan(list(r.tokens)):
                expected.append((r.tweet_id, r.sent_id, s, l, k))
        got = set(
            map(tuple, mined[["tweet_id", "sent_id", "start", "length", "key"]].itertuples(index=False))
        )
        assert got == set(expected)

    def test_gold_trie_recovers_nearly_all_gold_mentions(
        self, spark, tweets_df, gold_trie, d1_small
    ):
        """With the full gold candidate set registered, the scan must
        recover essentially every gold span (modulo rare longest-match
        merges of adjacent mentions)."""
        mined = extract_mentions(spark, tweets_df, gold_trie).toPandas()
        cols = ["tweet_id", "sent_id", "start", "length"]
        got = set(map(tuple, mined[cols].itertuples(index=False)))
        gold = set(map(tuple, d1_small.gold[cols].itertuples(index=False)))
        assert len(got & gold) / len(gold) > 0.98

    def test_surface_preserves_original_casing(self, spark, tweets_df, gold_trie):
        mined = extract_mentions(spark, tweets_df, gold_trie).toPandas()
        assert (mined["surface"].str.lower() == mined["key"]).all()
        assert (mined["surface"] != mined["key"]).any()  # some cased forms

    def test_categories_in_range(self, spark, tweets_df, gold_trie):
        mined = extract_mentions(spark, tweets_df, gold_trie).toPandas()
        assert mined["category"].between(0, N_CATEGORIES - 1).all()

    def test_mined_counts_match_duckdb_oracle(self, spark, tweets_df, gold_trie):
        mined_df = extract_mentions(spark, tweets_df, gold_trie)
        agg = mined_df.groupBy("key").agg(F.count("*").alias("n"))
        assert_equivalent(
            agg,
            "SELECT key, COUNT(*) AS n FROM mined GROUP BY key",
            mined=mined_df.toPandas(),
        )

    def test_empty_trie_yields_no_mentions(self, spark, tweets_df):
        mined = extract_mentions(spark, tweets_df, CTrie(["zzznotpresent"])).toPandas()
        assert len(mined) == 0


class TestCollectLocalEmbeddings:
    def test_nondeep_one_hot(self, spark, tweets_df, gold_trie, np_chunker):
        mined = extract_mentions(spark, tweets_df, gold_trie)
        embs = collect_local_embeddings(spark, tweets_df, mined, np_chunker).toPandas()
        assert len(embs) == mined.count()
        for r in embs.itertuples():
            assert np.array_equal(np.asarray(r.emb), one_hot(r.category))

    def test_deep_requires_phrase_embedder(self, spark, tweets_df, gold_trie, aguilar):
        mined = extract_mentions(spark, tweets_df, gold_trie)
        with pytest.raises(ValueError):
            collect_local_embeddings(spark, tweets_df, mined, aguilar, None)

    def test_deep_embeddings_match_direct_computation(
        self, spark, d1_small, aguilar, aguilar_variant
    ):
        """The Spark-side phrase embedding of a mention must equal the
        driver-side Eq.1-2 computation on the same entity-aware
        embeddings (the recompute-don't-materialize invariant)."""
        sub = d1_small.tweets.head(40)
        sub_df = spark.createDataFrame(sub)
        trie = CTrie(sorted(set(d1_small.gold["key"])))
        mined = extract_mentions(spark, sub_df, trie)
        pe = aguilar_variant.phrase_embedder
        embs = collect_local_embeddings(
            spark, sub_df, mined, aguilar_variant.system, pe
        ).toPandas()
        assert len(embs) > 0
        toks = {(r.tweet_id, r.sent_id): list(r.tokens) for r in sub.itertuples()}
        for r in embs.head(20).itertuples():
            sent = toks[(r.tweet_id, r.sent_id)]
            ea = aguilar_variant.system.entity_aware_embeddings(
                sent, int(r.tweet_id), int(r.sent_id)
            )
            expect = pe.embed_tokens(ea[r.start : r.start + r.length])
            assert np.allclose(np.asarray(r.emb), expect, atol=1e-4)

    def test_deep_embedding_width_is_phrase_dim(
        self, spark, d1_small, aguilar_variant
    ):
        sub_df = spark.createDataFrame(d1_small.tweets.head(30))
        trie = CTrie(sorted(set(d1_small.gold["key"])))
        mined = extract_mentions(spark, sub_df, trie)
        embs = collect_local_embeddings(
            spark, sub_df, mined, aguilar_variant.system, aguilar_variant.phrase_embedder
        ).toPandas()
        assert all(len(e) == aguilar_variant.phrase_embedder.d_out for e in embs["emb"])
