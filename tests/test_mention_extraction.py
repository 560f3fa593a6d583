"""Tests for distributed occurrence mining + local embedding collection."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.ctrie import CTrie
from repro.core.mention_extraction import (
    TAGGED_EMB_SCHEMA,
    _seed_keys,
    _sentence_mentions,
    collect_local_embeddings,
    extract_mentions,
    scan_batch,
    ship,
)
from repro.core.pipeline import EMDGlobalizer, FittedVariant
from repro.core.syntactic import N_CATEGORIES, sentence_categories
from repro.oracle import assert_equivalent
from repro.streams.generator import TWEETS_SCHEMA
from tests import sentence_oracle as oracle

SPAN = ["tweet_id", "sent_id", "start", "length"]


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

    def test_sentence_categories_equal_per_mention(self, gold_trie, d1_small):
        """The scan checks a sentence's casing once; each row's category
        is still the category of its span alone."""
        cats = []
        for r in d1_small.tweets.itertuples():
            toks = list(r.tokens)
            for row in _sentence_mentions(gold_trie, r.tweet_id, r.sent_id, toks):
                assert row[6] == sentence_categories(toks, [(row[2], row[3])])[0]
                cats.append(row[6])
        assert len(cats) > 500 and set(cats) == set(range(N_CATEGORIES))

    def test_empty_trie_yields_no_mentions(self, spark, tweets_df):
        mined = extract_mentions(spark, tweets_df, CTrie(["zzznotpresent"])).toPandas()
        assert len(mined) == 0


class TestCollectLocalEmbeddings:
    def test_nondeep_one_hot(self, spark, tweets_df, gold_trie, np_chunker):
        mined = extract_mentions(spark, tweets_df, gold_trie)
        embs = collect_local_embeddings(spark, tweets_df, mined, np_chunker).toPandas()
        assert len(embs) == mined.count()
        for r in embs.itertuples():
            assert np.array_equal(np.asarray(r.emb), np.eye(N_CATEGORIES)[r.category])

    def test_deep_requires_phrase_embedder(self, spark, tweets_df, gold_trie, aguilar):
        mined = extract_mentions(spark, tweets_df, gold_trie)
        with pytest.raises(ValueError):
            collect_local_embeddings(spark, tweets_df, mined, aguilar, None)
        with pytest.raises(ValueError):
            ship(spark, aguilar, None)

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
            ea = oracle.forward(aguilar_variant.system, sent, int(r.tweet_id), int(r.sent_id))[2]
            expect = oracle.embed_tokens(pe, ea[r.start : r.start + r.length])
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


@pytest.fixture(scope="module")
def edge_df(spark, d1_small):
    """40 tweets plus an empty sentence and a sentence of only
    tweet-special tokens."""
    extra = pd.DataFrame(
        {
            "tweet_id": [10**9, 10**9 + 1],
            "sent_id": [0, 0],
            "topic": [0, 0],
            "tokens": [[], ["#Covid", "@Andy", "http://t.co/x"]],
        }
    )
    pdf = pd.concat([d1_small.tweets.head(40), extra], ignore_index=True)
    return spark.createDataFrame(pdf[TWEETS_SCHEMA.fieldNames()], schema=TWEETS_SCHEMA)


@pytest.fixture(scope="module")
def edge_trie(d1_small):
    # candidates that exist only as tweet-special tokens never match
    return CTrie(sorted(set(d1_small.gold["key"])) + ["#covid", "@andy"])


def _by_span(df) -> pd.DataFrame:
    return df.toPandas().sort_values(SPAN).reset_index(drop=True)


def _plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


def _scan(spark, df, trie, v, *, tag) -> tuple:
    """``scan_batch``'s rows sorted by span and split into local and
    mined rows, and its mining seconds and sentence count, read after
    the action, which is followed by destroying its CTrie broadcast."""
    rows, mine_seconds, n_sentences, bc = scan_batch(spark, df, trie, v.shipped(spark), tag=tag)
    out = _by_span(rows)
    bc.destroy()
    local = out[out["local"]].reset_index(drop=True)
    mined = out[~out["local"]].drop(columns="local").reset_index(drop=True)
    return local, mined, mine_seconds.value, n_sentences.value


def _assert_same_rows(got: pd.DataFrame, expect: pd.DataFrame, v) -> None:
    """Equal rows, and bit-equal embeddings; a non-deep variant's scan
    rows carry none, where the split path has the JVM one-hot."""
    assert len(got) > 0
    pd.testing.assert_frame_equal(
        got.drop(columns="emb"), expect.drop(columns="emb"), check_exact=True
    )
    if v.phrase_embedder is None:
        assert (got["emb"].map(len) == 0).all()
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got["emb"], expect["emb"]))


class TestMineAndEmbed:
    @pytest.mark.parametrize("variant", ["chunker_variant", "aguilar_variant"])
    def test_equals_split_path(self, spark, request, variant, edge_df, edge_trie):
        """Without tagging, the one-task scan gives the rows and the exact
        float32 embeddings of mining followed by embedding (no embedding
        on the non-deep path), and counts every sentence."""
        v = request.getfixturevalue(variant)
        local, fused, _, n_sentences = _scan(spark, edge_df, edge_trie, v, tag=False)
        mined = extract_mentions(spark, edge_df, edge_trie)
        split = _by_span(
            collect_local_embeddings(spark, edge_df, mined, v.system, v.phrase_embedder)
        )
        assert len(local) == 0 and n_sentences == 42
        _assert_same_rows(fused, split, v)
        assert not fused["tweet_id"].isin([10**9, 10**9 + 1]).any()

    @pytest.mark.parametrize("variant", ["chunker_variant", "aguilar_variant"])
    def test_no_match_is_empty_with_schema(self, spark, request, variant, edge_df):
        v = request.getfixturevalue(variant)
        df, _, _, _ = scan_batch(
            spark, edge_df, CTrie(["zzznotpresent"]), v.shipped(spark), tag=False
        )
        assert [(f.name, f.dataType.simpleString()) for f in df.schema] == [
            (f.name, f.dataType.simpleString()) for f in TAGGED_EMB_SCHEMA
        ]
        out = df.toPandas()
        assert len(out) == 0 and list(out.columns) == TAGGED_EMB_SCHEMA.fieldNames()

    def test_deep_plan_has_no_shuffle(self, spark, aguilar_variant, edge_df, edge_trie):
        """No join or repartition follows the deep scan; the split path,
        which joins the mentions back onto their tweets, has one."""
        v = aguilar_variant
        fused, _, _, _ = scan_batch(spark, edge_df, edge_trie, v.shipped(spark), tag=False)
        mined = extract_mentions(spark, edge_df, edge_trie)
        split = collect_local_embeddings(spark, edge_df, mined, v.system, v.phrase_embedder)
        assert "Exchange" not in _plan(fused)
        assert "Exchange" in _plan(split)


class TestTagMineAndEmbed:
    @pytest.mark.parametrize("variant", ["chunker_variant", "aguilar_variant"])
    def test_equals_tag_then_mine_and_embed(self, spark, request, variant, edge_df, edge_trie):
        """On one partition, the tagging scan gives Local EMD's mentions
        and the exact rows and float32 embeddings of mining and embedding
        on a CTrie seeded with them; the edge sentences give no row, every
        sentence is counted and the given CTrie is left as it was."""
        v = request.getfixturevalue(variant)
        n_keys = len(edge_trie)
        local, fused, mine_seconds, n_sentences = _scan(
            spark, edge_df.coalesce(1), edge_trie, v, tag=True
        )
        assert len(edge_trie) == n_keys and n_sentences == 42 and mine_seconds > 0
        tagged = _by_span(v.system.tag(edge_df))
        pd.testing.assert_frame_equal(local[tagged.columns], tagged, check_exact=True)
        assert (local["category"] == -1).all() and (local["emb"].map(len) == 0).all()
        seeded = CTrie(edge_trie.keys() + _seed_keys(tagged))
        mined = extract_mentions(spark, edge_df, seeded)
        split = _by_span(
            collect_local_embeddings(spark, edge_df, mined, v.system, v.phrase_embedder)
        )
        _assert_same_rows(fused, split, v)
        assert not pd.concat([local, fused])["tweet_id"].isin([10**9, 10**9 + 1]).any()

    def test_deep_requires_phrase_embedder_before_any_job(self, spark, aguilar, edge_df):
        """Shipping a deep system without a phrase embedder raises, in a
        cycle too, before any Spark job runs."""
        sc = spark.sparkContext
        sc.setJobGroup("fused-no-pe", "fused-no-pe")
        try:
            with pytest.raises(ValueError):
                ship(spark, aguilar, None)
            with pytest.raises(ValueError):
                EMDGlobalizer(FittedVariant(aguilar, None)).run(spark, edge_df.coalesce(1))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert sc.statusTracker().getJobIdsForGroup("fused-no-pe") == []
