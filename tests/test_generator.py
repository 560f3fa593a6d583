"""Tests for dataset generation (repro.streams.generator), including
DuckDB-oracle checks on Spark aggregations over the generated corpora."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.streams import generator as gen


@pytest.fixture(scope="module")
def d1():
    return gen.generate("d1", scale=0.3)


@pytest.fixture(scope="module")
def wnut():
    return gen.generate("wnut17", scale=0.3)


class TestSpecs:
    @pytest.mark.parametrize("name", list(gen.DATASET_SPECS))
    def test_every_spec_generates(self, name):
        ds = gen.generate(name, scale=0.01)
        assert len(ds.tweets) >= 20
        assert ds.name == name

    def test_streaming_flags(self):
        assert gen.generate("d2", scale=0.01).streaming
        assert not gen.generate("btc", scale=0.01).streaming

    def test_full_scale_sizes_match_table1(self):
        # check the spec constants without generating full corpora
        assert gen.DATASET_SPECS["d2"]["n_tweets"] == 2000
        assert gen.DATASET_SPECS["d5"]["n_tweets"] == 38000
        assert gen.DATASET_SPECS["wnut17"]["n_tweets"] == 1287
        assert gen.DATASET_SPECS["btc"]["n_tweets"] == 9553

    def test_dataset_slices_disjoint(self):
        slices = gen.dataset_slices(gen.default_vocabulary())
        seen = set()
        for pool in slices.values():
            ids = {e.eid for e in pool}
            assert not (ids & seen)
            seen |= ids

    def test_slice_sizes_match_pool_spec(self):
        slices = gen.dataset_slices(gen.default_vocabulary())
        for name, spec in gen.DATASET_SPECS.items():
            assert len(slices[name]) == spec["pool"]


class TestDeterminism:
    def test_same_call_same_data(self):
        a = gen.generate("d3", scale=0.05)
        b = gen.generate("d3", scale=0.05)
        pd.testing.assert_frame_equal(
            a.tweets.drop(columns="tokens"), b.tweets.drop(columns="tokens")
        )
        assert all(list(x) == list(y) for x, y in zip(a.tweets.tokens, b.tweets.tokens))
        pd.testing.assert_frame_equal(a.gold, b.gold)

    def test_datasets_differ(self):
        a = gen.generate("d1", scale=0.05)
        b = gen.generate("d2", scale=0.05)
        assert set(a.gold["key"]).isdisjoint(set(b.gold["key"]))


class TestGoldConsistency:
    def test_spans_inside_sentences(self, d1):
        toks = {
            (r.tweet_id, r.sent_id): list(r.tokens) for r in d1.tweets.itertuples()
        }
        for r in d1.gold.itertuples():
            sent = toks[(r.tweet_id, r.sent_id)]
            assert 0 <= r.start and r.start + r.length <= len(sent)

    def test_surface_matches_tokens(self, d1):
        toks = {
            (r.tweet_id, r.sent_id): list(r.tokens) for r in d1.tweets.itertuples()
        }
        for r in d1.gold.itertuples():
            sent = toks[(r.tweet_id, r.sent_id)]
            assert " ".join(sent[r.start : r.start + r.length]) == r.surface

    def test_key_is_lowercased_surface(self, d1):
        for r in d1.gold.itertuples():
            assert r.surface.lower() == r.key

    def test_gold_spans_do_not_overlap(self, d1):
        for (_, _), grp in d1.gold.groupby(["tweet_id", "sent_id"]):
            spans = sorted((r.start, r.start + r.length) for r in grp.itertuples())
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2

    def test_eids_come_from_dataset_pool(self, d1):
        pool_ids = {e.eid for e in d1.entity_pool}
        assert set(d1.gold["eid"]) <= pool_ids

    def test_variants_cover_expected_set(self, d1):
        assert set(d1.gold["variant"]) <= {
            "proper", "lower", "allcaps", "substring", "nondiscriminative",
        }
        # the dominant rendering should be proper casing
        assert (d1.gold["variant"] == "proper").mean() > 0.35


class TestStreamingVsRandom:
    def test_streaming_repeats_entities(self, d1):
        counts = d1.gold.groupby("eid").size()
        assert counts.max() >= 10  # Zipf head recurs heavily

    def test_nonstreaming_rarely_repeats(self, wnut):
        counts = wnut.gold.groupby("eid").size()
        # near-uniform sampling from a large pool: median candidate seen
        # at most a couple of times
        assert counts.median() <= 3
        assert counts.max() < 30

    def test_streaming_more_mentions_per_tweet(self, d1, wnut):
        assert len(d1.gold) / len(d1.tweets) > len(wnut.gold) / len(wnut.tweets)


class TestStats:
    def test_stats_fields(self, d1):
        st = d1.stats()
        assert st["dataset"] == "d1"
        assert st["size"] == len(d1.tweets)
        assert st["n_entities"] == d1.gold["eid"].nunique()
        assert st["n_mentions"] == len(d1.gold)
        assert st["n_topics"] == 2

    def test_hashtags_counted(self, d1):
        assert d1.stats()["n_hashtags"] > 0


class TestSparkRoundTrip:
    def test_tweets_schema(self, spark, d1):
        df = d1.to_spark(spark)
        assert df.count() == len(d1.tweets)
        assert set(df.columns) == {"tweet_id", "sent_id", "topic", "tokens"}

    def test_gold_schema(self, spark, d1):
        df = d1.gold_to_spark(spark)
        assert df.count() == len(d1.gold)

    def test_topic_counts_match_duckdb_oracle(self, spark, d1):
        df = (
            d1.to_spark(spark)
            .groupBy("topic")
            .agg(F.count("*").alias("n_tweets"))
        )
        assert_equivalent(
            df,
            "SELECT topic, COUNT(*) AS n_tweets FROM tweets GROUP BY topic",
            tweets=d1.tweets.drop(columns=["tokens"]),
        )

    def test_oracle_catches_wrong_topic_count(self, spark, d1):
        wrong = (
            d1.to_spark(spark)
            .groupBy("topic")
            .agg((F.count("*") + 1).alias("n_tweets"))  # off by one: oracle must fail
        )
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT topic, COUNT(*) AS n_tweets FROM tweets GROUP BY topic",
                tweets=d1.tweets.drop(columns=["tokens"]),
            )

    def test_mention_counts_match_duckdb_oracle(self, spark, d1):
        df = (
            d1.gold_to_spark(spark)
            .groupBy("key")
            .agg(F.count("*").alias("n"), F.max("length").alias("max_len"))
        )
        assert_equivalent(
            df,
            "SELECT key, COUNT(*) AS n, MAX(length) AS max_len FROM gold GROUP BY key",
            gold=d1.gold,
        )

    def test_token_lengths_match_duckdb_oracle(self, spark, d1):
        df = d1.to_spark(spark).select(
            "tweet_id", F.size("tokens").alias("n_tokens")
        )
        pdf = d1.tweets.assign(n_tokens=d1.tweets["tokens"].map(len))[
            ["tweet_id", "n_tokens"]
        ]
        assert_equivalent(
            df,
            "SELECT tweet_id, n_tokens FROM lens",
            lens=pdf,
        )


class TestCasing:
    def test_nondiscriminative_tweets_exist(self, d1):
        n = sum(
            1
            for toks in d1.tweets["tokens"]
            if all(t.isupper() for t in toks if not t.startswith(("#", "@", "http")))
        )
        assert n > 0

    def test_specials_preserved_under_allcaps(self):
        out = gen._apply_sentence_casing(["Word", "#tag", "@user"], "allcaps")
        assert out == ["WORD", "#tag", "@user"]

    def test_title_casing(self):
        out = gen._apply_sentence_casing(["word", "other"], "title")
        assert out == ["Word", "Other"]

    def test_zipf_weights_normalized(self):
        w = gen._zipf_weights(100, 1.05)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)
