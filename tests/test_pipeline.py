"""Integration tests: the full EMD Globalizer pipeline (Sections III-V).

These assert the paper's *claims* hold on the synthetic streams: global
beats local, missed mentions are recovered, partial extractions get
corrected, false-positive candidates are filtered, and the ablation
ordering of Figure 6 holds.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.pipeline import (
    MAX_CANDIDATE_TOKENS,
    EMDGlobalizer,
    _collect_mentions,
    _seed_keys,
    candidate_table,
)
from repro.eval.harness import evaluate_variant
from repro.eval.metrics import score_mentions
from repro.streams import generator as gen


@pytest.fixture(scope="module")
def d1_run(spark, aguilar_variant, d1_small):
    tweets_df = d1_small.to_spark(spark).cache()
    res = EMDGlobalizer(aguilar_variant).run(spark, tweets_df)
    tweets_df.unpersist()
    return res


class TestSeedKeys:
    def test_filters_overlong_candidates(self):
        local = pd.DataFrame(
            {"key": ["ok", "a b c d e f g", "x y"], "tweet_id": [1, 1, 1]}
        )
        keys = _seed_keys(local)
        assert "ok" in keys and "x y" in keys
        assert all(len(k.split(" ")) <= MAX_CANDIDATE_TOKENS for k in keys)

    def test_dedupes_and_sorts(self):
        local = pd.DataFrame({"key": ["b", "a", "b"]})
        assert _seed_keys(local) == ["a", "b"]


class TestCollectMentions:
    def test_span_order_whatever_row_order(self, spark):
        """Collected mentions and their embeddings come back sorted by
        span, together, whatever order Spark delivers the rows in."""
        from repro.core.mention_extraction import EMB_SCHEMA

        rng = np.random.default_rng(5)
        rows = [
            (t, s, a, 1, f"k{a % 3}", f"K{a % 3}", a % 6, rng.normal(size=4).tolist())
            for t in range(6) for s in range(2) for a in range(5)
        ]
        pdf = pd.DataFrame(rows, columns=EMB_SCHEMA.fieldNames())
        shuffled = pdf.sample(frac=1.0, random_state=1)
        outs = [
            _collect_mentions(spark.createDataFrame(p, EMB_SCHEMA).repartition(n), 4)
            for p, n in ((pdf, 1), (shuffled, 3))
        ]
        (mined_a, embs_a), (mined_b, embs_b) = outs
        pd.testing.assert_frame_equal(mined_a, mined_b)
        assert np.array_equal(embs_a, embs_b)
        spans = list(map(tuple, mined_a[["tweet_id", "sent_id", "start"]].to_numpy()))
        assert spans == sorted(spans)
        expect = np.array(pdf["emb"].tolist(), dtype=np.float32)  # pdf is in span order
        assert np.array_equal(embs_a, expect)


class TestFullRun:
    def test_global_beats_local_f1(self, d1_run, d1_small):
        local = score_mentions(d1_run.local_mentions, d1_small.gold)
        glob = score_mentions(d1_run.final_mentions, d1_small.gold)
        assert glob.f1 > local.f1 + 0.03, (local, glob)

    def test_global_improves_precision_and_recall(self, d1_run, d1_small):
        """Full-scale runs improve both P and R (Table III, captured in
        EXPERIMENTS.md). At this test's reduced training scale the
        classifier's FN rate can offset part of the mining recall gain,
        so recall is only required not to degrade materially."""
        local = score_mentions(d1_run.local_mentions, d1_small.gold)
        glob = score_mentions(d1_run.final_mentions, d1_small.gold)
        assert glob.precision > local.precision + 0.1
        assert glob.recall > local.recall - 0.05

    def test_recovers_mentions_local_missed(self, d1_run, d1_small):
        """Objective 1 (Sec V): false negatives of Local EMD whose
        candidate was seen elsewhere are in the final output."""
        cols = ["tweet_id", "sent_id", "start", "length"]
        local_spans = set(map(tuple, d1_run.local_mentions[cols].itertuples(index=False)))
        final_spans = set(map(tuple, d1_run.final_mentions[cols].itertuples(index=False)))
        gold_spans = set(map(tuple, d1_small.gold[cols].itertuples(index=False)))
        recovered = (final_spans - local_spans) & gold_spans
        assert len(recovered) > 20

    def test_removes_false_positive_candidates(self, d1_run, d1_small):
        """Objective 2: candidates Local EMD hallucinated are dropped."""
        gold_keys = set(d1_small.gold["key"])
        local_fp_keys = set(d1_run.local_mentions["key"]) - gold_keys
        final_keys = set(d1_run.final_mentions["key"])
        assert len(local_fp_keys & final_keys) < len(local_fp_keys) * 0.5

    def test_candidate_labels_follow_thresholds(self, d1_run):
        c = d1_run.candidates
        assert (c.loc[c["label"] == "entity", "score"] >= 0.55).all()
        assert (c.loc[c["label"] == "non-entity", "score"] <= 0.40).all()
        amb = c.loc[c["label"] == "ambiguous", "score"]
        assert ((amb > 0.40) & (amb < 0.55)).all()

    def test_final_mentions_only_entity_candidates(self, d1_run):
        entity_keys = set(
            d1_run.candidates.loc[d1_run.candidates["label"] == "entity", "key"]
        )
        assert set(d1_run.final_mentions["key"]) <= entity_keys

    def test_timings_recorded(self, d1_run):
        assert d1_run.local_seconds > 0
        assert d1_run.global_seconds > 0

    def test_mined_superset_of_final(self, d1_run):
        cols = ["tweet_id", "sent_id", "start", "length", "key"]
        mined = set(map(tuple, d1_run.mined_mentions[cols].itertuples(index=False)))
        final = set(map(tuple, d1_run.final_mentions[cols].itertuples(index=False)))
        assert final <= mined


class TestPartialExtractionCorrection:
    def test_partial_corrected_to_full_mention(self, spark, aguilar_variant):
        """Sec V-A's 'Andy' -> 'Andy Beshear' example, constructed
        directly: one sentence where local EMD found only a prefix, the
        full string registered from elsewhere in the stream."""
        from repro.core.ctrie import CTrie
        from repro.core.mention_extraction import extract_mentions

        trie = CTrie(["andy", "andy beshear"])
        pdf = pd.DataFrame(
            {
                "tweet_id": [1],
                "sent_id": [0],
                "topic": [0],
                "tokens": [["saw", "Andy", "Beshear", "today"]],
            }
        )
        mined = extract_mentions(spark, spark.createDataFrame(pdf), trie).toPandas()
        assert list(mined[["start", "length", "key"]].itertuples(index=False))[0] == (
            1, 2, "andy beshear",
        )


class TestAblation:
    def test_figure6_ordering(self, spark, aguilar_variant):
        """Fig. 6: local <= +mention-extraction(recall) and full best F1.
        Mining alone must raise recall; the full framework must beat
        both on F1."""
        ds = gen.generate("d2", scale=0.25)
        rows = {
            ab: evaluate_variant(spark, aguilar_variant, ds, ablation=ab)
            for ab in ["local", "mining", "full"]
        }
        assert rows["mining"].global_.recall > rows["local"].local.recall
        assert rows["full"].global_.f1 > rows["mining"].global_.f1
        assert rows["full"].global_.f1 > rows["local"].local.f1

    def test_local_ablation_passthrough(self, spark, aguilar_variant, d1_small):
        df = d1_small.to_spark(spark)
        res = EMDGlobalizer(aguilar_variant).run(spark, df, ablation="local")
        pd.testing.assert_frame_equal(res.local_mentions, res.final_mentions)


class TestCandidateTable:
    def test_labels_match_gold_membership(self, spark, aguilar_variant):
        ds = gen.generate("d1", scale=0.15)
        df = ds.to_spark(spark)
        gold_keys = set(ds.gold["key"])
        embs, keys, labels, n = candidate_table(
            spark, aguilar_variant.system, aguilar_variant.phrase_embedder, df, gold_keys
        )
        assert embs.shape[0] == len(keys) == len(labels) == len(n)
        assert embs.shape[1] == aguilar_variant.phrase_embedder.d_out
        for k, y in zip(keys, labels):
            assert y == (1.0 if k in gold_keys else 0.0)
        assert 0 < labels.sum() < len(labels)


class TestNonDeepVariant:
    def test_chunker_variant_boosts_f1(self, spark, chunker_variant):
        """The syntactic-embedding (non-deep) path must also show the
        paper's boost — NP Chunker gains the most in Table III."""
        ds = gen.generate("d1", scale=0.4)
        row = evaluate_variant(spark, chunker_variant, ds)
        assert row.global_.f1 > row.local.f1
        assert row.global_.precision > row.local.precision + 0.1

    def test_output_independent_of_partitioning(
        self, spark, chunker_variant, aguilar_variant, d1_small
    ):
        """Pooling sums mentions in span order, so candidates and final
        mentions are bit-identical however the tweets are partitioned
        (the deep path's float sums included)."""
        cols = ["tweet_id", "sent_id", "start", "length", "key"]
        for variant in (chunker_variant, aguilar_variant):
            one, eight = (
                EMDGlobalizer(variant).run(spark, d1_small.to_spark(spark).repartition(n))
                for n in (1, 8)
            )
            pd.testing.assert_frame_equal(one.candidates, eight.candidates, check_exact=True)
            assert set(map(tuple, one.final_mentions[cols].itertuples(index=False))) == set(
                map(tuple, eight.final_mentions[cols].itertuples(index=False))
            )

    def test_chunker_variant_uses_6d_embeddings(self, chunker_variant):
        assert chunker_variant.emb_dim == 6
        assert chunker_variant.phrase_embedder is None
