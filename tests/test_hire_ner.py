"""Tests for the HIRE-NER document-EMD baseline."""
import numpy as np
import pytest

from repro.baselines.hire_ner import HireNER, memory_from_sums, token_sums
from repro.eval.metrics import score_mentions
from repro.streams import generator as gen


@pytest.fixture(scope="module")
def hire(vocab, train_small, aguilar):
    h = HireNER(aguilar.bank, vocab.gazetteer(), epochs=8)
    h.fit(train_small.tweets, train_small.gold)
    return h


class TestMemory:
    def test_driver_memory_mean_of_contextuals(self, hire, train_small):
        sub = train_small.tweets.head(30)
        mem = memory_from_sums(token_sums(hire.bank, sub))
        # recompute one token's mean by hand
        tok = next(t.lower() for toks in sub["tokens"] for t in toks)
        vecs = []
        for r in sub.itertuples():
            toks = [t.lower() for t in r.tokens]
            emb = hire.bank.contextual(toks, int(r.tweet_id), int(r.sent_id))
            vecs += [e for t, e in zip(toks, emb) if t == tok]
        assert np.allclose(mem[tok], np.mean(vecs, axis=0), atol=1e-5)

    def test_spark_memory_matches_driver(self, spark, hire, train_small):
        sub = train_small.tweets.head(60)
        # driver side: the whole frame as one partial sum
        driver_mem = memory_from_sums(token_sums(hire.bank, sub))
        spark_mem = hire.build_memory(spark, spark.createDataFrame(sub))
        assert set(spark_mem) == set(driver_mem)
        for tok in list(driver_mem)[:25]:
            assert np.allclose(spark_mem[tok], driver_mem[tok], atol=1e-4)


class TestTagging:
    def test_requires_fit(self, vocab, aguilar, spark, d1_small):
        h = HireNER(aguilar.bank, vocab.gazetteer())
        with pytest.raises(RuntimeError):
            h.tag(spark, d1_small.to_spark(spark))

    def test_feature_width(self, hire):
        assert hire.n_features == hire.n_local_features + hire.bank.dim

    def test_tags_d1_in_reasonable_band(self, spark, hire, d1_small):
        pred = hire.tag(spark, d1_small.to_spark(spark)).toPandas()
        prf = score_mentions(pred, d1_small.gold)
        assert 0.2 < prf.f1 < 0.85, prf

    def test_no_specials_in_output(self, spark, hire, d1_small):
        pred = hire.tag(spark, d1_small.to_spark(spark)).toPandas()
        assert not pred["key"].str.contains("#|@|http").any()


class TestPaperComparison:
    def test_globalizer_beats_hire_on_stream(self, spark, aguilar_variant, hire):
        """Table IV's shape: candidate-level globalization beats
        token-level global features, especially on precision."""
        from repro.core.pipeline import EMDGlobalizer

        ds = gen.generate("d1", scale=0.5)
        df = ds.to_spark(spark).cache()
        try:
            res = EMDGlobalizer(aguilar_variant).run(spark, df)
            glob = score_mentions(res.final_mentions, ds.gold)
            hire_prf = score_mentions(hire.tag(spark, df).toPandas(), ds.gold)
        finally:
            df.unpersist()
        assert glob.f1 > hire_prf.f1
        assert glob.precision > hire_prf.precision + 0.05
