"""The chunk forms of featurisation, tagging and mention embedding against
the per-sentence, per-token loops they replaced (``tests.sentence_oracle``),
bit for bit: ``np.array_equal``, no tolerance."""
import copy
import os
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pytest

from repro.baselines.hire_ner import HireNER, memory_from_sums, token_sums
from repro.core.ctrie import CTrie
from repro.core.mention_extraction import _seed_keys, scan_batch
from repro.core.phrase_embedder import PhraseEmbedder, pool_spans, pooled_sentence_embeddings
from repro.local_emd.base import (
    Sentences,
    bio_spans,
    is_special,
    surface_features,
)
from repro.local_emd.deep import bio_training_set
from repro.streams.generator import TWEETS_SCHEMA
from tests import sentence_oracle as oracle

SPAN = ["tweet_id", "sent_id", "start", "length"]

# the chunk edges: an empty sentence, one-token sentences, a sentence of
# only tweet-special tokens, and a capitalised last token followed by a
# capitalised first token of the next sentence
EDGE_SENTENCES = [
    [],
    ["Italy"],
    ["x"],
    ["#Covid", "@Andy", "http://t.co/x"],
    ["cases", "rise", "in", "New", "York"],
    ["Boston", "reports", "MORE", "cases", "today"],
    ["UK"],
    ["ALL", "CAPS", "NEWS"],
]


def _frame(sentences: list, first_id: int = 900_000) -> pd.DataFrame:
    n = len(sentences)
    return pd.DataFrame(
        {
            "tweet_id": np.arange(first_id, first_id + n, dtype=np.int64),
            "sent_id": np.arange(n, dtype=np.int64) % 3,
            "topic": np.zeros(n, dtype=np.int64),
            "tokens": [list(s) for s in sentences],
        }
    )


@pytest.fixture(scope="module")
def edge_tweets(d1_small) -> pd.DataFrame:
    """The edge sentences between two runs of D1 sentences."""
    d1 = d1_small.tweets.head(30)
    head, tail = d1.head(15), d1.tail(15)
    return pd.concat([head, _frame(EDGE_SENTENCES), tail], ignore_index=True)[
        TWEETS_SCHEMA.fieldNames()
    ]


@pytest.fixture(scope="module")
def hire(vocab, train_small, aguilar, edge_tweets):
    """HIRE-NER whose memory covers the edge chunk's tokens."""
    h = HireNER(aguilar.bank, vocab.gazetteer(), epochs=4)
    h.fit(train_small.tweets, train_small.gold)
    tagger = copy.copy(h)
    tagger.memory = memory_from_sums(token_sums(h.bank, edge_tweets))
    return tagger


SYSTEMS = ["twitter_nlp", "aguilar", "hire"]


def _sentences(tweets: pd.DataFrame) -> list:
    return [(int(r.tweet_id), int(r.sent_id), list(r.tokens)) for r in tweets.itertuples()]


def _chunks(tweets: pd.DataFrame) -> list:
    """The whole frame as one chunk, and a chunk of zero sentences."""
    return [Sentences.from_frame(tweets), Sentences.of([], [], [])]


class TestFeatures:
    def test_surface_features_do_not_cross_sentences(self):
        """Features 7 and 8 of a capitalised last token and a capitalised
        first token of the next sentence are 0; every row equals the
        one-sentence loop's."""
        sents = Sentences.of(EDGE_SENTENCES, range(len(EDGE_SENTENCES)), [0] * len(EDGE_SENTENCES))
        f = surface_features(sents.tokens, sents.offsets)
        expect = np.concatenate([oracle.surface_features(s) for s in EDGE_SENTENCES])
        assert np.array_equal(f, expect)
        york = sents.offsets[5] - 1
        assert sents.tokens[york] == "York" and sents.tokens[york + 1] == "Boston"
        assert f[york, 8] == 0 and f[york + 1, 7] == 0

    def test_contextual_equals_per_token_loop(self, aguilar, edge_tweets):
        bank = aguilar.bank
        sents = Sentences.from_frame(edge_tweets)
        got = bank.contextual_chunk(sents.lowered, sents.offsets, sents.tweet_ids, sents.sent_ids)
        expect = np.concatenate(
            [
                oracle.contextual(bank, [t.lower() for t in toks], t, s)
                for t, s, toks in _sentences(edge_tweets)
            ]
        )
        assert got.dtype == np.float32 and np.array_equal(got, expect)

    @pytest.mark.parametrize("fixture", SYSTEMS)
    def test_features_equal_per_sentence_loop(self, request, fixture, edge_tweets):
        system = request.getfixturevalue(fixture)
        full, empty = _chunks(edge_tweets)
        got = system._features(full)
        expect = np.concatenate(
            [oracle.features(system, toks, t, s) for t, s, toks in _sentences(edge_tweets)]
        )
        assert got.dtype == np.float32 and np.array_equal(got, expect)
        assert system._features(empty).shape == (0, expect.shape[1])

    @pytest.mark.parametrize("fixture", ["twitter_nlp", "aguilar"])
    def test_training_set_equals_per_sentence_loop(self, request, fixture, train_small):
        system = request.getfixturevalue(fixture)
        tweets = train_small.tweets.head(200)
        X, Y = bio_training_set(tweets, train_small.gold, system._features)
        Xs, Ys = [], []
        gold = train_small.gold
        for t, s, toks in _sentences(tweets):
            Xs.append(oracle.features(system, toks, t, s))
            g = gold[(gold["tweet_id"] == t) & (gold["sent_id"] == s)]
            tags = np.zeros(len(toks), dtype=np.int64)
            for start, length in zip(g["start"], g["length"]):
                tags[start] = 1
                tags[start + 1 : start + length] = 2
            Ys.append(np.eye(3, dtype=np.float32)[tags])
        assert X.dtype == np.float32 and np.array_equal(X, np.concatenate(Xs))
        assert np.array_equal(Y, np.concatenate(Ys))


class TestForward:
    @pytest.mark.parametrize("fixture", SYSTEMS)
    def test_spans_and_activations_equal_per_sentence_forward(
        self, request, fixture, edge_tweets
    ):
        system = request.getfixturevalue(fixture)
        full, empty = _chunks(edge_tweets)
        spans, acts = system.tag_chunk(full)
        hidden = system._hidden(full)
        expect_spans, expect_hidden = [], []
        for i, (t, s, toks) in enumerate(_sentences(edge_tweets)):
            sp, _, h = oracle.forward(system, toks, t, s)
            expect_spans += [(i, a, n) for a, n in sp]
            expect_hidden.append(h)
        assert list(zip(*map(np.ndarray.tolist, spans))) == expect_spans
        expect_hidden = np.concatenate(expect_hidden)
        assert np.array_equal(hidden.astype(np.float32), expect_hidden)
        if system.is_deep:
            assert acts.dtype == np.float32 and np.array_equal(acts, expect_hidden)
            assert np.array_equal(system.activations(full), expect_hidden)
        else:
            assert acts is None
        spans0, _ = system.tag_chunk(empty)
        assert all(len(a) == 0 for a in spans0)

    def test_bio_spans_equal_per_sentence_decode(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(0, 7, 300)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        tags = rng.integers(0, 3, offsets[-1])
        spans = bio_spans(tags, offsets)
        expect = [
            (i, a, n)
            for i in range(len(lengths))
            for a, n in oracle.bio_to_spans(tags[offsets[i] : offsets[i + 1]])
        ]
        assert list(zip(*map(np.ndarray.tolist, spans))) == expect


class TestSpanEmbeddings:
    def test_pool_spans_equals_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 16)).astype(np.float32)
        x[3:6] = -0.0
        starts = rng.integers(0, 35, 200)
        lengths = rng.integers(1, 6, 200)
        starts[:3], lengths[:3] = 3, [1, 2, 3]
        got = pool_spans(x, starts, lengths)
        expect = np.stack([x[a : a + n].mean(axis=0) for a, n in zip(starts, lengths)])
        assert np.array_equal(got, expect) and np.array_equal(np.signbit(got), np.signbit(expect))

    @pytest.mark.parametrize("fixture", SYSTEMS)
    def test_span_embeddings_equal_per_mention(self, request, fixture, edge_tweets, d1_small):
        """Every span of the chunk's CTrie matches, embedded at once, is
        bit-equal to ``mean`` and ``@ W`` of that one mention."""
        system = request.getfixturevalue(fixture)
        full, _ = _chunks(edge_tweets)
        hidden = system._hidden(full).astype(np.float32)
        pe = PhraseEmbedder.init(hidden.shape[1], 100, seed=11)
        trie = CTrie(sorted(set(d1_small.gold["key"])) + ["italy", "new york", "boston", "uk"])
        starts, lengths = [], []
        for i in range(len(full)):
            for a, n, _ in trie.scan(full.sentence(i)):
                starts.append(full.offsets[i] + a)
                lengths.append(n)
        assert len(starts) > 20
        got = pe.embed_spans(hidden, starts, lengths)
        expect = np.stack(
            [oracle.embed_tokens(pe, hidden[a : a + n]) for a, n in zip(starts, lengths)]
        )
        assert got.dtype == np.float32 and np.array_equal(got, expect)
        assert pe.embed_spans(hidden, [], []).shape == (0, 100)

    def test_pooled_sentence_embeddings_equal_per_sentence(self, aguilar, train_small):
        sentences = [tuple(t) for t in train_small.tweets["tokens"].head(150)] + [("UK",)]
        got = pooled_sentence_embeddings(aguilar, sentences, 500)
        expect = oracle.pooled_sentence_embeddings(aguilar, sentences, 500)
        assert got.dtype == np.float32 and np.array_equal(got, expect)


def _local_mentions(system, sentences: list) -> pd.DataFrame:
    """Local EMD's mentions, one sentence at a time through the oracle's
    forward pass (or the NP Chunker's rule on one sentence)."""
    rows = []
    for t, s, toks in sentences:
        spans = (
            system._sentence_spans(toks)
            if system.name == "NP Chunker"
            else oracle.forward(system, toks, t, s)[0]
        )
        for a, n in spans:
            span = toks[a : a + n]
            if not any(is_special(x) for x in span):
                rows.append((t, s, a, n, " ".join(x.lower() for x in span), " ".join(span)))
    return pd.DataFrame(rows, columns=SPAN + ["key", "surface"])


def _oracle_scan(trie_keys: list, system, pe, sentences: list, tag: bool) -> tuple:
    """The oracle's local mentions (with ``tag``) and mined rows, on a
    CTrie of ``trie_keys`` and the local mentions' seeds."""
    local = _local_mentions(system, sentences if tag else [])
    seeded = CTrie(trie_keys + (_seed_keys(local) if tag else []))
    return local, sorted(oracle.mined_rows(seeded, system, pe, sentences), key=lambda r: r[:4])


class TestScanBatch:
    @pytest.mark.parametrize("variant", ["chunker_variant", "aguilar_variant"])
    @pytest.mark.parametrize("tag", [False, True])
    def test_rows_equal_per_sentence_oracle(
        self, spark, request, variant, tag, edge_tweets, d1_small
    ):
        """``scan_batch``'s local and mined rows, embeddings as float32
        bits, equal one sentence and one mention at a time; with ``tag``
        the mining trie holds the oracle's seeds too. The oracle runs in
        a Spark task too: a Python worker's BLAS runs one thread, and
        the driver's may split a product over several and round it
        differently."""
        v = request.getfixturevalue(variant)
        df = spark.createDataFrame(edge_tweets, TWEETS_SCHEMA).coalesce(1)
        trie = CTrie(sorted(set(d1_small.gold["key"])) + ["italy", "#covid"])
        rows, _, n_sentences, bc = scan_batch(spark, df, trie, v.shipped(spark), tag=tag)
        out = rows.toPandas().sort_values(SPAN + ["local"]).reset_index(drop=True)
        bc.destroy()
        args = (trie.keys(), v.system, v.phrase_embedder, _sentences(edge_tweets), tag)
        local, expect = (
            spark.sparkContext.parallelize([args], 1).map(lambda a: _oracle_scan(*a)).collect()[0]
        )
        got_local = out[out["local"]].reset_index(drop=True)
        if tag:
            assert len(local) > 5
            pd.testing.assert_frame_equal(
                got_local[local.columns].astype(local.dtypes.to_dict()),
                local.sort_values(SPAN).reset_index(drop=True),
                check_exact=True,
            )
        else:
            assert len(got_local) == 0
        mined = out[~out["local"]].reset_index(drop=True)
        assert n_sentences.value == len(edge_tweets) and len(mined) == len(expect) > 20
        cols = SPAN + ["key", "surface", "category"]
        assert [tuple(r) for r in mined[cols].itertuples(index=False)] == [r[:7] for r in expect]
        for got, r in zip(mined["emb"], expect):
            assert np.array_equal(np.asarray(got, dtype=np.float32), r[7])


KERNEL_GUARD = textwrap.dedent(
    """
    import numpy as np
    from repro.core.phrase_embedder import PhraseEmbedder
    from repro.nn.mlp import MLP, forward_segments

    rng = np.random.default_rng(7)
    model = MLP.build([61, 128, 100, 3], ["relu", "relu", "sigmoid"], seed=3)
    lengths = np.concatenate([[0], rng.integers(1, 30, 400), [0, 1, 1]])
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    x = rng.normal(size=(offsets[-1], 61)).astype(np.float32)
    got = forward_segments(model.layers, x, offsets)
    for a, b in zip(offsets[:-1], offsets[1:]):
        assert np.array_equal(got[a:b], model.forward(x[a:b])), (a, b)

    for n_rows, d_in, d_out in [(1300, 100, 100), (257, 768, 300), (40, 100, 100)]:
        P = rng.normal(size=(n_rows, d_in)).astype(np.float32)
        pe = PhraseEmbedder(rng.normal(size=(d_in, d_out)), rng.normal(size=d_out))
        got = pe.embed_spans(P, np.arange(n_rows), np.ones(n_rows, dtype=np.intp))
        for i in range(n_rows):
            assert np.array_equal(got[i], (P[i] @ pe.W + pe.b).astype(np.float32)), (n_rows, i)
    print("ok")
    """
)


@pytest.mark.parametrize("coretype", [None, "Haswell"])
def test_stacked_products_equal_row_by_row_under_blas_kernel(coretype):
    """The tagger's forward pass over a chunk gives each sentence the bits
    of its own forward pass, and Eq. 2 over many mentions gives each row
    the bits of that row's own ``p @ W``, under the host's default
    OpenBLAS kernel and under ``Haswell``. One product over all rows
    (``X @ W``, ``P @ W``) does not."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", KERNEL_GUARD], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr[-2000:]
