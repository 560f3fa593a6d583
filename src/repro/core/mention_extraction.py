"""Distributed candidate mention extraction (Section V-A) and local
candidate-embedding collection (Section V-B).

Local EMD's seed candidates (``_seed_keys``) are inserted into the
CTrie, and the tweets are scanned with it: every mention of every
candidate is found (including ones Local EMD missed), with the
occurrence's syntactic category and its local candidate embedding —
the 6-d one-hot of the category for non-deep systems, and for deep
systems the sentence's entity-aware token embeddings pooled over the
mention span and pushed through the Entity Phrase Embedder's dense
layer (Eq. 1–2).

``scan_batch`` is the one ``mapInPandas`` task that does this work in
a cycle. On a one-partition batch it also tags every sentence and seeds
its own CTrie copy, embedding from the activations of the tagging pass;
on a batch of several partitions, whose seeds a task cannot see, it
scans with the CTrie the driver seeded. It holds each sentence's
tokens, so no join or shuffle follows it. Its tasks read the fitted
system and phrase embedder from a broadcast made by ``ship``, not from
their closure.

``extract_mentions`` and ``collect_local_embeddings`` do the same work
in two steps (the deep one joins the mentions back onto their tweets)
for the benchmark's layer trace and as the tests' reference.
"""
from __future__ import annotations

import pickle
import time
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import syntactic
from repro.core.ctrie import CTrie
from repro.local_emd.base import MENTIONS_SCHEMA, mentions_frame

__all__ = [
    "MAX_CANDIDATE_TOKENS",
    "extract_mentions",
    "collect_local_embeddings",
    "scan_batch",
    "ship",
    "MINED_SCHEMA",
    "EMB_SCHEMA",
    "TAGGED_EMB_SCHEMA",
]

# Section V-A: a candidate mention spans a token "together with up to k
# tokens following it" — the window cap, also applied to seed keys.
MAX_CANDIDATE_TOKENS = 5

MINED_SCHEMA = T.StructType(
    MENTIONS_SCHEMA.fields + [T.StructField("category", T.IntegerType(), False)]
)

EMB_SCHEMA = T.StructType(
    MINED_SCHEMA.fields + [T.StructField("emb", T.ArrayType(T.FloatType()), False)]
)

# ``scan_batch``'s rows: Local EMD's mentions when it tags (``local``,
# with category -1 and an empty ``emb``) and the mined ``EMB_SCHEMA`` rows
TAGGED_EMB_SCHEMA = T.StructType(
    EMB_SCHEMA.fields + [T.StructField("local", T.BooleanType(), False)]
)


def _seed_keys(local_mentions: pd.DataFrame) -> list:
    """The sorted distinct keys of Local EMD's mentions that fit the
    candidate window: the keys a cycle inserts into its CTrie."""
    keys = sorted(set(local_mentions["key"]))
    return [k for k in keys if 1 <= len(k.split(" ")) <= MAX_CANDIDATE_TOKENS]


def _sentence_mentions(trie: CTrie, tweet_id, sent_id, toks: list) -> list:
    """One ``MINED_SCHEMA`` row per occurrence of a ``trie`` candidate in
    the sentence ``toks``."""
    matches = trie.scan(toks)
    cats = syntactic.sentence_categories(toks, [(s, n) for s, n, _ in matches])
    return [
        (
            int(tweet_id),
            int(sent_id),
            int(start),
            int(length),
            key,
            " ".join(toks[start : start + length]),
            int(cat),
        )
        for (start, length, key), cat in zip(matches, cats)
    ]


def _span_embeddings(pe, ea, spans: list) -> list:
    """The local candidate embedding (Eq. 1–2) of each ``(start, length)``
    span of one sentence whose entity-aware token embeddings are ``ea``,
    as float32 arrays."""
    return [pe.embed_tokens(ea[s : s + n]) for s, n in spans]


def _recomputed_span_embeddings(
    system, pe, toks: list, tweet_id, sent_id, spans: list
) -> list:
    """``_span_embeddings`` with the sentence's entity-aware embeddings
    recomputed, once and only if there is a span."""
    if not spans:
        return []
    ea = system.entity_aware_embeddings(toks, int(tweet_id), int(sent_id))
    return _span_embeddings(pe, ea, spans)


# row ``c`` is ``syntactic.one_hot(c)``
_ONE_HOT = np.eye(syntactic.N_CATEGORIES, dtype=np.float32)


def _tagged_sentences(system, tweets: pd.DataFrame) -> tuple:
    """Local EMD's mention rows of a pandas chunk of tweets, and its
    sentences as ``(tweet_id, sent_id, tokens, activations)`` with the
    activations of the same forward pass (``tag_and_embed``)."""
    sentences = []

    def tag(toks, tweet_id, sent_id):
        spans, ea = system.tag_and_embed(toks, tweet_id, sent_id)
        sentences.append((tweet_id, sent_id, toks, ea))
        return spans

    return mentions_frame(tweets, tag), sentences


def _mined_frame(trie: CTrie, system, pe, sentences) -> pd.DataFrame:
    """``TAGGED_EMB_SCHEMA`` rows (``local`` false) of every mention of a
    ``trie`` candidate in ``sentences``, ``(tweet_id, sent_id, tokens,
    activations)`` tuples.

    With a phrase embedder ``pe`` (deep systems) each mention is embedded
    from its sentence's activations, recomputed if they are ``None``.
    Otherwise the embedding is the one-hot of the mention's category.
    """
    rows, embs = [], []
    for tweet_id, sent_id, toks, ea in sentences:
        mentions = _sentence_mentions(trie, tweet_id, sent_id, toks)
        rows += mentions
        if pe is not None:
            spans = [(m[2], m[3]) for m in mentions]
            embs += (
                _recomputed_span_embeddings(system, pe, toks, tweet_id, sent_id, spans)
                if ea is None
                else _span_embeddings(pe, ea, spans)
            )
    mined = pd.DataFrame(rows, columns=MINED_SCHEMA.fieldNames())
    if pe is None:
        embs = list(_ONE_HOT[mined["category"].to_numpy(dtype=np.intp)])
    return mined.assign(emb=pd.Series(embs, index=mined.index, dtype=object), local=False)


def _with_one_hot(mined_df: DataFrame) -> DataFrame:
    """Mined mentions with the one-hot of their syntactic category as
    ``emb`` (the non-deep local candidate embedding)."""
    one_hot = [
        (F.col("category") == c).cast(T.FloatType())
        for c in range(syntactic.N_CATEGORIES)
    ]
    return mined_df.withColumn("emb", F.array(*one_hot))


def _phrase_arrays(phrase_embedder) -> tuple:
    """The phrase embedder's picklable weights for a Spark closure."""
    if phrase_embedder is None:
        raise ValueError("deep Local EMD requires a trained PhraseEmbedder")
    return phrase_embedder.to_arrays()


def ship(spark: SparkSession, system, phrase_embedder=None) -> Broadcast:
    """Broadcast ``(system, phrase_embedder)`` for ``scan_batch``'s tasks;
    a non-deep system ships no phrase embedder.

    A Python worker unpickles a broadcast once, at its first use, and
    keeps the value, with the caches the system warms as it tags, while
    its tasks keep reading that broadcast; a task that does not read it
    drops it from the worker. The value is a copy taken now: a system
    refit after it was shipped is not seen by the tasks.
    """
    if not system.is_deep:
        phrase_embedder = None
    elif phrase_embedder is None:
        raise ValueError("deep Local EMD requires a trained PhraseEmbedder")
    return spark.sparkContext.broadcast((system, phrase_embedder))


def extract_mentions(
    spark: SparkSession, tweets_df: DataFrame, ctrie: CTrie
) -> DataFrame:
    """Scan every tweet-sentence for candidate mentions via the broadcast
    CTrie; emit one row per occurrence with its syntactic category."""
    bc = spark.sparkContext.broadcast(ctrie)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        trie: CTrie = bc.value
        for pdf in batches:
            rows = []
            for tweet_id, sent_id, toks in zip(
                pdf["tweet_id"], pdf["sent_id"], pdf["tokens"]
            ):
                rows += _sentence_mentions(trie, tweet_id, sent_id, list(toks))
            yield pd.DataFrame(rows, columns=MINED_SCHEMA.fieldNames())

    return tweets_df.mapInPandas(run, schema=MINED_SCHEMA)


def collect_local_embeddings(
    spark: SparkSession,
    tweets_df: DataFrame,
    mined_df: DataFrame,
    system,
    phrase_embedder=None,
) -> DataFrame:
    """Attach a local candidate embedding to every mined mention.

    ``system`` is the Local EMD instantiation. For non-deep systems the
    embedding is the syntactic one-hot (``phrase_embedder`` unused). For
    deep systems the mentions are joined back onto their sentences'
    tokens and each sentence's entity-aware embeddings are computed
    once. ``scan_batch`` does both steps in one scan.
    """
    if not system.is_deep:
        return _with_one_hot(mined_df)

    dense = _phrase_arrays(phrase_embedder)
    joined = mined_df.join(
        tweets_df.select("tweet_id", "sent_id", "tokens"), ["tweet_id", "sent_id"]
    ).repartition("tweet_id")

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.core.phrase_embedder import PhraseEmbedder

        pe = PhraseEmbedder.from_arrays(dense)
        for pdf in batches:
            embs = {}
            for (tweet_id, sent_id), g in pdf.groupby(["tweet_id", "sent_id"], sort=False):
                spans = list(zip(g["start"], g["length"]))
                sent = list(g["tokens"].iat[0])
                embs.update(
                    zip(
                        g.index,
                        _recomputed_span_embeddings(system, pe, sent, tweet_id, sent_id, spans),
                    )
                )
            pdf["emb"] = pd.Series(embs, index=pdf.index, dtype="object")
            yield pdf[EMB_SCHEMA.fieldNames()]

    return joined.mapInPandas(run, schema=EMB_SCHEMA)


def scan_batch(
    spark: SparkSession,
    tweets_df: DataFrame,
    ctrie: CTrie,
    shipped: Broadcast,
    *,
    tag: bool,
) -> tuple:
    """One ``mapInPandas`` pass over ``tweets_df`` that mines and embeds
    every mention of every candidate, lazily: ``(rows, mine_seconds,
    n_sentences)``.

    ``shipped`` is ``ship``'s broadcast of the Local EMD system and its
    phrase embedder. ``rows`` (``TAGGED_EMB_SCHEMA``) holds the mentions
    with their category and local candidate embedding, yielded one input
    chunk of sentences at a time. Deep systems compute a sentence's
    entity-aware embeddings (bit-equal to Local EMD's, see
    ``repro.local_emd.embeddings``) only if it has a mention.

    With ``tag``, ``rows`` also holds Local EMD's mentions (``local``
    true): each task tags its sentences with one forward pass each
    (``tag_and_embed``), seeds its own copy of ``ctrie`` with their
    ``_seed_keys`` (a broadcast value is shared by a worker's tasks) and
    mines with it, embedding from the activations it kept (about 1.4 MB
    per 250 tweets with Aguilar). A task sees only its own seeds, so
    this equals mining on ``ctrie`` seeded with every local mention
    only on a one-partition ``tweets_df``. ``ctrie`` is not changed.

    ``mine_seconds`` and ``n_sentences`` are accumulators of the seconds
    the tasks spent seeding and mining and of the sentences they read;
    read them after the action.
    """
    sc = spark.sparkContext
    # each task unpickles its own copy to seed: cheaper than a deep copy
    bc = sc.broadcast(pickle.dumps(ctrie, pickle.HIGHEST_PROTOCOL))
    mine_seconds, n_sentences = sc.accumulator(0.0), sc.accumulator(0)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        system, pe = shipped.value
        trie: CTrie = pickle.loads(bc.value)

        def mine(sentences) -> pd.DataFrame:
            t0 = time.perf_counter()
            mined = _mined_frame(trie, system, pe, sentences)
            mine_seconds.add(time.perf_counter() - t0)
            return mined

        held, seeds = [], set()
        for pdf in batches:
            n_sentences.add(len(pdf))
            if tag:
                local, sentences = _tagged_sentences(system, pdf)
                held.append(sentences)
                seeds.update(_seed_keys(local))
                if len(local):  # an empty frame's ``emb`` would not convert to Arrow
                    yield local.assign(category=-1, emb=[[]] * len(local), local=True)
            else:
                ids = zip(pdf["tweet_id"], pdf["sent_id"], pdf["tokens"])
                yield mine((t, s, list(toks), None) for t, s, toks in ids)
        t0 = time.perf_counter()
        for key in sorted(seeds):
            trie.insert(key)
        mine_seconds.add(time.perf_counter() - t0)
        for sentences in held:
            yield mine(sentences)

    return tweets_df.mapInPandas(run, schema=TAGGED_EMB_SCHEMA), mine_seconds, n_sentences
