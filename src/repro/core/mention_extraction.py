"""Distributed candidate mention extraction (Section V-A) and local
candidate-embedding collection (Section V-B).

The CTrie built from Local EMD's seed candidates is broadcast, and
``mine_and_embed`` scans the tweet DataFrame once: it finds *every*
mention of every candidate (including ones Local EMD missed), with the
occurrence's syntactic category and its local candidate embedding:

- non-deep path: the ``extract_mentions`` scan, then the 6-d one-hot of
  the syntactic category from Spark column expressions;
- deep path: one ``mapInPandas`` pass that, for each sentence with a
  mention, recomputes its entity-aware token embeddings once
  (deterministically — bit-equal to the values Local EMD produced, see
  ``repro.local_emd.embeddings``), pools them over each mention span and
  pushes them through the Entity Phrase Embedder's dense layer
  (Eq. 1–2). The scan holds each sentence's tokens, so no join or
  shuffle follows it.

``extract_mentions`` and ``collect_local_embeddings`` split the same
work in two steps (the deep one joins the mentions back onto their
tweets) for the per-layer benchmark trace.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import syntactic
from repro.core.ctrie import CTrie
from repro.local_emd.base import MENTIONS_SCHEMA

__all__ = [
    "extract_mentions",
    "collect_local_embeddings",
    "mine_and_embed",
    "MINED_SCHEMA",
    "EMB_SCHEMA",
]

MINED_SCHEMA = T.StructType(
    MENTIONS_SCHEMA.fields + [T.StructField("category", T.IntegerType(), False)]
)

EMB_SCHEMA = T.StructType(
    MINED_SCHEMA.fields + [T.StructField("emb", T.ArrayType(T.FloatType()), False)]
)


def _sentence_mentions(trie: CTrie, tweet_id, sent_id, toks: list) -> list:
    """One ``MINED_SCHEMA`` row per occurrence of a ``trie`` candidate in
    the sentence ``toks``."""
    return [
        (
            int(tweet_id),
            int(sent_id),
            int(start),
            int(length),
            key,
            " ".join(toks[start : start + length]),
            int(syntactic.mention_category(toks, start, length)),
        )
        for start, length, key in trie.scan(toks)
    ]


def _span_embeddings(system, pe, toks: list, tweet_id, sent_id, spans: list) -> list:
    """The local candidate embedding (Eq. 1–2) of each ``(start, length)``
    span of one sentence, as float lists; the sentence's entity-aware
    token embeddings are computed once, and only if there is a span."""
    if not spans:
        return []
    ea = system.entity_aware_embeddings(toks, int(tweet_id), int(sent_id))
    return [pe.embed_tokens(ea[s : s + n]).tolist() for s, n in spans]


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
    once. ``mine_and_embed`` does both steps in one scan.
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
                    zip(g.index, _span_embeddings(system, pe, sent, tweet_id, sent_id, spans))
                )
            pdf["emb"] = pd.Series(embs, index=pdf.index, dtype="object")
            yield pdf[EMB_SCHEMA.fieldNames()]

    return joined.mapInPandas(run, schema=EMB_SCHEMA)


def mine_and_embed(
    spark: SparkSession,
    tweets_df: DataFrame,
    ctrie: CTrie,
    system,
    phrase_embedder=None,
) -> DataFrame:
    """Every mention of every ``ctrie`` candidate in ``tweets_df`` with
    its syntactic category and local candidate embedding (``EMB_SCHEMA``
    rows), lazily.

    For non-deep systems this is ``extract_mentions`` plus the one-hot
    columns. For deep systems it is one ``mapInPandas`` scan with the
    broadcast CTrie and the phrase embedder's weights in the closure:
    each sentence is scanned, and if anything matched its entity-aware
    embeddings are computed once and pooled per mention span.
    """
    if not system.is_deep:
        return _with_one_hot(extract_mentions(spark, tweets_df, ctrie))

    dense = _phrase_arrays(phrase_embedder)
    bc = spark.sparkContext.broadcast(ctrie)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.core.phrase_embedder import PhraseEmbedder

        trie: CTrie = bc.value
        pe = PhraseEmbedder.from_arrays(dense)
        for pdf in batches:
            rows = []
            for tweet_id, sent_id, toks in zip(
                pdf["tweet_id"], pdf["sent_id"], pdf["tokens"]
            ):
                toks = list(toks)
                mentions = _sentence_mentions(trie, tweet_id, sent_id, toks)
                spans = [(m[2], m[3]) for m in mentions]
                embs = _span_embeddings(system, pe, toks, tweet_id, sent_id, spans)
                rows += [m + (e,) for m, e in zip(mentions, embs)]
            yield pd.DataFrame(rows, columns=EMB_SCHEMA.fieldNames())

    return tweets_df.mapInPandas(run, schema=EMB_SCHEMA)
