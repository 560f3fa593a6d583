"""Distributed candidate mention extraction (Section V-A) and local
candidate-embedding collection (Section V-B).

The CTrie built from Local EMD's seed candidates is broadcast; a
``mapInPandas`` scan over the tweet DataFrame finds *every* mention of
every candidate (including ones Local EMD missed) and, in the same pass,
attaches the occurrence's syntactic category. ``collect_local_embeddings``
then attaches each mention's local candidate embedding, lazily, so that
one Spark action mines and embeds:

- non-deep path: the 6-d one-hot of the syntactic category, built from
  Spark column expressions;
- deep path: the sentence's entity-aware token embeddings (recomputed
  deterministically — bit-equal to the values Local EMD produced, see
  ``repro.local_emd.embeddings``) pooled over the mention span and
  pushed through the Entity Phrase Embedder's dense layer (Eq. 1–2).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import syntactic
from repro.core.ctrie import CTrie

__all__ = ["extract_mentions", "collect_local_embeddings", "MINED_SCHEMA", "EMB_SCHEMA"]

MINED_SCHEMA = T.StructType(
    [
        T.StructField("tweet_id", T.LongType(), False),
        T.StructField("sent_id", T.IntegerType(), False),
        T.StructField("start", T.IntegerType(), False),
        T.StructField("length", T.IntegerType(), False),
        T.StructField("key", T.StringType(), False),
        T.StructField("surface", T.StringType(), False),
        T.StructField("category", T.IntegerType(), False),
    ]
)

EMB_SCHEMA = T.StructType(
    MINED_SCHEMA.fields + [T.StructField("emb", T.ArrayType(T.FloatType()), False)]
)


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
                toks = list(toks)
                for start, length, key in trie.scan(toks):
                    rows.append(
                        (
                            int(tweet_id),
                            int(sent_id),
                            int(start),
                            int(length),
                            key,
                            " ".join(toks[start : start + length]),
                            int(syntactic.mention_category(toks, start, length)),
                        )
                    )
            yield pd.DataFrame(
                rows,
                columns=[
                    "tweet_id",
                    "sent_id",
                    "start",
                    "length",
                    "key",
                    "surface",
                    "category",
                ],
            )

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
    deep systems the fitted system and phrase embedder are shipped in
    the closure; entity-aware sentence embeddings are computed once per
    sentence within each partition and sliced per mention.
    """
    if not system.is_deep:
        one_hot = [
            (F.col("category") == c).cast(T.FloatType())
            for c in range(syntactic.N_CATEGORIES)
        ]
        return mined_df.withColumn("emb", F.array(*one_hot))

    if phrase_embedder is None:
        raise ValueError("deep Local EMD requires a trained PhraseEmbedder")
    joined = mined_df.join(
        tweets_df.select("tweet_id", "sent_id", "tokens"), ["tweet_id", "sent_id"]
    ).repartition("tweet_id")
    dense = phrase_embedder.to_arrays()
    sys_ref = system

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.core.phrase_embedder import PhraseEmbedder

        pe = PhraseEmbedder.from_arrays(dense)
        for pdf in batches:
            if len(pdf) == 0:
                yield pd.DataFrame(
                    {f.name: pd.Series(dtype="object") for f in EMB_SCHEMA.fields}
                )
                continue
            embs = []
            cache_key, cache_val = None, None
            # rows for one sentence are adjacent after the repartition+join
            for r in pdf.sort_values(["tweet_id", "sent_id"]).itertuples():
                sk = (r.tweet_id, r.sent_id)
                if sk != cache_key:
                    cache_key = sk
                    cache_val = sys_ref.entity_aware_embeddings(
                        list(r.tokens), int(r.tweet_id), int(r.sent_id)
                    )
                span = cache_val[r.start : r.start + r.length]
                embs.append((r.Index, pe.embed_tokens(span).tolist()))
            emb_series = pd.Series(
                {i: e for i, e in embs}, name="emb", dtype="object"
            )
            out = pdf.join(emb_series)
            yield out[[f.name for f in EMB_SCHEMA.fields]]

    return joined.mapInPandas(run, schema=EMB_SCHEMA)
