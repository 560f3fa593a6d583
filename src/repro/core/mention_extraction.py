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

Two plans do this work:

- ``tag_mine_and_embed`` — for a one-partition batch, one
  ``mapInPandas`` task tags every sentence (one forward pass per
  sentence gives the spans and, for deep systems, the entity-aware
  embeddings), seeds a copy of the broadcast CTrie with the partition's
  local keys, scans every sentence and embeds each mention from the
  activations it already holds. One Spark job; the DNN runs once per
  sentence.
- ``mine_and_embed`` — for a batch of several partitions, whose seeds a
  task cannot see, the second of two jobs after ``LocalEMDSystem.tag``:
  the broadcast CTrie, already seeded on the driver, scans every
  sentence. Non-deep path: the ``extract_mentions`` scan, then the
  one-hot from Spark column expressions. Deep path: one ``mapInPandas``
  scan that, for each sentence with a mention, recomputes its
  entity-aware embeddings once (bit-equal to the values Local EMD
  produced, see ``repro.local_emd.embeddings``); it holds each
  sentence's tokens, so no join or shuffle follows it.

``extract_mentions`` and ``collect_local_embeddings`` split the second
plan's work in two steps (the deep one joins the mentions back onto
their tweets) for the per-layer benchmark trace.
"""
from __future__ import annotations

import pickle
import time
from typing import Iterator

import pandas as pd
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
    "mine_and_embed",
    "tag_mine_and_embed",
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

# ``tag_mine_and_embed``'s rows: Local EMD's mentions (``local``, with
# category -1 and an empty ``emb``) and the mined ``EMB_SCHEMA`` rows
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
    as float lists."""
    return [pe.embed_tokens(ea[s : s + n]).tolist() for s, n in spans]


def _recomputed_span_embeddings(
    system, pe, toks: list, tweet_id, sent_id, spans: list
) -> list:
    """``_span_embeddings`` with the sentence's entity-aware embeddings
    recomputed, once and only if there is a span."""
    if not spans:
        return []
    ea = system.entity_aware_embeddings(toks, int(tweet_id), int(sent_id))
    return _span_embeddings(pe, ea, spans)


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
                    zip(
                        g.index,
                        _recomputed_span_embeddings(system, pe, sent, tweet_id, sent_id, spans),
                    )
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
                embs = _recomputed_span_embeddings(system, pe, toks, tweet_id, sent_id, spans)
                rows += [m + (e,) for m, e in zip(mentions, embs)]
            yield pd.DataFrame(rows, columns=EMB_SCHEMA.fieldNames())

    return tweets_df.mapInPandas(run, schema=EMB_SCHEMA)


def tag_mine_and_embed(
    spark: SparkSession,
    tweets_df: DataFrame,
    ctrie: CTrie,
    system,
    phrase_embedder=None,
) -> tuple:
    """Local EMD, seeding, mining and embedding in one ``mapInPandas``
    pass, lazily: ``(rows, mine_seconds)``.

    ``rows`` (``TAGGED_EMB_SCHEMA``) holds Local EMD's mentions of
    ``tweets_df`` (``local`` true) and every mention of every candidate
    with its category and local candidate embedding (``EMB_SCHEMA``
    columns, ``local`` false). Each task tags its sentences with one
    forward pass each (``tag_and_embed``), inserts the ``_seed_keys`` of
    its local mentions into its own copy of ``ctrie`` (a broadcast value
    is shared by the tasks a worker runs), scans every sentence with it
    and embeds each mention from the activations it kept. It holds those
    activations until the scan: about 1.4 MB per 250 tweets with
    Aguilar's 100-d layer. ``ctrie`` itself is not changed.

    On a one-partition ``tweets_df`` the mined rows are those
    ``mine_and_embed`` gives on ``ctrie`` seeded with every local
    mention. With more partitions a task sees only its own seeds, so
    mentions of the other partitions' seeds would be missed.

    ``mine_seconds`` is an accumulator to which each task adds the
    seconds it spent after tagging; read it after the action.
    """
    dense = _phrase_arrays(phrase_embedder) if system.is_deep else None
    sc = spark.sparkContext
    # each task unpickles its own copy to seed: cheaper than a deep copy
    bc = sc.broadcast(pickle.dumps(ctrie, pickle.HIGHEST_PROTOCOL))
    mine_seconds = sc.accumulator(0.0)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.core.phrase_embedder import PhraseEmbedder

        pe = None if dense is None else PhraseEmbedder.from_arrays(dense)
        sentences, local = [], []

        def tag(toks, tweet_id, sent_id):
            spans, ea = system.tag_and_embed(toks, tweet_id, sent_id)
            sentences.append((tweet_id, sent_id, toks, ea))
            return spans

        for pdf in batches:
            local.append(mentions_frame(pdf, tag))
            yield local[-1].assign(category=-1, emb=[[]] * len(local[-1]), local=True)
        t0 = time.perf_counter()
        trie: CTrie = pickle.loads(bc.value)
        seeds = _seed_keys(pd.concat(local)) if local else []  # no batch: empty partition
        for key in seeds:
            trie.insert(key)
        rows = []
        for tweet_id, sent_id, toks, ea in sentences:
            mentions = _sentence_mentions(trie, tweet_id, sent_id, toks)
            if pe is None:
                embs = [syntactic.one_hot(m[6]).tolist() for m in mentions]
            else:
                embs = _span_embeddings(pe, ea, [(m[2], m[3]) for m in mentions])
            rows += [m + (e, False) for m, e in zip(mentions, embs)]
        mine_seconds.add(time.perf_counter() - t0)
        yield pd.DataFrame(rows, columns=TAGGED_EMB_SCHEMA.fieldNames())

    return tweets_df.mapInPandas(run, schema=TAGGED_EMB_SCHEMA), mine_seconds
