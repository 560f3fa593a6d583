"""Distributed candidate mention extraction (Section V-A) and local
candidate-embedding collection (Section V-B).

Local EMD's seed candidates (``_seed_keys``) are inserted into the
CTrie, and the tweets are scanned with it: every mention of every
candidate is found (including ones Local EMD missed), with the
occurrence's syntactic category and, for deep systems only, its local
candidate embedding: the sentence's entity-aware token embeddings
pooled over the mention span and pushed through the Entity Phrase
Embedder's dense layer (Eq. 1–2). A non-deep system's mentions carry
no floats: ``CandidateBase`` counts their categories.

``scan_batch`` is the one ``mapInArrow`` task that does this work in
a cycle. It takes each input record batch as one chunk of sentences
(``Sentences``): the features of all its tokens are built with array
operations, the tagger runs one forward pass per sentence, and every
mention of the chunk is pooled and projected at once
(``PhraseEmbedder.embed_spans``), with the bits of doing each sentence
and each mention alone. Its output is built as Arrow, the embeddings
from one flat float32 buffer per chunk. On a one-partition batch the
task also tags every sentence and seeds its own CTrie copy, embedding
from the activations of the tagging pass; on a batch of several
partitions, whose seeds a task cannot see, it scans with the CTrie the
driver seeded after a tagging job of its own (``tag_shipped``). It
holds each sentence's tokens, so no join or shuffle follows it. Its
tasks, and those of ``tag_shipped``, read the fitted system and phrase
embedder from a broadcast made by ``ship``, not from their closure.

``extract_mentions`` and ``collect_local_embeddings`` do the same work
in two steps (the deep one joins the mentions back onto their tweets);
they are kept for the benchmark's layer trace, which times the steps
apart. No cycle runs them.
"""
from __future__ import annotations

import pickle
import time
from typing import Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.pandas.types import to_arrow_schema

from repro.core import syntactic
from repro.core.ctrie import CTrie
from repro.local_emd.base import (
    MENTIONS_SCHEMA,
    Sentences,
    mention_columns,
    tag_batches,
)

__all__ = [
    "MAX_CANDIDATE_TOKENS",
    "extract_mentions",
    "collect_local_embeddings",
    "scan_batch",
    "ship",
    "tag_shipped",
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
# (an empty ``emb`` for a non-deep system)
TAGGED_EMB_SCHEMA = T.StructType(
    EMB_SCHEMA.fields + [T.StructField("local", T.BooleanType(), False)]
)


def _seed_keys(local_mentions) -> list:
    """The sorted distinct keys of Local EMD's mentions (a frame or
    ``mention_columns``) that fit the candidate window: the keys a cycle
    inserts into its CTrie."""
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


def _chunk_mentions(trie: CTrie, sents: Sentences) -> tuple:
    """``_sentence_mentions`` of every sentence of a chunk: the rows, and
    the index of each row's sentence in the chunk."""
    rows, where = [], []
    tweet_ids, sent_ids = sents.tweet_ids.tolist(), sents.sent_ids.tolist()
    for i in range(len(sents)):
        found = _sentence_mentions(trie, tweet_ids[i], sent_ids[i], sents.sentence(i))
        rows += found
        where += [i] * len(found)
    return rows, np.array(where, dtype=np.intp)


_TAGGED_EMB_ARROW = to_arrow_schema(TAGGED_EMB_SCHEMA)


def _tagged_emb_batch(columns: list, embs: np.ndarray, local: bool) -> pa.RecordBatch:
    """A ``TAGGED_EMB_SCHEMA`` record batch of the ``MINED_SCHEMA``
    ``columns`` and the float32 embeddings ``embs``, one row each; its
    ``emb`` column is built on ``embs``' buffer."""
    fields = list(_TAGGED_EMB_ARROW)
    n, d = embs.shape
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int32) * d),
        pa.array(np.ascontiguousarray(embs, dtype=np.float32).reshape(-1)),
        type=fields[-2].type,
    )
    arrays = [pa.array(c, f.type) for c, f in zip(columns, fields)]
    return pa.record_batch(
        arrays + [emb, pa.array(np.full(n, local))], schema=_TAGGED_EMB_ARROW
    )


def _local_batch(local: dict) -> pa.RecordBatch:
    """Local EMD's ``mention_columns`` as ``TAGGED_EMB_SCHEMA`` rows
    (``local`` true, category -1, empty ``emb``)."""
    n = len(local["key"])
    columns = [local[c] for c in MENTIONS_SCHEMA.fieldNames()] + [np.full(n, -1)]
    return _tagged_emb_batch(columns, np.empty((n, 0), dtype=np.float32), True)


def _mined_batch(trie: CTrie, system, pe, sents: Sentences, acts) -> pa.RecordBatch:
    """``TAGGED_EMB_SCHEMA`` rows (``local`` false) of every mention of a
    ``trie`` candidate in the chunk ``sents``.

    With a phrase embedder ``pe`` (deep systems) the mentions are
    embedded together (``PhraseEmbedder.embed_spans``) from the chunk's
    activations ``acts``, which are computed for the whole chunk if they
    are ``None``. Otherwise every ``emb`` is empty.
    """
    rows, where = _chunk_mentions(trie, sents)
    columns = list(zip(*rows)) if rows else [[]] * len(MINED_SCHEMA.fields)
    if pe is None or not rows:
        embs = np.empty((len(rows), 0 if pe is None else pe.d_out), dtype=np.float32)
    else:
        if acts is None:
            acts = system.activations(sents)
        embs = pe.embed_spans(acts, sents.offsets[where] + np.array(columns[2]), columns[3])
    return _tagged_emb_batch(columns, embs, False)


def _with_one_hot(mined_df: DataFrame) -> DataFrame:
    """Mined mentions with the one-hot of their syntactic category as
    ``emb`` (the non-deep local candidate embedding)."""
    one_hot = [
        (F.col("category") == c).cast(T.FloatType())
        for c in range(syntactic.N_CATEGORIES)
    ]
    return mined_df.withColumn("emb", F.array(*one_hot))


def ship(spark: SparkSession, system, phrase_embedder=None) -> Broadcast:
    """Broadcast ``(system, phrase_embedder)`` for the tasks of
    ``scan_batch`` and ``tag_shipped``; a non-deep system ships no phrase
    embedder.

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
    if phrase_embedder is None:
        raise ValueError("deep Local EMD requires a trained PhraseEmbedder")

    joined = mined_df.join(
        tweets_df.select("tweet_id", "sent_id", "tokens"), ["tweet_id", "sent_id"]
    ).repartition("tweet_id")

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            keys = list(zip(pdf["tweet_id"], pdf["sent_id"]))
            tokens: dict = {}
            for k, toks in zip(keys, pdf["tokens"]):
                tokens.setdefault(k, toks)
            sents = Sentences.of(tokens.values(), [k[0] for k in tokens], [k[1] for k in tokens])
            index = {k: i for i, k in enumerate(tokens)}
            first = sents.offsets[[index[k] for k in keys]]
            embs = phrase_embedder.embed_spans(
                system.activations(sents), first + pdf["start"].to_numpy(), pdf["length"]
            )
            pdf["emb"] = pd.Series(list(embs), index=pdf.index, dtype="object")
            yield pdf[EMB_SCHEMA.fieldNames()]

    return joined.mapInPandas(run, schema=EMB_SCHEMA)


def tag_shipped(tweets_df: DataFrame, shipped: Broadcast) -> DataFrame:
    """``LocalEMDSystem.tag`` of the system ``ship`` broadcast: one
    ``tag_batches`` task per partition that reads the system from
    ``shipped``, so a worker keeps the value its scan tasks read."""
    return tweets_df.mapInArrow(
        lambda batches: tag_batches(shipped.value[0], batches), schema=MENTIONS_SCHEMA
    )


def scan_batch(
    spark: SparkSession,
    tweets_df: DataFrame,
    ctrie: CTrie,
    shipped: Broadcast,
    *,
    tag: bool,
) -> tuple:
    """One ``mapInArrow`` pass over ``tweets_df`` that mines and embeds
    every mention of every candidate, lazily: ``(rows, mine_seconds,
    n_sentences, trie)``.

    ``shipped`` is ``ship``'s broadcast of the Local EMD system and its
    phrase embedder. ``rows`` (``TAGGED_EMB_SCHEMA``) holds the mentions
    with their category and local candidate embedding, yielded one input
    record batch of sentences at a time, each built and embedded as one
    chunk (``Sentences``) with array operations. Without ``tag``, deep
    systems compute the entity-aware embeddings of a chunk's sentences
    (bit-equal to Local EMD's, see ``repro.local_emd.embeddings``) if
    any of them has a mention.

    With ``tag``, ``rows`` also holds Local EMD's mentions (``local``
    true): each task tags its chunks (``tag_chunk``, one forward pass
    per sentence), seeds its own copy of ``ctrie`` with their
    ``_seed_keys`` (a broadcast value is shared by a worker's tasks) and
    mines with it, embedding from the activations it kept (about 1.4 MB
    per 250 tweets with Aguilar). A task sees only its own seeds, so
    this equals mining on ``ctrie`` seeded with every local mention
    only on a one-partition ``tweets_df``. ``ctrie`` is not changed.

    ``mine_seconds`` and ``n_sentences`` are accumulators of the seconds
    the tasks spent seeding and mining and of the sentences they read;
    read them after the action. ``trie`` is the broadcast of the pickled
    CTrie that the tasks read: destroy it after the action, or its file
    stays in the driver's temporary directory until the SparkContext
    stops.
    """
    sc = spark.sparkContext
    # each task unpickles its own copy to seed: cheaper than a deep copy
    bc = sc.broadcast(pickle.dumps(ctrie, pickle.HIGHEST_PROTOCOL))
    mine_seconds, n_sentences = sc.accumulator(0.0), sc.accumulator(0)

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        system, pe = shipped.value
        trie: CTrie = pickle.loads(bc.value)

        def mine(sents: Sentences, acts) -> pa.RecordBatch:
            t0 = time.perf_counter()
            mined = _mined_batch(trie, system, pe, sents, acts)
            mine_seconds.add(time.perf_counter() - t0)
            return mined

        held, seeds = [], set()
        for batch in batches:
            n_sentences.add(batch.num_rows)
            sents = Sentences.from_arrow(batch)
            if tag:
                spans, acts = system.tag_chunk(sents)
                local = mention_columns(sents, spans)
                held.append((sents, acts))
                seeds.update(_seed_keys(local))
                if local["key"]:
                    yield _local_batch(local)
            else:
                yield mine(sents, None)
        t0 = time.perf_counter()
        for key in sorted(seeds):
            trie.insert(key)
        mine_seconds.add(time.perf_counter() - t0)
        for sents, acts in held:
            yield mine(sents, acts)

    rows = tweets_df.mapInArrow(run, schema=TAGGED_EMB_SCHEMA)
    return rows, mine_seconds, n_sentences, bc
