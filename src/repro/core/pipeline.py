"""EMD Globalizer pipeline orchestration (Sections III–V).

``build_variant`` performs the per-instantiation offline work the paper
describes in Section VI: fit the Local EMD system (on the WNUT17-train
stand-in), train the Entity Phrase Embedder (deep systems, on synthetic
STS pairs), and train the Entity Classifier on labelled candidate
records mined from the D5 stream.

``global_emd_cycle`` is the one execution cycle on a tweet DataFrame:
Local EMD -> seed candidates -> CTrie -> occurrence mining and local
candidate embeddings -> pooled global embeddings in a ``CandidateBase``
-> entity classification -> final mention output. Mining and embedding
run in one task, ``scan_batch``, which reads the fitted system from a
broadcast: ``FittedVariant.shipped`` makes it once per variant and
SparkContext. On a one-partition input (a stream's micro-batch) that
task also tags and seeds, so the cycle is one Spark job and the DNN
runs once per sentence; on an input of several partitions Local EMD
runs as a job of its own first (reading the same broadcast), because a
partition cannot see the seeds the others find.
``EMDGlobalizer.run`` runs it from fresh state (batch mode; its local,
mined and final mentions are Figure 6's three curves),
``candidate_table`` runs it without the classifier to build the
classifier's training table, and the streaming job runs it on each
micro-batch against its kept state.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession

from repro.core.candidate_base import CandidateBase
from repro.core.ctrie import CTrie
from repro.core.entity_classifier import EntityClassifier
from repro.core.mention_extraction import (
    MAX_CANDIDATE_TOKENS,
    MINED_SCHEMA,
    _seed_keys,
    scan_batch,
    ship,
    tag_shipped,
)
from repro.core.phrase_embedder import (
    PhraseEmbedder,
    pooled_sentence_embeddings,
    train_phrase_embedder,
)
from repro.core.syntactic import N_CATEGORIES
from repro.local_emd.base import MENTIONS_SCHEMA, SPAN_COLS
from repro.streams import generator as gen
from repro.streams.sts import generate_sts

__all__ = [
    "MAX_CANDIDATE_TOKENS",
    "FittedVariant",
    "GlobalizerResult",
    "EMDGlobalizer",
    "build_variant",
    "candidate_table",
    "global_emd_cycle",
    "PHRASE_EMB_DIM",
]

# Phrase-embedder output width per deep instantiation (Section VI):
# Aguilar keeps its 100-d output size; BERTweet compresses 768 -> 300.
PHRASE_EMB_DIM = {"Aguilar et al.": 100, "BERTweet": 300}

# seeds the Entity Classifier's initial weights and its training split
CLASSIFIER_SEED = 6


@dataclass
class FittedVariant:
    """One framework instantiation, ready to run on streams."""

    system: object
    classifier: EntityClassifier | None
    phrase_embedder: PhraseEmbedder | None = None
    pe_history: dict = field(default_factory=dict)
    clf_history: dict = field(default_factory=dict)
    # (SparkContext, broadcast) of the last ``shipped`` call
    _shipped: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def emb_dim(self) -> int:
        """Width of the global candidate embeddings the classifier reads."""
        return self.phrase_embedder.d_out if self.system.is_deep else N_CATEGORIES

    def candidate_base(self) -> CandidateBase:
        """An empty ``CandidateBase`` for this variant: it pools a deep
        system's phrase embeddings, and only category counts otherwise."""
        return CandidateBase(self.emb_dim if self.system.is_deep else 0)

    def shipped(self, spark: SparkSession) -> Broadcast:
        """``ship``'s broadcast of ``(system, phrase_embedder)``, made at
        the first call on ``spark``'s SparkContext and kept: every cycle
        of this variant, batch or stream, hands its tasks the same one,
        so a Python worker that keeps running them unpickles the system
        once and keeps its caches warm. A new SparkContext gets a new
        broadcast. The system must not be refit once it is shipped."""
        sc = spark.sparkContext
        if self._shipped is None or self._shipped[0] is not sc:
            self._shipped = (sc, ship(spark, self.system, self.phrase_embedder))
        return self._shipped[1]


@dataclass
class GlobalizerResult:
    """Outputs of one full-cycle run on a tweet batch."""

    local_mentions: pd.DataFrame
    mined_mentions: pd.DataFrame
    final_mentions: pd.DataFrame
    local_seconds: float
    global_seconds: float
    n_sentences: int  # tweet-sentences the cycle read
    # the cycle's CandidateBase.table(), which EMDGlobalizer.run adds; a
    # bare global_emd_cycle builds no table
    candidates: pd.DataFrame | None = None


def _collect_mentions(table: pa.Table, d_emb: int) -> tuple:
    """Mined mentions sorted by span, and their ``(n, d_emb)`` float32
    embeddings in the same order, from a collected Arrow table of
    ``EMB_SCHEMA`` rows, or of ``TAGGED_EMB_SCHEMA`` rows, whose local
    rows it leaves out.

    The sort makes pooling independent of partitioning and of the order
    rows arrive in. The embeddings are copied once, chunk by chunk, out
    of Arrow's flat float buffers: no Python object per mention. A local
    row's ``emb`` is empty, so flattening skips it without a filter that
    would copy the embeddings; with ``d_emb`` 0 nothing is copied.
    """
    mined = table.select(MINED_SCHEMA.fieldNames()).to_pandas()
    # masking copies the frame: only a table with local rows pays it
    if "local" in table.column_names and pc.any(table["local"]).as_py():
        mined = mined[~table["local"].to_numpy()]
    order = np.lexsort([mined[c].to_numpy() for c in reversed(SPAN_COLS)])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    embs = np.empty((len(order), d_emb), dtype=np.float32)
    start = 0
    for chunk in table.column("emb").chunks if d_emb else ():
        rows = chunk.flatten().to_numpy().reshape(-1, d_emb)
        embs[rank[start : start + len(rows)]] = rows
        start += len(rows)
    return mined.iloc[order].reset_index(drop=True), embs


def global_emd_cycle(
    spark: SparkSession,
    shipped: Broadcast,
    tweets_df: DataFrame,
    ctrie: CTrie,
    candidate_base: CandidateBase,
    classifier: EntityClassifier | None = None,
    *,
    one_task: bool = False,
) -> GlobalizerResult:
    """One execution cycle (Section III) over a batch of tweets.

    Tags the batch with Local EMD, inserts its seed candidates into
    ``ctrie``, mines and embeds every mention of every ``ctrie``
    candidate, and adds the mentions to ``candidate_base``'s pooled
    (sum, count). With a ``classifier``, every candidate is then
    re-labelled and the final mentions are the batch's mentions of
    entity candidates. ``ctrie`` and ``candidate_base`` are advanced in
    place: fresh ones give batch mode, kept ones a stream. An empty
    batch adds nothing and leaves every candidate's (sum, count), score
    and label as they were. ``shipped`` is the Local EMD system and its
    phrase embedder as ``ship`` broadcasts them; every job of the cycle
    reads the system from it.

    ``scan_batch`` mines and embeds, collected as one Arrow table; it
    also tags if ``tweets_df`` has one partition. With ``one_task`` the
    cycle coalesces ``tweets_df`` to one partition and takes that plan.
    Otherwise it reads the partition count, which plans the query once
    more: that runs no Spark job on a materialised cache or a scan, but
    on a frame that ends in a shuffle not yet run, adaptive execution
    runs that shuffle. One partition: the cycle is one Spark job, the
    driver splits off the local rows and inserts their seeds into
    ``ctrie``, and ``local_seconds`` is the job's time less the seconds
    its task spent seeding and mining. Otherwise ``tag_shipped`` runs as
    a job first, the driver seeds ``ctrie``, and ``local_seconds`` is
    that job's time. Both plans give the same bits. ``global_seconds``
    is the rest of the cycle; ``n_sentences`` counts the sentences read.
    The result's ``candidates`` is left ``None``: a caller that reads the
    candidate table builds it with ``candidate_base.table()``.
    The broadcast of the CTrie that the scan read is destroyed once its
    job has run.
    """
    t0 = time.perf_counter()
    if one_task:
        tweets_df = tweets_df.coalesce(1)
    tag = one_task or tweets_df.rdd.getNumPartitions() == 1
    if not tag:
        local = tag_shipped(tweets_df, shipped).toPandas()
        local_seconds = time.perf_counter() - t0
        for key in _seed_keys(local):
            ctrie.insert(key)
    rows, mine_seconds, n_sentences, trie = scan_batch(
        spark, tweets_df, ctrie, shipped, tag=tag
    )
    try:
        table = rows.toArrow()
    finally:
        trie.destroy()
    if tag:
        local_seconds = time.perf_counter() - t0 - mine_seconds.value
        local = (
            table.select(MENTIONS_SCHEMA.fieldNames())
            .filter(table.column("local"))
            .to_pandas()
        )
        for key in _seed_keys(local):
            ctrie.insert(key)
    mined, embs = _collect_mentions(table, candidate_base.d_emb)
    candidate_base.add_mentions(mined["key"].to_numpy(), embs, mined["category"].to_numpy())
    if classifier is not None:
        candidate_base.classify_all(classifier)
    final = mined[mined["key"].isin(candidate_base.entity_keys())].reset_index(drop=True)
    return GlobalizerResult(
        local, mined, final, local_seconds,
        time.perf_counter() - t0 - local_seconds, n_sentences.value,
    )


class EMDGlobalizer:
    """The framework: a fitted variant applied to tweet DataFrames."""

    def __init__(self, variant: FittedVariant):
        self.variant = variant

    def run(self, spark: SparkSession, tweets_df: DataFrame) -> GlobalizerResult:
        """One execution cycle from fresh state (see ``global_emd_cycle``).

        The result holds Figure 6's three stages of one cycle: Local
        EMD's mentions, every mined mention of a seed candidate, and the
        final mentions of entity candidates; ``candidates`` is the
        cycle's candidate table.
        """
        v = self.variant
        # shipping checks the system before the base reads its embedder
        shipped = v.shipped(spark)
        cb = v.candidate_base()
        res = global_emd_cycle(spark, shipped, tweets_df, CTrie(), cb, v.classifier)
        res.candidates = cb.table()
        return res


def candidate_table(
    spark: SparkSession, variant: FittedVariant, tweets_df: DataFrame, gold_keys: set
) -> tuple:
    """Mine the labelled candidate table used to train/evaluate the
    Entity Classifier: one unclassified ``global_emd_cycle`` over a
    training stream, each candidate labelled by gold membership.

    Candidates are sorted by key: the classifier's train/val split is
    positional, so a stable order makes training reproducible.

    Returns ``(embs, keys, labels, n_mentions)``.
    """
    cb = variant.candidate_base()
    global_emd_cycle(spark, variant.shipped(spark), tweets_df, CTrie(), cb)
    cands = cb.table()
    keys = cands["key"].tolist()
    labels = np.array([1.0 if k in gold_keys else 0.0 for k in keys])
    return cb.embeddings(keys), keys, labels, cands["n_mentions"].to_numpy()


def build_variant(
    spark: SparkSession,
    system,
    *,
    scale: float = 1.0,
    d5_scale: float | None = None,
) -> FittedVariant:
    """Perform all offline training for one framework instantiation.

    ``scale`` shrinks the training corpora (unit tests); ``d5_scale``
    optionally overrides the D5 scale (the 38K-tweet stream is the
    costliest part — benchmarks run it at a fraction, which preserves
    its distribution; see DESIGN.md).
    """
    train = gen.generate("wnut17_train", scale=scale)
    system.fit(train.tweets, train.gold)

    pe = None
    pe_hist: dict = {}
    if system.is_deep:
        n_train = max(200, int(5749 * scale))
        n_val = max(60, int(1500 * scale))
        pairs_train, pairs_val = generate_sts(n_train, n_val)
        A = pooled_sentence_embeddings(system, [p.tokens_a for p in pairs_train], 10_000_000)
        B = pooled_sentence_embeddings(system, [p.tokens_b for p in pairs_train], 20_000_000)
        y = np.array([p.score for p in pairs_train])
        Av = pooled_sentence_embeddings(system, [p.tokens_a for p in pairs_val], 30_000_000)
        Bv = pooled_sentence_embeddings(system, [p.tokens_b for p in pairs_val], 40_000_000)
        yv = np.array([p.score for p in pairs_val])
        d_out = PHRASE_EMB_DIM.get(system.name, system.embedding_dim)
        pe, pe_hist = train_phrase_embedder(
            A, B, y, d_out=d_out, val_split=(Av, Bv, yv)
        )

    d5 = gen.generate("d5", scale=d5_scale if d5_scale is not None else scale)
    # shipped once, here: the D5 table and every later cycle read one broadcast
    variant = FittedVariant(system, None, pe, pe_hist)
    embs, keys, labels, _ = candidate_table(spark, variant, d5.to_spark(spark), set(d5.gold["key"]))
    variant.classifier = EntityClassifier.build(embs.shape[1], seed=CLASSIFIER_SEED)
    variant.clf_history = variant.classifier.train(embs, keys, labels, seed=CLASSIFIER_SEED)
    return variant
