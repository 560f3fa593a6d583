"""EMD Globalizer pipeline orchestration (Sections III–V).

``build_variant`` performs the per-instantiation offline work the paper
describes in Section VI: fit the Local EMD system (on the WNUT17-train
stand-in), train the Entity Phrase Embedder (deep systems, on synthetic
STS pairs), and train the Entity Classifier on labelled candidate
records mined from the D5 stream.

``global_emd_cycle`` is the one execution cycle on a tweet DataFrame:
Local EMD -> seed candidates -> CTrie -> occurrence mining and local
candidate embeddings (one Spark action) -> pooled global embeddings in
a ``CandidateBase`` -> entity classification -> final mention output.
``EMDGlobalizer.run`` runs it from fresh state (batch mode, with
Figure 6's ablation switches ``local`` / ``mining`` / ``full``),
``candidate_table`` runs it without the classifier to build the
classifier's training table, and the streaming job runs it on each
micro-batch against its kept state.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.candidate_base import CandidateBase
from repro.core.ctrie import CTrie
from repro.core.entity_classifier import EntityClassifier
from repro.core.mention_extraction import MINED_SCHEMA, collect_local_embeddings, extract_mentions
from repro.core.phrase_embedder import (
    PhraseEmbedder,
    pooled_sentence_embeddings,
    train_phrase_embedder,
)
from repro.core.syntactic import N_CATEGORIES
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

# Section V-A: a candidate mention spans a token "together with up to k
# tokens following it" — the window cap, also applied to seed keys.
MAX_CANDIDATE_TOKENS = 5

# a mention's position; no two mentions share one
SPAN_COLS = ["tweet_id", "sent_id", "start", "length"]

# Phrase-embedder output width per deep instantiation (Section VI):
# Aguilar keeps its 100-d output size; BERTweet compresses 768 -> 300.
PHRASE_EMB_DIM = {"Aguilar et al.": 100, "BERTweet": 300}


@dataclass
class FittedVariant:
    """One framework instantiation, ready to run on streams."""

    system: object
    classifier: EntityClassifier
    phrase_embedder: PhraseEmbedder | None = None
    pe_history: dict = field(default_factory=dict)
    clf_history: dict = field(default_factory=dict)

    @property
    def emb_dim(self) -> int:
        """Width of local/global candidate embeddings for this variant."""
        return _emb_dim(self.system, self.phrase_embedder)


@dataclass
class GlobalizerResult:
    """Outputs of one full-cycle run on a tweet batch."""

    local_mentions: pd.DataFrame
    mined_mentions: pd.DataFrame
    final_mentions: pd.DataFrame
    candidates: pd.DataFrame  # key, n_mentions, score, label
    local_seconds: float
    global_seconds: float


def _seed_keys(local_mentions: pd.DataFrame) -> list:
    keys = sorted(set(local_mentions["key"]))
    return [k for k in keys if 1 <= len(k.split(" ")) <= MAX_CANDIDATE_TOKENS]


def _emb_dim(system, phrase_embedder: PhraseEmbedder | None) -> int:
    return phrase_embedder.d_out if system.is_deep else N_CATEGORIES


def _collect_mentions(emb_df: DataFrame, d_emb: int) -> tuple:
    """Mined mentions sorted by span, and their ``(n, d_emb)`` float32
    embeddings in the same order, from one Spark action.

    The sort makes pooling independent of partitioning and of shuffle
    arrival order. The embeddings are copied once, chunk by chunk, out
    of Arrow's flat float buffers: no Python object per mention.
    """
    table = emb_df.toArrow()
    mined = table.drop_columns(["emb"]).to_pandas()
    order = np.lexsort([mined[c].to_numpy() for c in reversed(SPAN_COLS)])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    embs = np.empty((len(order), d_emb), dtype=np.float32)
    start = 0
    for chunk in table.column("emb").chunks:
        rows = chunk.flatten().to_numpy().reshape(len(chunk), d_emb)
        embs[rank[start : start + len(chunk)]] = rows
        start += len(chunk)
    return mined.iloc[order].reset_index(drop=True), embs


def global_emd_cycle(
    spark: SparkSession,
    system,
    phrase_embedder: PhraseEmbedder | None,
    tweets_df: DataFrame,
    ctrie: CTrie,
    candidate_base: CandidateBase,
    classifier: EntityClassifier | None = None,
) -> GlobalizerResult:
    """One execution cycle (Section III) over a batch of tweets.

    Tags the batch with Local EMD, inserts its seed candidates into
    ``ctrie``, mines and embeds every mention of every ``ctrie``
    candidate in one Spark action, and adds the mentions to
    ``candidate_base``'s pooled (sum, count). With a ``classifier``,
    every candidate is then re-labelled and the final mentions are the
    batch's mentions of entity candidates. ``ctrie`` and
    ``candidate_base`` are advanced in place: fresh ones give batch
    mode, kept ones a stream.
    """
    t0 = time.perf_counter()
    local = system.tag(tweets_df).toPandas()
    t1 = time.perf_counter()
    for key in _seed_keys(local):
        ctrie.insert(key)
    mined = pd.DataFrame(columns=MINED_SCHEMA.fieldNames())
    if len(ctrie):
        mined_df = extract_mentions(spark, tweets_df, ctrie)
        emb_df = collect_local_embeddings(spark, tweets_df, mined_df, system, phrase_embedder)
        mined, embs = _collect_mentions(emb_df, candidate_base.d_emb)
        candidate_base.add_mentions(mined["key"].to_numpy(), embs)
        if classifier is not None:
            candidate_base.classify_all(classifier)
    final = mined[mined["key"].isin(candidate_base.entity_keys())].reset_index(drop=True)
    return GlobalizerResult(
        local, mined, final, candidate_base.table(), t1 - t0, time.perf_counter() - t1
    )


class EMDGlobalizer:
    """The framework: a fitted variant applied to tweet DataFrames."""

    def __init__(self, variant: FittedVariant):
        self.variant = variant

    def run(
        self, spark: SparkSession, tweets_df: DataFrame, *, ablation: str = "full"
    ) -> GlobalizerResult:
        """One execution cycle from fresh state (see ``global_emd_cycle``).

        ``ablation``: ``'local'`` stops after Local EMD; ``'mining'``
        adds occurrence mining but skips the classifier (Fig. 6's middle
        curve); ``'full'`` runs everything.
        """
        v = self.variant
        if ablation == "local":
            t0 = time.perf_counter()
            local = v.system.tag(tweets_df).toPandas()
            return GlobalizerResult(
                local, local.iloc[0:0], local, CandidateBase(v.emb_dim).table(),
                time.perf_counter() - t0, 0.0,
            )
        res = global_emd_cycle(
            spark, v.system, v.phrase_embedder, tweets_df, CTrie(),
            CandidateBase(v.emb_dim), None if ablation == "mining" else v.classifier,
        )
        if ablation == "mining":
            return replace(res, final_mentions=res.mined_mentions)
        return res


def candidate_table(
    spark: SparkSession,
    variant_system,
    phrase_embedder: PhraseEmbedder | None,
    tweets_df: DataFrame,
    gold_keys: set,
) -> tuple:
    """Mine the labelled candidate table used to train/evaluate the
    Entity Classifier: one unclassified ``global_emd_cycle`` over a
    training stream, each candidate labelled by gold membership.

    Candidates are sorted by key: the classifier's train/val split is
    positional, so a stable order makes training reproducible.

    Returns ``(embs, keys, labels, n_mentions)``.
    """
    cb = CandidateBase(_emb_dim(variant_system, phrase_embedder))
    cands = global_emd_cycle(
        spark, variant_system, phrase_embedder, tweets_df, CTrie(), cb
    ).candidates
    keys = cands["key"].tolist()
    labels = np.array([1.0 if k in gold_keys else 0.0 for k in keys])
    return cb.embeddings(keys), keys, labels, cands["n_mentions"].to_numpy()


def build_variant(
    spark: SparkSession,
    system,
    *,
    scale: float = 1.0,
    d5_scale: float | None = None,
    classifier_seed: int = 6,
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
    d5_df = d5.to_spark(spark)
    gold_keys = set(d5.gold["key"])
    embs, keys, labels, _ = candidate_table(spark, system, pe, d5_df, gold_keys)
    clf = EntityClassifier.build(embs.shape[1], seed=classifier_seed)
    clf_hist = clf.train(embs, keys, labels, seed=classifier_seed)
    return FittedVariant(system, clf, pe, pe_hist, clf_hist)
