"""HIRE-NER baseline (Luo et al., AAAI 2020) — the Table IV comparator.

HIRE-NER performs document-level EMD: for every unique token it distills
non-local information from the whole document into a memory structure,
appends the pooled global token representation to each sentence-level
local embedding, and decodes token labels from the concatenation. The
paper uses it as the representative "globalize at token level" design,
against which EMD Globalizer's "globalize only entity candidates" is
shown to yield higher precision (token-level global features inject
noise into the decoder's inference).

This reproduction keeps exactly that architecture over the same
substrate as the Aguilar et al. stand-in (both BiLSTM architectures in
the paper; both MLPs over the same synthetic contextual bank here):

- local features: contextual token embedding + surface features (+ the
  same gazetteer lexical features),
- global features: the *corpus-level mean* of the token's contextual
  embeddings (the memory structure), recomputed for whatever dataset is
  being processed — "HIRE-NER treats messages in a stream as composite
  content, much like a document",
- decoder: feed-forward O/B/I head over [local ‖ global].

The memory is one (sum, count) aggregation: ``token_sums`` gives a
partial per pandas chunk and ``memory_from_sums`` merges partials into
per-type means. Training takes the whole training corpus as a single
chunk on the driver; tagging runs the partials as Spark ``mapInPandas``
over the dataset and broadcasts the merged memory into the tagging
pass, which emits rows through the same ``mentions_frame`` as every
Local EMD system.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
import pyspark.sql.types as T
from pyspark.sql import DataFrame, SparkSession

from repro.local_emd.base import MENTIONS_SCHEMA, mentions_frame, surface_features
from repro.local_emd.deep import (
    bio_training_set,
    decode_bio,
    gazetteer_features,
    train_bio_tagger,
)
from repro.local_emd.embeddings import EmbeddingBank
from repro.nn.mlp import MLP

__all__ = ["HireNER", "token_sums", "memory_from_sums"]

TOKEN_SUMS_SCHEMA = T.StructType(
    [
        T.StructField("token", T.StringType()),
        T.StructField("emb_sum", T.ArrayType(T.DoubleType())),
        T.StructField("count", T.LongType()),
    ]
)


def token_sums(bank: EmbeddingBank, tweets: pd.DataFrame) -> pd.DataFrame:
    """One partial of the memory: per lowercased token, the float64 sum
    of its contextual embeddings over a pandas chunk of tweets and its
    occurrence count (``TOKEN_SUMS_SCHEMA`` columns)."""
    sums: dict = {}
    counts: dict = {}
    for r in tweets.itertuples():
        toks = [t.lower() for t in r.tokens]
        emb = bank.contextual(toks, int(r.tweet_id), int(r.sent_id))
        for t, e in zip(toks, emb):
            if t in sums:
                sums[t] += e
                counts[t] += 1
            else:
                sums[t] = e.astype(np.float64).copy()
                counts[t] = 1
    return pd.DataFrame(
        {
            "token": list(sums),
            "emb_sum": [sums[t].tolist() for t in sums],
            "count": [counts[t] for t in sums],
        }
    )


def memory_from_sums(partials: pd.DataFrame) -> dict:
    """The memory structure: merge ``token_sums`` partials into the mean
    contextual embedding (float32) per token type."""
    sums: dict = {}
    counts: dict = {}
    for r in partials.itertuples():
        v = np.asarray(r.emb_sum)
        if r.token in sums:
            sums[r.token] += v
            counts[r.token] += r.count
        else:
            sums[r.token] = v.copy()
            counts[r.token] = r.count
    return {t: (sums[t] / counts[t]).astype(np.float32) for t in sums}


class HireNER:
    """Document-level EMD with token-type global memory features."""

    name = "HIRE-NER"

    def __init__(
        self,
        bank: EmbeddingBank,
        gazetteer_keys: set,
        *,
        hidden: tuple = (128, 100),
        seed: int = 47,
        epochs: int = 14,
    ):
        self.bank = bank
        self.gaz_uni = {k for k in gazetteer_keys if " " not in k}
        self.gaz_tokens = {t for k in gazetteer_keys for t in k.split(" ")}
        self.hidden = list(hidden)
        self.seed = seed
        self.epochs = epochs
        self.model: MLP | None = None

    @property
    def n_local_features(self) -> int:
        return self.bank.dim + 9 + 2

    @property
    def n_features(self) -> int:
        return self.n_local_features + self.bank.dim  # + global memory slot

    # ------------------------------------------------------------------
    def _features(
        self, tokens: list, tweet_id: int, sent_id: int, memory: dict
    ) -> np.ndarray:
        low = [t.lower() for t in tokens]
        emb = self.bank.contextual(low, tweet_id, sent_id)
        glob = np.stack([memory[t] for t in low]) if tokens else emb
        return np.concatenate(
            [
                emb,
                surface_features(tokens),
                gazetteer_features(tokens, self.gaz_uni, self.gaz_tokens),
                glob,
            ],
            axis=1,
        )

    def fit(self, train_tweets: pd.DataFrame, train_gold: pd.DataFrame) -> None:
        memory = memory_from_sums(token_sums(self.bank, train_tweets))
        X, Y = bio_training_set(
            train_tweets,
            train_gold,
            lambda toks, tweet_id, sent_id: self._features(toks, tweet_id, sent_id, memory),
        )
        sizes = [self.n_features, *self.hidden, 3]
        acts = ["relu"] * len(self.hidden) + ["sigmoid"]
        self.model = MLP.build(sizes, acts, seed=self.seed)
        train_bio_tagger(self.model, X, Y, epochs=self.epochs, seed=self.seed)

    # ------------------------------------------------------------------
    def build_memory(self, spark: SparkSession, tweets_df: DataFrame) -> dict:
        """Compute the per-token-type global memory for a dataset as a
        distributed (sum, count) aggregation: one ``token_sums`` partial
        per Arrow batch, merged on the driver."""
        bank = self.bank

        def partial(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            for pdf in batches:
                yield token_sums(bank, pdf)

        return memory_from_sums(
            tweets_df.mapInPandas(partial, schema=TOKEN_SUMS_SCHEMA).toPandas()
        )

    def tag(self, spark: SparkSession, tweets_df: DataFrame) -> DataFrame:
        """Two-pass document EMD: build the global memory over the whole
        dataset, then decode every sentence with [local ‖ global]."""
        if self.model is None:
            raise RuntimeError("HireNER: call fit() first")
        memory = self.build_memory(spark, tweets_df)
        bc = spark.sparkContext.broadcast((self.model.to_arrays(), memory))
        me = self

        def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
            arrays, mem = bc.value
            model = MLP.from_arrays(arrays)

            def tag_sentence(toks: list, tweet_id: int, sent_id: int) -> list:
                if not toks:
                    return []
                return decode_bio(model, me._features(toks, tweet_id, sent_id, mem))

            for pdf in batches:
                yield mentions_frame(pdf, tag_sentence)

        return tweets_df.mapInPandas(run, schema=MENTIONS_SCHEMA)
