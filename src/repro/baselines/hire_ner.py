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

``HireNER`` is a :class:`BioTagger` that supplies only those features;
fitting, decoding and the gazetteer are the shared ones. The memory is
one (sum, count) aggregation: ``token_sums`` gives a partial per pandas
chunk and ``memory_from_sums`` merges partials into per-type means.
``fit`` builds the training corpus's memory as a single chunk on the
driver and keeps it as ``memory``. ``tag`` runs the partials as Spark
``mapInPandas`` over the dataset, binds the merged memory to a copy of
the fitted tagger, and tags through the shared ``LocalEMDSystem.tag``
path; the fitted object keeps its training memory.
"""
from __future__ import annotations

import copy
from typing import Iterator

import numpy as np
import pandas as pd
import pyspark.sql.types as T
from pyspark.sql import DataFrame

from repro.local_emd.base import Sentences, surface_features
from repro.local_emd.deep import BioTagger
from repro.local_emd.embeddings import EmbeddingBank

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
    sents = Sentences.from_frame(tweets)
    toks = sents.lowered
    embs = bank.contextual_chunk(toks, sents.offsets, sents.tweet_ids, sents.sent_ids)
    for t, e in zip(toks, embs):
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


class HireNER(BioTagger):
    """Document-level EMD with token-type global memory features.

    ``_features`` reads the global features from ``memory``, which
    holds every token of the corpus it was built from: the training
    corpus on the fitted tagger, the dataset on the copy ``tag`` makes.
    """

    name = "HIRE-NER"

    def __init__(self, bank: EmbeddingBank, gazetteer_keys: set, *, epochs: int = 14):
        super().__init__([128, 100], seed=47, epochs=epochs, gazetteer_keys=gazetteer_keys)
        self.bank = bank
        self.memory: dict = {}

    def _features(self, sents: Sentences) -> np.ndarray:
        low = sents.lowered
        emb = self.bank.contextual_chunk(low, sents.offsets, sents.tweet_ids, sents.sent_ids)
        glob = np.stack([self.memory[t] for t in low]) if low else emb
        return np.concatenate(
            [emb, surface_features(sents.tokens, sents.offsets), self._gazetteer(sents), glob],
            axis=1,
        )

    def fit(self, train_tweets: pd.DataFrame, train_gold: pd.DataFrame) -> None:
        self.memory = memory_from_sums(token_sums(self.bank, train_tweets))
        super().fit(train_tweets, train_gold)

    def build_memory(self, tweets_df: DataFrame) -> dict:
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

    def tag(self, tweets_df: DataFrame) -> DataFrame:
        """Two-pass document EMD: build the global memory over the whole
        dataset, then decode every sentence with [local ‖ global] through
        the shared tagging path, on a copy of this tagger that holds the
        dataset's memory."""
        self._check_fitted()
        tagger = copy.copy(self)
        tagger.memory = self.build_memory(tweets_df)
        return super(HireNER, tagger).tag(tweets_df)
