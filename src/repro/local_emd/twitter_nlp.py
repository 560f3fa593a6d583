"""TwitterNLP-style Local EMD: a shallow discriminative BIO tagger.

Stand-in for Ritter et al.'s TwitterNLP (T-POS/T-CHUNK/T-CAP features
feeding a CRF segmenter T-SEG). The production CRF pipeline is not
available offline; this reproduction keeps the model *class* — a
discriminative tagger over handcrafted surface features including an
incomplete gazetteer (the paper's Freebase type-lists) and a
capitalization-informativeness signal (T-CAP's role is played by the
sentence-nondiscriminative feature) — trained on the WNUT17-train
stand-in. It is a :class:`BioTagger` with one 24-unit ReLU layer that
supplies only its token features; each ``fit`` first counts the training
corpus's token frequencies, which the features bucket. No contextual
embeddings: the system is 'non-deep', so Global EMD will use the 6-d
syntactic embedding path for it.
"""
from __future__ import annotations

import zlib
from collections import Counter

import numpy as np
import pandas as pd

from repro.local_emd.base import surface_features
from repro.local_emd.deep import BioTagger

__all__ = ["TwitterNLP"]

_N_FREQ_BUCKETS = 4
_N_CTX_BUCKETS = 16


class TwitterNLP(BioTagger):
    """24-unit ReLU MLP BIO tagger with gazetteer + frequency features."""

    name = "TwitterNLP"
    is_deep = False

    def __init__(self, gazetteer_keys: set):
        # small hidden layer: stands in for the CRF's feature conjunctions
        # (a purely linear tagger under-fits the cap x gazetteer x
        # frequency interactions the paper's T-SEG feature set encodes)
        super().__init__([24], seed=3, epochs=30, lr=5e-3, gazetteer_keys=gazetteer_keys)
        self.freq: Counter = Counter()

    def _freq_bucket(self, tok: str) -> int:
        """0 = unseen in training corpus, 1 = rare, 2 = mid, 3 = common."""
        c = self.freq.get(tok.lower(), 0)
        if c == 0:
            return 0
        if c <= 3:
            return 1
        if c <= 20:
            return 2
        return 3

    def _features(self, tokens: list, tweet_id: int, sent_id: int) -> np.ndarray:
        n = len(tokens)
        fb = np.zeros((n, _N_FREQ_BUCKETS), dtype=np.float32)
        ctx = np.zeros((n, 2 * _N_CTX_BUCKETS), dtype=np.float32)
        for i, t in enumerate(tokens):
            fb[i, self._freq_bucket(t)] = 1.0
            # neighbour-identity context buckets: T-SEG consumes
            # contextual features of adjacent tokens (via T-POS/T-CHUNK);
            # hashing neighbours into buckets reproduces the operative
            # property — the same token is tagged differently in
            # different contexts, so detection varies per occurrence
            if i > 0:
                ctx[i, zlib.crc32(tokens[i - 1].lower().encode()) % _N_CTX_BUCKETS] = 1.0
            if i < n - 1:
                ctx[i, _N_CTX_BUCKETS + zlib.crc32(tokens[i + 1].lower().encode()) % _N_CTX_BUCKETS] = 1.0
        return np.concatenate(
            [
                surface_features(tokens),
                self._gazetteer(tokens),
                fb,
                ctx,
            ],
            axis=1,
        )

    def fit(self, train_tweets: pd.DataFrame, train_gold: pd.DataFrame) -> None:
        self.freq = Counter(t.lower() for toks in train_tweets["tokens"] for t in toks)
        super().fit(train_tweets, train_gold)
