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

from repro.local_emd.base import Sentences, surface_features
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

    def _features(self, sents: Sentences) -> np.ndarray:
        tokens = sents.tokens
        n = len(tokens)
        fb = np.zeros((n, _N_FREQ_BUCKETS), dtype=np.float32)
        fb[np.arange(n), np.fromiter(map(self._freq_bucket, tokens), np.intp, n)] = 1.0
        # neighbour-identity context buckets: T-SEG consumes contextual
        # features of adjacent tokens (via T-POS/T-CHUNK); hashing
        # neighbours into buckets reproduces the operative property —
        # the same token is tagged differently in different contexts, so
        # detection varies per occurrence
        bucket = np.fromiter(
            (zlib.crc32(t.encode()) % _N_CTX_BUCKETS for t in sents.lowered), np.intp, n
        )
        ctx = np.zeros((n, 2 * _N_CTX_BUCKETS), dtype=np.float32)
        has_prev = np.flatnonzero(sents.positions > 0)
        ctx[has_prev, bucket[has_prev - 1]] = 1.0
        has_next = np.flatnonzero(~sents.is_last)
        ctx[has_next, _N_CTX_BUCKETS + bucket[has_next + 1]] = 1.0
        return np.concatenate(
            [surface_features(tokens, sents.offsets), self._gazetteer(sents), fb, ctx],
            axis=1,
        )

    def fit(self, train_tweets: pd.DataFrame, train_gold: pd.DataFrame) -> None:
        self.freq = Counter(t.lower() for toks in train_tweets["tokens"] for t in toks)
        super().fit(train_tweets, train_gold)
