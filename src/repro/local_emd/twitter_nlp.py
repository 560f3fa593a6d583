"""TwitterNLP-style Local EMD: a shallow discriminative BIO tagger.

Stand-in for Ritter et al.'s TwitterNLP (T-POS/T-CHUNK/T-CAP features
feeding a CRF segmenter T-SEG). The production CRF pipeline is not
available offline; this reproduction keeps the model *class* — a
discriminative tagger (here a 24-unit ReLU MLP with an O/B/I sigmoid
head) over handcrafted surface features including an
incomplete gazetteer (the paper's Freebase type-lists) and a
capitalization-informativeness signal (T-CAP's role is played by the
sentence-nondiscriminative feature) — trained on the WNUT17-train
stand-in. No contextual embeddings: the system is 'non-deep', so Global
EMD will use the 6-d syntactic embedding path for it.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

from repro.local_emd.base import LocalEMDSystem, surface_features
from repro.local_emd.deep import (
    bio_training_set,
    decode_bio,
    gazetteer_features,
    train_bio_tagger,
)
from repro.nn.mlp import MLP

__all__ = ["TwitterNLP"]

_N_FREQ_BUCKETS = 4
_N_CTX_BUCKETS = 16


class TwitterNLP(LocalEMDSystem):
    """24-unit ReLU MLP BIO tagger with gazetteer + frequency features."""

    name = "TwitterNLP"
    is_deep = False

    def __init__(self, gazetteer_keys: set, *, seed: int = 3, epochs: int = 30):
        self.gaz_uni = {k for k in gazetteer_keys if " " not in k}
        self.gaz_tokens = {t for k in gazetteer_keys for t in k.split(" ")}
        self.seed = seed
        self.epochs = epochs
        self.model: MLP | None = None
        self.freq: dict = {}
        self.train_info: dict = {}

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

    def _features(self, tokens: list) -> np.ndarray:
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
                gazetteer_features(tokens, self.gaz_uni, self.gaz_tokens),
                fb,
                ctx,
            ],
            axis=1,
        )

    def fit(self, train_tweets: pd.DataFrame, train_gold: pd.DataFrame) -> None:
        for toks in train_tweets["tokens"]:
            for t in toks:
                low = t.lower()
                self.freq[low] = self.freq.get(low, 0) + 1
        X, Y = bio_training_set(
            train_tweets, train_gold, lambda toks, _tid, _sid: self._features(toks)
        )
        # small hidden layer: stands in for the CRF's feature conjunctions
        # (a purely linear tagger under-fits the cap x gazetteer x
        # frequency interactions the paper's T-SEG feature set encodes)
        self.model = MLP.build([X.shape[1], 24, 3], ["relu", "sigmoid"], seed=self.seed)
        self.train_info = train_bio_tagger(
            self.model, X, Y, lr=5e-3, epochs=self.epochs, seed=self.seed
        )

    def tag_sentence(self, tokens: list, tweet_id: int, sent_id: int) -> list:
        if self.model is None:
            raise RuntimeError("TwitterNLP: call fit() before tagging")
        if not tokens:
            return []
        return decode_bio(self.model, self._features(tokens))
