"""Shared machinery for the learned BIO taggers, and the deep Local EMD system.

The learned taggers (the deep systems, TwitterNLP and the HIRE-NER
baseline) share one supervised sequence-labeling core: gold spans to a
stacked ``(X, Y)`` training set (``bio_training_set``), three-way
(O/B/I) sigmoid-head training through the one early-stopping Adam loop
(``train_bio_tagger``) on the WNUT17-train stand-in corpus, and argmax
BIO decoding (``decode_bio``). Deep systems add a contextual-embedding
input and expose their penultimate layer as the 'entity-aware' token
embedding consumed by Global EMD (Section IV: "the output of the neural
network's final layer before token-level classification").
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.local_emd.base import (
    LocalEMDSystem,
    bio_to_spans,
    spans_to_bio,
    surface_features,
)
from repro.local_emd.embeddings import EmbeddingBank
from repro.nn.mlp import MLP, bce_grad, bce_loss, train_early_stopping

__all__ = [
    "train_bio_tagger",
    "bio_training_set",
    "decode_bio",
    "gazetteer_features",
    "DeepEMDSystem",
]


def train_bio_tagger(
    model: MLP,
    X: np.ndarray,
    Y: np.ndarray,
    *,
    lr: float = 1e-3,
    batch_size: int = 256,
    epochs: int = 12,
    patience: int = 3,
    seed: int = 0,
) -> dict:
    """Train a (n,3)-sigmoid tagger with per-class BCE through
    ``train_early_stopping``, holding out a random 10% of the tokens for
    validation. The generator that drew the split then shuffles the
    minibatches."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(X.shape[0])
    n_val = max(1, int(X.shape[0] * 0.1))
    val_idx, tr_idx = order[:n_val], order[n_val:]
    Xtr, Ytr, Xval, Yval = X[tr_idx], Y[tr_idx], X[val_idx], Y[val_idx]
    return train_early_stopping(
        model,
        len(tr_idx),
        lambda idx: model.backward(bce_grad(model.forward(Xtr[idx]), Ytr[idx], 1e-7)),
        lambda: bce_loss(model.forward(Xval), Yval, 1e-7),
        rng=rng,
        lr=lr,
        batch_size=batch_size,
        epochs=epochs,
        patience=patience,
    )


def bio_training_set(tweets: pd.DataFrame, gold: pd.DataFrame, features) -> tuple:
    """Stack every training sentence's token features and one-hot gold
    O/B/I tags into ``(X, Y)`` float32 arrays.

    ``features(tokens, tweet_id, sent_id)`` gives one sentence's
    ``(n_tokens, n_features)`` matrix.
    """
    gold_by_sent: dict = {}
    for r in gold.itertuples():
        gold_by_sent.setdefault((r.tweet_id, r.sent_id), []).append((r.start, r.length))
    Xs, Ys = [], []
    for r in tweets.itertuples():
        toks = list(r.tokens)
        Xs.append(features(toks, int(r.tweet_id), int(r.sent_id)))
        tags = spans_to_bio(len(toks), gold_by_sent.get((r.tweet_id, r.sent_id), []))
        Ys.append(np.eye(3, dtype=np.float32)[tags])
    return np.concatenate(Xs).astype(np.float32), np.concatenate(Ys)


def decode_bio(model: MLP, X: np.ndarray) -> list:
    """``(start, length)`` spans of the most probable O/B/I tag per token."""
    return bio_to_spans(np.argmax(model.forward(X), axis=1))


def gazetteer_features(tokens: list, unigram_keys: set, all_tokens: set) -> np.ndarray:
    """Two lexical features per token: exact unigram-gazetteer hit, and
    membership in any gazetteer entry's token set (the paper's Aguilar
    instantiation encodes gazetteer hits as a small lexical vector)."""
    f = np.zeros((len(tokens), 2), dtype=np.float32)
    for i, t in enumerate(tokens):
        low = t.lower()
        f[i, 0] = low in unigram_keys
        f[i, 1] = low in all_tokens
    return f


class DeepEMDSystem(LocalEMDSystem):
    """A deep Local EMD tagger over synthetic contextual embeddings.

    ``hidden`` fixes the architecture; the last hidden width is the
    penultimate layer = the entity-aware embedding dimension the paper
    taps (100 for Aguilar et al., 768 for BERTweet).
    """

    is_deep = True

    def __init__(
        self,
        name: str,
        bank: EmbeddingBank,
        hidden: list,
        *,
        gazetteer_keys: set | None = None,
        seed: int = 0,
        epochs: int = 12,
        lr: float = 1e-3,
    ):
        self.name = name
        self.bank = bank
        self.hidden = list(hidden)
        self.embedding_dim = self.hidden[-1]
        self.gaz_uni = None
        self.gaz_tokens = None
        if gazetteer_keys is not None:
            self.gaz_uni = {k for k in gazetteer_keys if " " not in k}
            self.gaz_tokens = {t for k in gazetteer_keys for t in k.split(" ")}
        self.seed = seed
        self.epochs = epochs
        self.lr = lr
        self.model: MLP | None = None
        self.train_info: dict = {}

    @property
    def n_features(self) -> int:
        return self.bank.dim + 9 + (2 if self.gaz_uni is not None else 0)

    def _features(self, tokens: list, tweet_id: int, sent_id: int) -> np.ndarray:
        emb = self.bank.contextual([t.lower() for t in tokens], tweet_id, sent_id)
        parts = [emb, surface_features(tokens)]
        if self.gaz_uni is not None:
            parts.append(gazetteer_features(tokens, self.gaz_uni, self.gaz_tokens))
        return np.concatenate(parts, axis=1)

    def fit(self, train_tweets: pd.DataFrame, train_gold: pd.DataFrame) -> None:
        X, Y = bio_training_set(train_tweets, train_gold, self._features)
        sizes = [self.n_features, *self.hidden, 3]
        acts = ["relu"] * len(self.hidden) + ["sigmoid"]
        self.model = MLP.build(sizes, acts, seed=self.seed)
        self.train_info = train_bio_tagger(
            self.model, X, Y, lr=self.lr, epochs=self.epochs, seed=self.seed
        )

    def _check_fitted(self) -> None:
        if self.model is None:
            raise RuntimeError(f"{self.name}: call fit() before tagging")

    def tag_sentence(self, tokens: list, tweet_id: int, sent_id: int) -> list:
        self._check_fitted()
        if not tokens:
            return []
        return decode_bio(self.model, self._features(tokens, tweet_id, sent_id))

    def entity_aware_embeddings(
        self, tokens: list, tweet_id: int, sent_id: int
    ) -> np.ndarray:
        """Penultimate-layer activations for every token (float32)."""
        self._check_fitted()
        return self.model.penultimate(
            self._features(tokens, tweet_id, sent_id)
        ).astype(np.float32)
