"""The one learned BIO tagger, and the deep Local EMD system built on it.

Every learned tagger (TwitterNLP, the deep systems and the HIRE-NER
baseline) is a ``BioTagger`` that supplies only its token features. The
shared core: gold spans to a stacked ``(X, Y)`` training set
(``bio_training_set``), an MLP whose input width is the features' width,
three-way (O/B/I) sigmoid-head training through the one early-stopping
Adam loop (``train_bio_tagger``) on the WNUT17-train stand-in corpus,
argmax BIO decoding and the gazetteer lexical features
(``gazetteer_features``). ``DeepEMDSystem`` adds a contextual-embedding
input and exposes its penultimate layer as the 'entity-aware' token
embedding consumed by Global EMD (Section IV: "the output of the neural
network's final layer before token-level classification"); one forward
pass gives a chunk's spans and those embeddings together
(``tag_chunk``).

Features are built for a whole chunk of sentences (``Sentences``) with
array operations; the MLP still multiplies each sentence by its weights
in a product of its own (``forward_segments``), so every bit equals a
forward pass over that sentence alone.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.local_emd.base import (
    CORPUS_CHUNK,
    LocalEMDSystem,
    Sentences,
    bio_spans,
    spans_to_bio,
    surface_features,
)
from repro.local_emd.embeddings import EmbeddingBank
from repro.nn.mlp import MLP, bce_grad, bce_loss, forward_segments, train_early_stopping

__all__ = [
    "train_bio_tagger",
    "bio_training_set",
    "gazetteer_features",
    "BioTagger",
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
    """Every training token's features and one-hot gold O/B/I tag, as
    ``(X, Y)`` float32 arrays in sentence order.

    ``features(sents)`` gives the ``(n_tokens, n_features)`` matrix of
    a ``Sentences`` chunk; it is called on chunks of ``CORPUS_CHUNK``
    sentences.
    """
    gold_by_sent: dict = {}
    for r in gold.itertuples():
        gold_by_sent.setdefault((r.tweet_id, r.sent_id), []).append((r.start, r.length))
    tags = np.concatenate(
        [
            spans_to_bio(len(toks), gold_by_sent.get(k, []))
            for toks, k in zip(tweets["tokens"], zip(tweets["tweet_id"], tweets["sent_id"]))
        ]
    )
    X = np.concatenate(
        [
            features(Sentences.from_frame(tweets.iloc[i : i + CORPUS_CHUNK]))
            for i in range(0, len(tweets), CORPUS_CHUNK)
        ]
    )
    return X.astype(np.float32), np.eye(3, dtype=np.float32)[tags]


def gazetteer_features(tokens: list, unigram_keys: set, all_tokens: set) -> np.ndarray:
    """Two lexical features per token: exact unigram-gazetteer hit, and
    membership in any gazetteer entry's token set (the paper's Aguilar
    instantiation encodes gazetteer hits as a small lexical vector)."""
    low = [t.lower() for t in tokens]
    f = np.empty((len(low), 2), dtype=np.float32)
    f[:, 0] = np.fromiter(map(unigram_keys.__contains__, low), bool, len(low))
    f[:, 1] = np.fromiter(map(all_tokens.__contains__, low), bool, len(low))
    return f


class BioTagger(LocalEMDSystem):
    """A learned Local EMD system: an MLP with ReLU hidden layers of
    widths ``hidden`` and an O/B/I sigmoid head over the token features
    a subclass supplies for a chunk of sentences with ``_features``.

    ``fit`` builds those features for the training corpus, builds the
    MLP with the input width the features have, and trains it with
    ``train_bio_tagger``; ``tag_chunk`` decodes the argmax tags.
    ``gazetteer_keys``, when given, back the two lexical features of
    ``_gazetteer``.
    """

    def __init__(
        self,
        hidden: list,
        *,
        seed: int,
        epochs: int,
        lr: float = 1e-3,
        gazetteer_keys: set | None = None,
    ):
        self.hidden = list(hidden)
        self.seed = seed
        self.epochs = epochs
        self.lr = lr
        self.gaz_uni = None
        self.gaz_tokens = None
        if gazetteer_keys is not None:
            self.gaz_uni = {k for k in gazetteer_keys if " " not in k}
            self.gaz_tokens = {t for k in gazetteer_keys for t in k.split(" ")}
        self.model: MLP | None = None
        self.train_info: dict = {}

    def _features(self, sents: Sentences) -> np.ndarray:
        """A chunk's ``(n_tokens, n_features)`` float32 input; no feature
        of a token reads another sentence."""
        raise NotImplementedError

    def _gazetteer(self, sents: Sentences) -> np.ndarray:
        return gazetteer_features(sents.tokens, self.gaz_uni, self.gaz_tokens)

    def fit(self, train_tweets: pd.DataFrame, train_gold: pd.DataFrame) -> None:
        X, Y = bio_training_set(train_tweets, train_gold, self._features)
        acts = ["relu"] * len(self.hidden) + ["sigmoid"]
        self.model = MLP.build([X.shape[1], *self.hidden, 3], acts, seed=self.seed)
        self.train_info = train_bio_tagger(
            self.model, X, Y, lr=self.lr, epochs=self.epochs, seed=self.seed
        )

    def _check_fitted(self) -> None:
        if self.model is None:
            raise RuntimeError(f"{self.name}: call fit() before tagging")

    def _hidden(self, sents: Sentences) -> np.ndarray:
        """The activations entering the output layer, every sentence of
        the chunk forwarded on its own."""
        self._check_fitted()
        return forward_segments(self.model.layers[:-1], self._features(sents), sents.offsets)

    def tag_chunk(self, sents: Sentences) -> tuple:
        """The spans of the most probable O/B/I tag of each token, and for
        deep systems the float32 activations of the same forward pass."""
        hidden = self._hidden(sents)
        probs = forward_segments(self.model.layers[-1:], hidden, sents.offsets)
        spans = bio_spans(np.argmax(probs, axis=1), sents.offsets)
        return spans, hidden.astype(np.float32) if self.is_deep else None


class DeepEMDSystem(BioTagger):
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
        seed: int,
        epochs: int,
    ):
        super().__init__(hidden, seed=seed, epochs=epochs, gazetteer_keys=gazetteer_keys)
        self.name = name
        self.bank = bank
        self.embedding_dim = self.hidden[-1]

    def _features(self, sents: Sentences) -> np.ndarray:
        emb = self.bank.contextual_chunk(
            sents.lowered, sents.offsets, sents.tweet_ids, sents.sent_ids
        )
        parts = [emb, surface_features(sents.tokens, sents.offsets)]
        if self.gaz_uni is not None:
            parts.append(self._gazetteer(sents))
        return np.concatenate(parts, axis=1)

    def activations(self, sents: Sentences) -> np.ndarray:
        """Penultimate-layer activations for every token (float32),
        bit-equal to ``tag_chunk``'s."""
        return self._hidden(sents).astype(np.float32)
