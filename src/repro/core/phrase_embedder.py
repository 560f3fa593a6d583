"""Entity Phrase Embedder (Section V-B-2, Figure 4).

Converts a variable-length candidate mention's token-level entity-aware
embeddings into one fixed-size phrase embedding:

    pooled = mean(token_embs)            (Eq. 1)
    local  = W_ff @ pooled + b_ff        (Eq. 2)

Following the paper's modified SBERT design, ``(W_ff, b_ff)`` is trained
in a siamese structure on a sentence-similarity regression task: cosine
similarity of the dense outputs of a sentence pair is regressed onto the
pair's normalized STS score with MSE loss and Adam. The underlying deep
EMD network stays **frozen** — only the dense layer learns — so the
pooled inputs can be precomputed once and training touches only
``(W_ff, b_ff)``.
"""
from __future__ import annotations

import numpy as np

from repro.nn.mlp import Dense, MLP, train_early_stopping

__all__ = ["PhraseEmbedder", "train_phrase_embedder"]


class PhraseEmbedder:
    """The dense head of one siamese sub-network (Eq. 2)."""

    def __init__(self, W: np.ndarray, b: np.ndarray):
        self.W = W.astype(np.float32)
        self.b = b.astype(np.float32)

    @staticmethod
    def init(d_in: int, d_out: int, seed: int = 0) -> "PhraseEmbedder":
        rng = np.random.default_rng(seed)
        return PhraseEmbedder(
            rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_out)), np.zeros(d_out)
        )

    @property
    def d_out(self) -> int:
        return self.W.shape[1]

    def embed_pooled(self, pooled: np.ndarray) -> np.ndarray:
        """Eq. 2 on an already-pooled vector (or batch thereof)."""
        return pooled @ self.W + self.b

    def embed_tokens(self, token_embs: np.ndarray) -> np.ndarray:
        """Eq. 1 + Eq. 2 for one mention's token embeddings ``(n, d)``."""
        return self.embed_pooled(token_embs.mean(axis=0)).astype(np.float32)

    # picklable form for Spark closures
    def to_arrays(self) -> tuple:
        return (self.W.copy(), self.b.copy())

    @staticmethod
    def from_arrays(arrays: tuple) -> "PhraseEmbedder":
        return PhraseEmbedder(*arrays)


def _cosine_and_grads(U: np.ndarray, Vv: np.ndarray, y: np.ndarray):
    """Cosine similarity per row and dL/dU, dL/dV for L = mean((cos-y)^2)."""
    nu = np.linalg.norm(U, axis=1, keepdims=True) + 1e-12
    nv = np.linalg.norm(Vv, axis=1, keepdims=True) + 1e-12
    dot = (U * Vv).sum(axis=1, keepdims=True)
    cos = dot / (nu * nv)
    resid = 2.0 * (cos - y[:, None]) / len(y)
    dU = resid * (Vv / (nu * nv) - cos * U / nu**2)
    dV = resid * (U / (nu * nv) - cos * Vv / nv**2)
    return cos.ravel(), dU, dV


def train_phrase_embedder(
    pooled_a: np.ndarray,
    pooled_b: np.ndarray,
    scores: np.ndarray,
    *,
    d_out: int,
    val_split: tuple,
    lr: float = 0.001,
    batch_size: int = 32,
    epochs: int = 400,
    patience: int = 25,
    seed: int = 9,
) -> tuple:
    """Train ``(W_ff, b_ff)`` with the paper's recipe (Adam, lr 0.001,
    batch 32, early stop after 25 stale epochs, best checkpoint kept)
    through ``train_early_stopping``.

    ``pooled_a/b`` are the frozen-DNN mean-pooled sentence embeddings of
    each training pair; ``scores`` are normalized to [0, 1].
    ``val_split`` is ``(pooled_a_val, pooled_b_val, scores_val)``.
    Returns ``(PhraseEmbedder, history)`` with
    ``history['best_val_loss']`` — the paper reports 0.185 (Aguilar) and
    0.167 (BERTweet) here.
    """
    Av, Bv, yv = val_split
    pe = PhraseEmbedder.init(pooled_a.shape[1], d_out, seed=seed)
    # one linear Dense layer over pe's own arrays: Adam updates them in place
    model = MLP([Dense(pe.W, pe.b, act="linear")])

    def grads(idx: np.ndarray) -> list:
        A, B = pooled_a[idx], pooled_b[idx]
        _, dU, dV = _cosine_and_grads(pe.embed_pooled(A), pe.embed_pooled(B), scores[idx])
        return [(A.T @ dU + B.T @ dV, dU.sum(axis=0) + dV.sum(axis=0))]

    def val_loss() -> float:
        cos, _, _ = _cosine_and_grads(pe.embed_pooled(Av), pe.embed_pooled(Bv), yv)
        return float(((cos - yv) ** 2).mean())

    hist = train_early_stopping(
        model,
        len(scores),
        grads,
        val_loss,
        rng=np.random.default_rng(seed),
        lr=lr,
        batch_size=batch_size,
        epochs=epochs,
        patience=patience,
    )
    best = model.layers[0]
    return PhraseEmbedder(best.W, best.b), hist


def pooled_sentence_embeddings(system, sentences: list, id_offset: int) -> np.ndarray:
    """Frozen-DNN mean-pooled embeddings for a list of token tuples.

    STS sentences get synthetic ``(tweet_id, sent_id)`` coordinates from
    ``id_offset`` so contextual noise is deterministic but distinct from
    corpus tweets.
    """
    out = np.empty((len(sentences), system.embedding_dim), dtype=np.float32)
    for i, toks in enumerate(sentences):
        emb = system.entity_aware_embeddings(list(toks), id_offset + i, 9999)
        out[i] = emb.mean(axis=0)
    return out
