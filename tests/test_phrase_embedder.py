"""Tests for the Entity Phrase Embedder (Eq. 1-2 + siamese training)."""
import numpy as np
import pytest

from repro.core.phrase_embedder import (
    PhraseEmbedder,
    _cosine_and_grads,
    pooled_sentence_embeddings,
    train_phrase_embedder,
)
from repro.local_emd.base import Sentences


class TestEmbed:
    def test_embed_pooled_is_affine(self):
        pe = PhraseEmbedder.init(4, 3, seed=0)
        x = np.random.default_rng(0).normal(size=4).astype(np.float32)
        assert np.allclose(pe.embed_pooled(x), x @ pe.W + pe.b, atol=1e-6)

    def test_embed_tokens_mean_pools(self):
        pe = PhraseEmbedder.init(4, 3, seed=0)
        toks = np.random.default_rng(1).normal(size=(5, 4)).astype(np.float32)
        expect = pe.embed_pooled(toks[1:4].mean(axis=0))
        assert np.allclose(pe.embed_spans(toks, [1], [3])[0], expect, atol=1e-5)

    def test_output_dim(self):
        pe = PhraseEmbedder.init(8, 3, seed=0)
        assert pe.d_out == 3
        got = pe.embed_spans(np.zeros((2, 8), dtype=np.float32), [0, 1], [2, 1])
        assert got.shape == (2, 3) and got.dtype == np.float32

    def test_single_token_phrase(self):
        pe = PhraseEmbedder.init(4, 2, seed=0)
        tok = np.ones((1, 4), dtype=np.float32)
        assert np.allclose(pe.embed_spans(tok, [0], [1])[0], pe.embed_pooled(tok[0]), atol=1e-6)


class TestCosineGrads:
    def test_cosine_values(self):
        U = np.array([[1.0, 0.0], [1.0, 1.0]])
        Vv = np.array([[1.0, 0.0], [1.0, -1.0]])
        cos, _, _ = _cosine_and_grads(U, Vv, np.zeros(2))
        assert cos[0] == pytest.approx(1.0)
        assert cos[1] == pytest.approx(0.0, abs=1e-9)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(4)
        U = rng.normal(size=(3, 4))
        Vv = rng.normal(size=(3, 4))
        y = rng.random(3)

        def loss(U_, V_):
            cos, _, _ = _cosine_and_grads(U_, V_, y)
            return ((cos - y) ** 2).mean()

        _, dU, dV = _cosine_and_grads(U, Vv, y)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                U[i, j] += eps
                up = loss(U, Vv)
                U[i, j] -= 2 * eps
                down = loss(U, Vv)
                U[i, j] += eps
                assert dU[i, j] == pytest.approx((up - down) / (2 * eps), rel=1e-3, abs=1e-8)


class TestTraining:
    def _toy_pairs(self, n=600, d=12, seed=0):
        """Pairs whose similarity is carried by the first 3 dims."""
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, 3))
        sim = rng.random(n)
        b_sig = base * sim[:, None] + rng.normal(size=(n, 3)) * (1 - sim[:, None])
        A = np.concatenate([base, rng.normal(size=(n, d - 3))], axis=1)
        B = np.concatenate([b_sig, rng.normal(size=(n, d - 3))], axis=1)
        return A.astype(np.float32), B.astype(np.float32), sim

    def test_training_reduces_val_loss(self):
        A, B, y = self._toy_pairs()
        pe0 = PhraseEmbedder.init(12, 4, seed=9)
        U = A[-100:] @ pe0.W + pe0.b
        Vv = B[-100:] @ pe0.W + pe0.b
        cos0, _, _ = _cosine_and_grads(U, Vv, y[-100:])
        loss0 = ((cos0 - y[-100:]) ** 2).mean()
        pe, hist = train_phrase_embedder(
            A[:-100], B[:-100], y[:-100],
            d_out=4, val_split=(A[-100:], B[-100:], y[-100:]), epochs=60, patience=15, seed=9,
        )
        assert hist["best_val_loss"] < loss0

    def test_early_stopping_bounds_epochs(self):
        A, B, y = self._toy_pairs(n=200)
        _, hist = train_phrase_embedder(
            A[:160], B[:160], y[:160],
            d_out=4, val_split=(A[160:], B[160:], y[160:]), epochs=1000, patience=3, seed=1,
        )
        assert hist["best_epoch"] < 1000 - 3

    def test_explicit_val_split(self):
        A, B, y = self._toy_pairs(n=300)
        pe, hist = train_phrase_embedder(
            A[:200], B[:200], y[:200],
            d_out=4, val_split=(A[200:], B[200:], y[200:]), epochs=30, patience=10,
        )
        assert pe.d_out == 4
        assert np.isfinite(hist["best_val_loss"])


class TestPooledSentenceEmbeddings:
    def test_matches_manual_pooling(self, aguilar):
        sents = [("Italy", "is", "rising"), ("UK",)]
        out = pooled_sentence_embeddings(aguilar, sents, 500)
        manual = aguilar.activations(Sentences.of([["Italy", "is", "rising"]], [500], [9999]))
        assert np.allclose(out[0], manual.mean(axis=0), atol=1e-5)
        assert out.shape == (2, 100)
