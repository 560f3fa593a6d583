"""Entity Classifier (Section V-C).

A multilayer feed-forward ReLU network with a sigmoid output that maps a
candidate's global embedding (plus a '+1' candidate-length feature) to
the probability of it being a true entity. The sigmoid output is bucketed
into the paper's three ranges:

- alpha: p >= 0.55 -> confidently an **entity**
- beta:  p <= 0.40 -> confidently a **non-entity**
- gamma: 0.40 < p < 0.55 -> **ambiguous**, needs more downstream evidence

Training follows Section VI: labelled candidate records from the D5
stream, 80/20 split, Adam with fixed lr 0.0015, batch 128, up to 1000
epochs, early stop after 20 stale epochs, best checkpoint kept; the
validation F1 is the Table II number.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.mlp import MLP, bce_grad, bce_loss, train_early_stopping

__all__ = [
    "EntityClassifier", "ALPHA", "BETA", "LABEL_ENTITY", "LABEL_NON", "LABEL_AMBIG", "LABELS",
]

ALPHA = 0.55
BETA = 0.40

LABEL_ENTITY = "entity"
LABEL_NON = "non-entity"
LABEL_AMBIG = "ambiguous"
LABELS = (LABEL_ENTITY, LABEL_AMBIG, LABEL_NON)
HIDDEN = (64, 32)  # widths of the ReLU hidden layers


def length_feature(key: str) -> float:
    """The '+1' feature: length of the candidate string, squashed."""
    return len(key) / 10.0


@dataclass
class EntityClassifier:
    """Wraps the FFNN and the alpha/beta/gamma decision rule."""

    model: MLP
    d_emb: int
    validation_f1: float = float("nan")

    @staticmethod
    def build(d_emb: int, seed: int = 5) -> "EntityClassifier":
        sizes = [d_emb + 1, *HIDDEN, 1]
        acts = ["relu"] * len(HIDDEN) + ["sigmoid"]
        return EntityClassifier(MLP.build(sizes, acts, seed=seed), d_emb)

    @staticmethod
    def _features(embs: np.ndarray, keys: list) -> np.ndarray:
        lens = np.array([[length_feature(k)] for k in keys], dtype=np.float32)
        return np.concatenate([embs.astype(np.float32), lens], axis=1)

    def train(
        self,
        embs: np.ndarray,
        keys: list,
        labels: np.ndarray,
        *,
        lr: float = 0.0015,
        batch_size: int = 128,
        epochs: int = 1000,
        patience: int = 20,
        seed: int = 6,
    ) -> dict:
        """Paper-recipe training; stores validation F1 (Table II)."""
        X = self._features(embs, keys)
        y = labels.astype(np.float64)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(y))
        n_val = max(1, int(0.2 * len(y)))
        val_idx, tr_idx = order[:n_val], order[n_val:]
        Xtr, Ytr = X[tr_idx], y[tr_idx, None]
        Xval, Yval = X[val_idx], y[val_idx, None]
        model = self.model
        hist = train_early_stopping(
            model,
            len(tr_idx),
            lambda idx: model.backward(bce_grad(model.forward(Xtr[idx]), Ytr[idx], 1e-9)),
            lambda: bce_loss(model.forward(Xval), Yval, 1e-9),
            rng=np.random.default_rng(seed),
            lr=lr,
            batch_size=batch_size,
            epochs=epochs,
            patience=patience,
        )
        pred = model.forward(Xval).ravel() >= ALPHA
        yv = y[val_idx]
        tp = float(np.sum(pred & (yv == 1)))
        fp = float(np.sum(pred & (yv == 0)))
        fn = float(np.sum(~pred & (yv == 1)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        self.validation_f1 = (
            2 * prec * rec / (prec + rec) if prec + rec else 0.0
        )
        hist["validation_f1"] = self.validation_f1
        return hist

    def scores(self, embs: np.ndarray, keys: list) -> np.ndarray:
        """Sigmoid entity-likelihood per candidate."""
        return self.model.forward(self._features(embs, keys)).ravel()

    @staticmethod
    def bucket(p):
        """The alpha/beta/gamma label of each score in ``p``: an object
        array of labels, or one label for a scalar ``p``."""
        labels = np.select([p >= ALPHA, p <= BETA], [LABEL_ENTITY, LABEL_NON], LABEL_AMBIG)
        return labels.astype(object) if labels.ndim else labels.item()
