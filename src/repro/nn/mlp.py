"""Minimal numpy neural-network substrate.

The paper's learned components (the learned Local EMD taggers, the
Entity Phrase Embedder's dense layer, the Entity Classifier, and the
HIRE-NER baseline's decoder) are feed-forward networks trained with one
recipe. No deep learning framework is a dependency, so this module
implements exactly what those components need: dense
ReLU/sigmoid/linear stacks with backprop, the clipped binary
cross-entropy loss and its gradient, and ``train_early_stopping`` — the
one minibatch-Adam loop with a validation check each epoch, early
stopping and best-checkpoint restore. Each caller supplies its own
objective as a per-minibatch gradient function and a validation-loss
function. Everything is deterministic in the seeds and generators the
callers pass.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dense", "MLP", "AdamState", "bce_loss", "bce_grad", "train_early_stopping"]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class Dense:
    """A fully connected layer ``y = act(xW + b)``.

    ``act`` is one of ``'relu' | 'sigmoid' | 'linear'``. Caches the
    forward pass for backprop.
    """

    W: np.ndarray
    b: np.ndarray
    act: str = "relu"
    _x: np.ndarray = field(default=None, repr=False, compare=False)
    _z: np.ndarray = field(default=None, repr=False, compare=False)

    @staticmethod
    def init(n_in: int, n_out: int, act: str, rng: np.random.Generator) -> "Dense":
        """He-style initialization scaled for the activation."""
        scale = np.sqrt(2.0 / n_in) if act == "relu" else np.sqrt(1.0 / n_in)
        return Dense(rng.normal(0.0, scale, (n_in, n_out)), np.zeros(n_out), act)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        self._z = x @ self.W + self.b
        if self.act == "relu":
            return relu(self._z)
        if self.act == "sigmoid":
            return sigmoid(self._z)
        return self._z

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (grad_in, dW, db) for the cached forward batch."""
        if self.act == "relu":
            grad_z = grad_out * (self._z > 0)
        elif self.act == "sigmoid":
            s = sigmoid(self._z)
            grad_z = grad_out * s * (1.0 - s)
        else:
            grad_z = grad_out
        dW = self._x.T @ grad_z
        db = grad_z.sum(axis=0)
        return grad_z @ self.W.T, dW, db


@dataclass
class AdamState:
    """Per-parameter Adam moments (Kingma & Ba, as cited by the paper)."""

    m: list
    v: list
    t: int = 0

    @staticmethod
    def for_layers(layers: list[Dense]) -> "AdamState":
        return AdamState(
            m=[(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers],
            v=[(np.zeros_like(l.W), np.zeros_like(l.b)) for l in layers],
        )


@dataclass
class MLP:
    """A stack of :class:`Dense` layers with Adam training utilities."""

    layers: list

    @staticmethod
    def build(sizes: list[int], acts: list[str], seed: int = 0) -> "MLP":
        """``sizes=[in, h1, ..., out]``; ``acts`` has ``len(sizes)-1`` entries."""
        assert len(acts) == len(sizes) - 1
        rng = np.random.default_rng(seed)
        return MLP(
            [Dense.init(sizes[i], sizes[i + 1], acts[i], rng) for i in range(len(acts))]
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def penultimate(self, x: np.ndarray) -> np.ndarray:
        """Activations entering the final layer — the paper's
        'entity-aware embeddings' tap point."""
        for layer in self.layers[:-1]:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> list:
        """Backprop ``grad_out`` through the stack; returns per-layer grads."""
        grads = [None] * len(self.layers)
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            g, dW, db = self.layers[i].backward(g)
            grads[i] = (dW, db)
        return grads

    def adam_step(
        self,
        grads: list,
        state: AdamState,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        state.t += 1
        for i, layer in enumerate(self.layers):
            for j, (param, grad) in enumerate(
                ((layer.W, grads[i][0]), (layer.b, grads[i][1]))
            ):
                m = state.m[i][j]
                v = state.v[i][j]
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad * grad
                mhat = m / (1 - beta1**state.t)
                vhat = v / (1 - beta2**state.t)
                param -= lr * mhat / (np.sqrt(vhat) + eps)

    # -- serialization (broadcast to Spark executors as plain arrays) ----
    def to_arrays(self) -> list:
        """Flatten to picklable (W, b, act) triples for Spark broadcast."""
        return [(l.W.copy(), l.b.copy(), l.act) for l in self.layers]

    @staticmethod
    def from_arrays(arrays: list) -> "MLP":
        return MLP([Dense(W, b, act) for W, b, act in arrays])


def bce_loss(p: np.ndarray, y: np.ndarray, clip: float = 1e-9) -> float:
    """Mean binary cross-entropy of probabilities ``p`` clipped to
    ``[clip, 1 - clip]``."""
    p = np.clip(p, clip, 1 - clip)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def bce_grad(p: np.ndarray, y: np.ndarray, clip: float) -> np.ndarray:
    """dL/dp of the per-row BCE summed over columns and averaged over rows.

    The final sigmoid is a layer of its own, so the gradient enters its
    backward pass as ``(p - y) / (p (1 - p))``, which that pass reduces
    to the usual ``p - y`` at the logit.
    """
    p = np.clip(p, clip, 1 - clip)
    return (p - y) / (p * (1 - p)) / len(y)


def train_early_stopping(
    model: MLP,
    n: int,
    grad_fn,
    val_loss_fn,
    *,
    rng: np.random.Generator,
    lr: float,
    batch_size: int,
    epochs: int,
    patience: int,
) -> dict:
    """Train ``model`` with the paper's recipe and keep its best checkpoint.

    Each epoch shuffles the ``n`` training rows with ``rng``, takes one
    Adam step per minibatch with the per-layer ``(dW, db)`` list that
    ``grad_fn(idx)`` returns for the row indices ``idx``, then calls
    ``val_loss_fn()``. Training stops after ``patience`` epochs without
    a validation-loss improvement of more than 1e-6, and the weights of
    the best epoch are restored. Returns ``best_val_loss`` and
    ``best_epoch``.
    """
    state = AdamState.for_layers(model.layers)
    best_val = np.inf
    best_arrays = model.to_arrays()
    best_epoch = 0
    stale = 0
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            model.adam_step(grad_fn(order[start : start + batch_size]), state, lr)
        val_loss = val_loss_fn()
        if val_loss < best_val - 1e-6:
            best_val, best_epoch, stale = val_loss, epoch, 0
            best_arrays = model.to_arrays()
        else:
            stale += 1
            if stale >= patience:
                break
    model.layers = MLP.from_arrays(best_arrays).layers
    return {"best_val_loss": best_val, "best_epoch": best_epoch}
