"""Unit tests for the numpy NN substrate (repro.nn.mlp)."""
import numpy as np
import pytest

from repro.core.phrase_embedder import _cosine_and_grads
from repro.nn.mlp import (
    MLP,
    AdamState,
    Dense,
    bce_grad,
    bce_loss,
    relu,
    sigmoid,
    train_early_stopping,
)


class TestActivations:
    def test_relu_positive_passthrough(self):
        assert np.allclose(relu(np.array([1.0, 2.5])), [1.0, 2.5])

    def test_relu_clips_negative(self):
        assert np.allclose(relu(np.array([-1.0, -0.1, 0.0])), [0.0, 0.0, 0.0])

    def test_sigmoid_zero_is_half(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_symmetry(self):
        x = np.array([-3.0, -1.0, 1.0, 3.0])
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)

    def test_sigmoid_extreme_values_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)


class TestDense:
    def test_init_shapes(self):
        layer = Dense.init(4, 3, "relu", np.random.default_rng(0))
        assert layer.W.shape == (4, 3)
        assert layer.b.shape == (3,)

    def test_linear_forward_matches_matmul(self):
        layer = Dense.init(4, 3, "linear", np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 4))
        assert np.allclose(layer.forward(x), x @ layer.W + layer.b)

    @pytest.mark.parametrize("act", ["relu", "sigmoid", "linear"])
    def test_backward_matches_numeric_gradient(self, act):
        rng = np.random.default_rng(2)
        layer = Dense.init(3, 2, act, rng)
        x = rng.normal(size=(4, 3))
        # scalar loss L = sum(forward(x)); numeric dL/dW vs analytic
        out = layer.forward(x)
        _, dW, db = layer.backward(np.ones_like(out))
        eps = 1e-6
        for i in range(3):
            for j in range(2):
                layer.W[i, j] += eps
                up = layer.forward(x).sum()
                layer.W[i, j] -= 2 * eps
                down = layer.forward(x).sum()
                layer.W[i, j] += eps
                assert dW[i, j] == pytest.approx((up - down) / (2 * eps), rel=1e-4, abs=1e-6)

    def test_backward_grad_in_shape(self):
        layer = Dense.init(3, 2, "relu", np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 3))
        out = layer.forward(x)
        grad_in, _, _ = layer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape


class TestMLP:
    def test_build_layer_count_and_acts(self):
        m = MLP.build([4, 8, 2], ["relu", "sigmoid"], seed=0)
        assert len(m.layers) == 2
        assert m.layers[0].act == "relu"
        assert m.layers[1].act == "sigmoid"

    def test_build_requires_matching_acts(self):
        with pytest.raises(AssertionError):
            MLP.build([4, 8, 2], ["relu"], seed=0)

    def test_forward_shape(self):
        m = MLP.build([4, 8, 2], ["relu", "sigmoid"], seed=0)
        out = m.forward(np.zeros((5, 4)))
        assert out.shape == (5, 2)

    def test_penultimate_is_last_hidden(self):
        m = MLP.build([4, 8, 2], ["relu", "sigmoid"], seed=0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        pen = m.penultimate(x)
        assert pen.shape == (5, 8)
        # feeding penultimate through the final layer = full forward
        assert np.allclose(m.layers[-1].forward(pen), m.forward(x))

    def test_serialization_roundtrip(self):
        m = MLP.build([4, 8, 2], ["relu", "sigmoid"], seed=0)
        m2 = MLP.from_arrays(m.to_arrays())
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert np.allclose(m.forward(x), m2.forward(x))

    def test_to_arrays_copies(self):
        m = MLP.build([2, 2], ["linear"], seed=0)
        arrays = m.to_arrays()
        m.layers[0].W += 1.0
        assert not np.allclose(arrays[0][0], m.layers[0].W)

    def test_deterministic_in_seed(self):
        a = MLP.build([4, 4, 1], ["relu", "sigmoid"], seed=7)
        b = MLP.build([4, 4, 1], ["relu", "sigmoid"], seed=7)
        assert np.allclose(a.layers[0].W, b.layers[0].W)

    def test_adam_step_moves_params(self):
        m = MLP.build([2, 1], ["linear"], seed=0)
        state = AdamState.for_layers(m.layers)
        W0 = m.layers[0].W.copy()
        m.adam_step([(np.ones((2, 1)), np.ones(1))], state, lr=0.1)
        assert not np.allclose(W0, m.layers[0].W)
        assert state.t == 1


def _blobs(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-1.0, size=(n // 2, 4))
    X1 = rng.normal(loc=1.0, size=(n // 2, 4))
    X = np.vstack([X0, X1]).astype(np.float64)
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    idx = rng.permutation(n)
    return X[idx], y[idx]


def _bce_objective(model, X, Y, n_train, clip):
    """(grad_fn, val_loss_fn) of sigmoid-output BCE, training on the
    first ``n_train`` rows and validating on the rest."""
    Xtr, Ytr, Xv, Yv = X[:n_train], Y[:n_train], X[n_train:], Y[n_train:]
    return (
        lambda idx: model.backward(bce_grad(model.forward(Xtr[idx]), Ytr[idx], clip)),
        lambda: bce_loss(model.forward(Xv), Yv, clip),
    )


def _objective(kind):
    """``(model, n_train, grad_fn, val_loss_fn)`` for each objective the
    shared loop serves: the Entity Classifier's single-output BCE, the
    taggers' 3-way O/B/I BCE and the phrase embedder's siamese cosine
    regression."""
    if kind == "bce":
        X, y = _blobs()
        model = MLP.build([4, 4, 1], ["relu", "sigmoid"], seed=1)
        return (model, 300, *_bce_objective(model, X, y[:, None], 300, 1e-9))
    if kind == "bio_bce":
        X, _ = _blobs()
        Y = np.zeros((len(X), 3))
        Y[np.arange(len(X)), np.digitize(X[:, 0], [-0.5, 0.5])] = 1.0
        model = MLP.build([4, 8, 3], ["relu", "sigmoid"], seed=1)
        return (model, 300, *_bce_objective(model, X, Y, 300, 1e-7))
    # siamese cosine: similarity carried by the first 2 of 6 dims
    rng = np.random.default_rng(3)
    A = rng.normal(size=(400, 6))
    sim = rng.random(400)
    B = A * sim[:, None] + rng.normal(size=(400, 6)) * (1 - sim[:, None])
    model = MLP([Dense.init(6, 3, "linear", rng)])

    def grad_fn(idx):
        _, dU, dV = _cosine_and_grads(model.forward(A[idx]), model.forward(B[idx]), sim[idx])
        return [(A[idx].T @ dU + B[idx].T @ dV, dU.sum(axis=0) + dV.sum(axis=0))]

    def val_loss_fn():
        cos, _, _ = _cosine_and_grads(model.forward(A[300:]), model.forward(B[300:]), sim[300:])
        return float(((cos - sim[300:]) ** 2).mean())

    return model, 300, grad_fn, val_loss_fn


OBJECTIVES = ["bce", "bio_bce", "cosine"]


class TestTraining:
    def test_classifier_learns_separable_blobs(self):
        X, y = _blobs()
        m = MLP.build([4, 8, 1], ["relu", "sigmoid"], seed=1)
        hist = train_early_stopping(
            m, 300, *_bce_objective(m, X, y[:, None], 300, 1e-9),
            rng=np.random.default_rng(0), lr=0.01, batch_size=32, epochs=60, patience=10,
        )
        acc = ((m.forward(X[300:]).ravel() > 0.5) == y[300:]).mean()
        assert acc > 0.95
        assert hist["best_val_loss"] < 0.3

    @pytest.mark.parametrize("kind", OBJECTIVES)
    def test_classifier_early_stops(self, kind):
        model, n, grad_fn, val_loss_fn = _objective(kind)
        calls = []

        def counted():
            calls.append(val_loss_fn())
            return calls[-1]

        hist = train_early_stopping(
            model, n, grad_fn, counted,
            rng=np.random.default_rng(0), lr=0.05, batch_size=32, epochs=500, patience=3,
        )
        # with patience 3 on an easy problem, must stop well before 500,
        # exactly 3 epochs after the best one
        assert hist["best_epoch"] < 490
        assert len(calls) == hist["best_epoch"] + 3 + 1
        assert calls[hist["best_epoch"]] == hist["best_val_loss"]

    @pytest.mark.parametrize("kind", OBJECTIVES)
    def test_classifier_restores_best_checkpoint(self, kind):
        model, n, grad_fn, val_loss_fn = _objective(kind)
        hist = train_early_stopping(
            model, n, grad_fn, val_loss_fn,
            rng=np.random.default_rng(0), lr=0.05, batch_size=32, epochs=40, patience=5,
        )
        assert val_loss_fn() == hist["best_val_loss"]

    def test_bce_loss_perfect_prediction_near_zero(self):
        assert bce_loss(np.array([1e-9, 1 - 1e-9]), np.array([0.0, 1.0])) < 1e-6

    def test_bce_loss_clips_exact_zero_one(self):
        assert np.isfinite(bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0])))
