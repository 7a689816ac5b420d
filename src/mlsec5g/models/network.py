"""Feedforward network trained with analytic gradients and Adam.

Heads: softmax + cross-entropy for classification, identity + MSE for scalar
regression, softplus + MSE for non-negative vector regression (power
allocations must not go negative). Inputs are standardized with statistics
frozen at fit time. The full parameter vector is exposed flat so the analytic
backward pass can be audited against central differences: the public
`loss_grad` is that audited entry point.

Hidden layers are tanh, every layer has a bias, and training is full-batch.
`train_network` standardizes and encodes its data once, then runs every epoch
through the private `_loss_grad` on the prepared arrays. Layer outputs,
deltas and the gradient go into one workspace of preallocated buffers that
lives only for the length of the fit and never becomes part of the model.
The buffered path runs the same floating-point operations in the same order
as the plain form that allocates every result afresh, so the trained weights
are bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from ..repro import _jsonable
from .base import ModelSpec, TrainedModel, default_schema


def _softmax(z: np.ndarray, out=None) -> np.ndarray:
    e = np.subtract(z, z.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    np.divide(e, e.sum(axis=1, keepdims=True), out=e)
    return e


def _softplus(z: np.ndarray) -> np.ndarray:
    # overflow-safe: softplus(z) = max(z, 0) + log1p(exp(-|z|))
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class _Workspace:
    """Buffers for one row count: each layer's output, delta and scratch,
    and the flat gradient with per-layer views into it."""

    def __init__(self, model: "FeedforwardModel", rows: int):
        widths = [W.shape[1] for W in model.weights]
        self.out = [np.empty((rows, w)) for w in widths]      # z, then tanh in place
        self.delta = [np.empty((rows, w)) for w in widths]
        self.scratch = [np.empty((rows, w)) for w in widths]
        self.exp = np.empty((rows, widths[-1]))               # exp(-|z|) of the softplus head
        self.grad = np.empty(model.n_params())
        self.grad_W, self.grad_b = [], []
        pos = 0
        for W, b in zip(model.weights, model.biases):
            self.grad_W.append(self.grad[pos:pos + W.size].reshape(W.shape))
            pos += W.size
            self.grad_b.append(self.grad[pos:pos + b.size])
            pos += b.size


class FeedforwardModel(TrainedModel):
    kind = "feedforward"

    def __init__(self, spec: ModelSpec, schema, fingerprint, weights, biases,
                 classes, x_mean, x_std, out_dim):
        super().__init__(spec, schema, fingerprint)
        self.weights = weights            # list of (in, out) arrays
        self.biases = biases              # list of (out,) arrays
        self.classes_ = classes           # None unless classifying
        self.x_mean = x_mean
        self.x_std = x_std
        self.out_dim = out_dim

    # -- forward ----------------------------------------------------------

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.x_mean) / self.x_std

    def _forward(self, Xs: np.ndarray, ws: _Workspace | None = None) -> np.ndarray:
        """Output-layer pre-activation; with a workspace, every layer's output
        lands in ws.out (hidden layers after their tanh)."""
        a = Xs
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(a, W, out=None if ws is None else ws.out[i])
            np.add(z, b, out=z)
            if i < last:
                np.tanh(z, out=z)
            a = z
        return a

    def _head(self, z_out: np.ndarray) -> np.ndarray:
        if self.task == "classify":
            return _softmax(z_out)
        if self.task == "vector_regress":
            return _softplus(z_out)
        return z_out

    def predict_proba(self, X) -> np.ndarray:
        if self.task != "classify":
            raise ValueError("predict_proba is only defined for classification")
        X = self._check_width(X)
        return _softmax(self._forward(self._standardize(X)))

    def predict(self, X):
        X = self._check_width(X)
        out = self._head(self._forward(self._standardize(X)))
        if self.task == "classify":
            return self.classes_[np.argmax(out, axis=1)]
        if self.task == "regress":
            return out[:, 0]
        return out

    # -- loss and analytic gradient ----------------------------------------

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for W, b in zip(self.weights, self.biases)
                               for p in (W, b)])

    def set_flat_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.n_params():
            raise ValueError(
                f"flat parameter vector has the wrong length: "
                f"{theta.size} for {self.n_params()} parameters")
        pos = 0
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = theta[pos:pos + W.size].reshape(W.shape).copy()
            pos += W.size
            self.biases[i] = theta[pos:pos + b.size].copy()
            pos += b.size

    def n_params(self) -> int:
        return sum(W.size + b.size for W, b in zip(self.weights, self.biases))

    def _encode_targets(self, y):
        if self.task == "classify":
            y = np.asarray(y)
            codes = np.searchsorted(self.classes_, y)
            # searchsorted may return len(classes_) for labels past the end
            inside = codes < len(self.classes_)
            if not np.all(inside) or np.any(self.classes_[codes[inside]] != y[inside]):
                raise ValueError("labels outside the trained classes")
            onehot = np.zeros((y.shape[0], len(self.classes_)))
            onehot[np.arange(y.shape[0]), codes] = 1.0
            return onehot
        t = np.asarray(y, dtype=float)
        if self.task == "regress":
            t = t.reshape(-1, 1)
        if t.shape[1] != self.out_dim:
            raise ValueError(f"target width {t.shape[1]} does not match output {self.out_dim}")
        return t

    def loss(self, X, y) -> float:
        return self.loss_grad(X, y)[0]

    def loss_grad(self, X, y):
        """Mean loss over rows; gradient as a flat vector."""
        X = self._check_width(np.asarray(X, dtype=float))
        Xs = self._standardize(X)
        return self._loss_grad(Xs, self._encode_targets(y),
                               _Workspace(self, Xs.shape[0]), with_loss=True)

    def _loss_grad(self, Xs: np.ndarray, targets: np.ndarray, ws: _Workspace,
                   with_loss: bool):
        """loss_grad on standardized inputs and encoded targets. The gradient
        is ws.grad; the loss is None unless with_loss."""
        n = Xs.shape[0]
        z_out = self._forward(Xs, ws)
        delta = ws.delta[-1]
        loss = None

        if self.task == "classify":
            if with_loss:
                logp = z_out - z_out.max(axis=1, keepdims=True)
                logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
                loss = float(-np.sum(targets * logp) / n)
            _softmax(z_out, out=delta)
            delta -= targets
            delta /= n
        else:
            if self.task == "vector_regress":
                # softplus and its derivative, the sigmoid, from one exp(-|z|),
                # by the same ops as _softplus and base.sigmoid
                e = np.abs(z_out, out=ws.exp)
                np.negative(e, out=e)
                np.exp(e, out=e)
                diff = np.maximum(z_out, 0.0, out=delta)
                diff += np.log1p(e, out=ws.scratch[-1])
                diff -= targets
            else:
                diff = np.subtract(z_out, targets, out=delta)
            if with_loss:
                loss = float(np.mean(diff ** 2))
            diff *= 2.0
            diff /= diff.size
            if self.task == "vector_regress":
                denom = np.add(1.0, e, out=ws.scratch[-1])
                np.copyto(e, 1.0, where=z_out >= 0)
                e /= denom
                diff *= e

        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = Xs if i == 0 else ws.out[i - 1]
            np.matmul(a_prev.T, delta, out=ws.grad_W[i])
            np.sum(delta, axis=0, out=ws.grad_b[i])
            if i > 0:
                delta = np.matmul(delta, self.weights[i].T, out=ws.delta[i - 1])
                g = np.multiply(a_prev, a_prev, out=ws.scratch[i - 1])
                delta *= np.subtract(1.0, g, out=g)
        return loss, ws.grad

    # -- persistence --------------------------------------------------------

    def to_state(self):
        arrays = {"x_mean": self.x_mean, "x_std": self.x_std}
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"W{i}"] = W
            arrays[f"b{i}"] = b
        if self.classes_ is not None:
            arrays["classes"] = np.asarray(self.classes_, dtype=str)
        meta = {
            "task": self.task,
            "schema": list(self.schema),
            "fingerprint": self.fingerprint,
            "seed": int(self.spec.seed),
            "hyperparameters": {k: _jsonable(v) for k, v in self.spec.hyperparameters.items()},
            "n_layers": len(self.weights),
            "out_dim": self.out_dim,
        }
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays):
        spec = ModelSpec("feedforward", meta["task"], meta["hyperparameters"], meta["seed"])
        weights = [arrays[f"W{i}"] for i in range(meta["n_layers"])]
        biases = [arrays[f"b{i}"] for i in range(meta["n_layers"])]
        classes = arrays.get("classes")
        return cls(spec, meta["schema"], meta["fingerprint"], weights, biases,
                   classes, arrays["x_mean"], arrays["x_std"], meta["out_dim"])


def build_network(spec: ModelSpec, in_dim: int, out_dim: int, schema, classes,
                  x_mean, x_std, fingerprint: str) -> FeedforwardModel:
    """Seeded Glorot-uniform initialization of the layer stack."""
    hp = spec.hyperparameters
    hidden = tuple(int(h) for h in hp.get("hidden", (32,)))
    rng = np.random.default_rng([int(spec.seed) & 0x7FFFFFFFFFFFFFFF, 0x9E7])
    dims = (in_dim,) + hidden + (out_dim,)
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return FeedforwardModel(spec, schema, fingerprint, weights, biases,
                            classes, x_mean, x_std, out_dim)


def train_network(spec: ModelSpec, X, y, schema=None) -> FeedforwardModel:
    """Train per spec with full-batch Adam."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be a non-empty 2-d matrix, got shape {X.shape}")
    hp = spec.hyperparameters
    schema = tuple(schema) if schema is not None else default_schema(X.shape[1])
    if len(schema) != X.shape[1]:
        raise ValueError("schema length does not match X width")

    if spec.task == "classify":
        classes = np.unique(np.asarray(y))
        out_dim = int(classes.size)
    elif spec.task == "regress":
        classes = None
        out_dim = 1
    else:
        classes = None
        y2 = np.asarray(y, dtype=float)
        if y2.ndim != 2:
            raise ValueError("vector_regress targets must be 2-d")
        out_dim = y2.shape[1]

    x_mean = X.mean(axis=0)
    x_std = np.maximum(X.std(axis=0), 1e-8)

    fp = spec.fingerprint_with(X, np.asarray(y))
    model = build_network(spec, X.shape[1], out_dim, schema, classes, x_mean, x_std, fp)

    epochs = int(hp.get("epochs", 200))
    lr = float(hp.get("lr", 0.01))

    n = X.shape[0]
    Xs = model._standardize(X)
    targets = model._encode_targets(y)
    if targets.shape[0] != n:
        raise ValueError(f"{targets.shape[0]} target rows for {n} input rows")
    ws = _Workspace(model, n)

    theta = model.flat_params()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, epochs + 1):
        model.set_flat_params(theta)
        _, grad = model._loss_grad(Xs, targets, ws, with_loss=False)
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        mhat = m / (1 - beta1 ** step)
        vhat = v / (1 - beta2 ** step)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    model.set_flat_params(theta)
    return model
