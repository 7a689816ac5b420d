"""Feedforward network trained with analytic gradients and Adam.

Heads: softmax + cross-entropy for classification, identity + MSE for scalar
regression, softplus + MSE for non-negative vector regression (power
allocations must not go negative). Inputs are standardized with statistics
frozen at fit time. The full parameter vector is exposed flat so the analytic
backward pass can be audited against central differences: the public
`loss_grad` is that audited entry point.

Hidden layers are tanh, every layer has a bias, and training is full-batch.
`train_network` standardizes and encodes its data once, then runs every epoch
on the prepared arrays. Layer outputs, deltas, the gradient and the
parameters go into one workspace of preallocated buffers that lives only for
the length of the fit and never becomes part of the model. The buffered path
runs the same floating-point operations in the same order as the plain form
that allocates every result afresh, so the trained weights are bit-identical
to it.

An epoch has two parts. The row-local part (`_rows`) is the forward pass,
the head's delta and every hidden layer's delta; each row depends on that row
alone. The reductions (`_reduce`) are the weight and bias gradients, which
sum over rows. Every fit runs the row-local part on two fixed halves of the
rows, `[0, n//2)` and `[n//2, n)`, then computes each gradient whole over all
rows. A large enough fit (`_SPLIT_MIN_EPOCH`, `_SPLIT_MIN_FIT`) runs the
second half in one forked `forkmap.Lockstep` helper where it may fork
(`forkmap.may_fork`) and the BLAS runs one thread; the helper then also takes
every gradient but the first layer's weights. Either way the same calls run
on the same operands, so the bits do not depend on where the second half
runs. Adam stays in the caller.
"""

from __future__ import annotations

import mmap
from contextlib import nullcontext

import numpy as np

from .. import forkmap
from ..repro import seeded
from .base import ModelSpec, TrainedModel, _adam, default_schema

# A fit forks its helper only from these sizes on, both measured on a 2-core
# x86-64 VM; they move speed only, never a bit. Rows x parameters of one epoch:
# two semaphore handoffs cost about 0.17 ms, so 100 rows of cs5's network ran
# 1.26x slower split, 300 rows 0.78x. Epochs x rows x parameters: the fork and
# a start on a shared CPU cost up to a few hundred ms, so cs4's 150-epoch
# classifier (6e8) stays in one process and cs5's 2000-epoch fit (2.1e10) splits.
_SPLIT_MIN_EPOCH = 2_000_000
_SPLIT_MIN_FIT = 4_000_000_000


def _softmax(z: np.ndarray, out=None) -> np.ndarray:
    e = np.subtract(z, z.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    np.divide(e, e.sum(axis=1, keepdims=True), out=e)
    return e


def _softplus(z: np.ndarray) -> np.ndarray:
    # overflow-safe: softplus(z) = max(z, 0) + log1p(exp(-|z|))
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _layer_views(flat: np.ndarray, weights, biases):
    """Views into flat, one per weight matrix and bias, in flat_params order."""
    views_W, views_b = [], []
    pos = 0
    for W, b in zip(weights, biases):
        views_W.append(flat[pos:pos + W.size].reshape(W.shape))
        pos += W.size
        views_b.append(flat[pos:pos + b.size])
        pos += b.size
    return views_W, views_b


class _Workspace:
    """Buffers for one row count: each layer's output, delta and scratch,
    the flat gradient and a flat parameter vector, with per-layer views into
    both. Shared buffers are anonymous shared memory, which a forked helper
    writes into as well."""

    def __init__(self, model: "FeedforwardModel", rows: int, shared: bool = False):
        def buffer(*shape):
            if not shared:
                return np.empty(shape)
            size = int(np.prod(shape))
            return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float).reshape(shape)

        widths = [W.shape[1] for W in model.weights]
        self.out = [buffer(rows, w) for w in widths]      # z, then tanh in place
        self.delta = [buffer(rows, w) for w in widths]
        self.scratch = [buffer(rows, w) for w in widths]
        self.exp = buffer(rows, widths[-1])               # exp(-|z|) of the softplus head
        self.grad = buffer(model.n_params())
        self.theta = buffer(model.n_params())
        self.grad_W, self.grad_b = _layer_views(self.grad, model.weights, model.biases)
        self.weights, self.biases = _layer_views(self.theta, model.weights, model.biases)


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

    def _forward(self, Xs: np.ndarray, out=None) -> np.ndarray:
        """Output-layer pre-activation; with out buffers, every layer's output
        lands in out[i] (hidden layers after their tanh)."""
        a = Xs
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = np.matmul(a, W, out=None if out is None else out[i])
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
        views_W, views_b = _layer_views(theta, self.weights, self.biases)
        self.weights = [W.copy() for W in views_W]
        self.biases = [b.copy() for b in views_b]

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
        """Mean loss over rows; gradient as a flat vector. The row-local part
        runs on all rows at once."""
        X = self._check_width(np.asarray(X, dtype=float))
        Xs = self._standardize(X)
        ws = _Workspace(self, Xs.shape[0])
        loss = self._rows(Xs, self._encode_targets(y), ws, slice(None), with_loss=True)
        layers = range(len(self.weights))
        self._reduce(Xs, ws, layers, layers)
        return loss, ws.grad

    def _rows(self, Xs: np.ndarray, targets: np.ndarray, ws: _Workspace, rows: slice,
              with_loss: bool = False):
        """The row-local part of loss_grad for rows `rows` of the batch: layer
        outputs, the head's delta and every hidden delta, into those rows of
        ws. With with_loss, the mean loss over those rows."""
        n = Xs.shape[0]
        z_out = self._forward(Xs[rows], [out[rows] for out in ws.out])
        delta = ws.delta[-1][rows]
        targets = targets[rows]
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
                # by the same formulas as _softplus and the recurrent model's _sigmoid
                e = np.abs(z_out, out=ws.exp[rows])
                np.negative(e, out=e)
                np.exp(e, out=e)
                diff = np.maximum(z_out, 0.0, out=delta)
                diff += np.log1p(e, out=ws.scratch[-1][rows])
                diff -= targets
            else:
                diff = np.subtract(z_out, targets, out=delta)
            if with_loss:
                loss = float(np.mean(diff ** 2))
            diff *= 2.0
            diff /= n * diff.shape[1]
            if self.task == "vector_regress":
                denom = np.add(1.0, e, out=ws.scratch[-1][rows])
                np.maximum(e, z_out >= 0, out=e)  # the sigmoid's numerator: e lies in [0, 1]
                e /= denom
                diff *= e

        for i in range(len(self.weights) - 1, 0, -1):
            a_prev = ws.out[i - 1][rows]
            delta = np.matmul(delta, self.weights[i].T, out=ws.delta[i - 1][rows])
            g = np.multiply(a_prev, a_prev, out=ws.scratch[i - 1][rows])
            delta *= np.subtract(1.0, g, out=g)
        return loss

    def _reduce(self, Xs: np.ndarray, ws: _Workspace, weights, biases) -> None:
        """The part of loss_grad that sums over rows: the gradients of the
        weights of layers `weights` and the biases of layers `biases`, each
        whole, into ws.grad."""
        for i in weights:
            a_prev = Xs if i == 0 else ws.out[i - 1]
            np.matmul(a_prev.T, ws.delta[i], out=ws.grad_W[i])
        for i in biases:
            np.sum(ws.delta[i], axis=0, out=ws.grad_b[i])

    # -- persistence --------------------------------------------------------

    def _state(self):
        arrays = {"x_mean": self.x_mean, "x_std": self.x_std}
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"W{i}"] = W
            arrays[f"b{i}"] = b
        if self.classes_ is not None:
            arrays["classes"] = np.asarray(self.classes_, dtype=str)
        return {"n_layers": len(self.weights), "out_dim": self.out_dim}, arrays

    @classmethod
    def _restore(cls, spec, meta, arrays):
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
    rng = seeded(spec.seed, 0x9E7)
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

    theta = model.flat_params()
    # a BLAS that runs threads of its own would oversubscribe the CPUs: stock
    # cs5 at OPENBLAS_NUM_THREADS=2 took 46-56 s split against 10-11 s unsplit
    split = (n * theta.size >= _SPLIT_MIN_EPOCH and epochs * n * theta.size >= _SPLIT_MIN_FIT
             and forkmap.may_fork() and forkmap.blas_threads() == 1)
    ws = _Workspace(model, n, shared=split)
    model.weights, model.biases = ws.weights, ws.biases  # each epoch writes ws.theta
    halves = (slice(0, n // 2), slice(n // 2, n))
    layers = range(len(model.weights))

    def helper(task: int) -> None:
        if task == 0:
            model._rows(Xs, targets, ws, halves[1])
        else:
            model._reduce(Xs, ws, layers[1:], layers)

    adam = {"m": np.zeros_like(theta), "v": np.zeros_like(theta), "t": 0}
    with forkmap.Lockstep(helper) if split else nullcontext() as lockstep:
        # one process runs the helper's share in place of handing it over
        post, wait = ((helper, lambda: None) if lockstep is None
                      else (lockstep.post, lockstep.wait))
        for _ in range(epochs):
            ws.theta[:] = theta
            post(0)
            model._rows(Xs, targets, ws, halves[0])
            wait()
            post(1)
            model._reduce(Xs, ws, layers[:1], ())
            wait()
            theta = _adam(theta, ws.grad, adam, lr)
    model.set_flat_params(theta)
    return model
