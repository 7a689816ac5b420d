"""Reference feedforward network and training loop for the network tests.

The plain form of the network's algorithm: every epoch calls the public
loss-and-gradient, which checks, standardizes and encodes its batch afresh,
builds every layer output, head and gradient as a new array, and returns the
loss it also computes. Tests train it from the same seed and data as
`train_network` and require the production network, which prepares the data
once and computes into reused buffers, to match it bit for bit.
"""

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _softplus(z: np.ndarray) -> np.ndarray:
    # overflow-safe: softplus(z) = max(z, 0) + log1p(exp(-|z|))
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class ReferenceNetwork:
    """Weights, biases and frozen input statistics of one tanh network."""

    def __init__(self, task, weights, biases, classes, x_mean, x_std, out_dim):
        self.task = task
        self.weights = weights
        self.biases = biases
        self.classes_ = classes
        self.x_mean = x_mean
        self.x_std = x_std
        self.out_dim = out_dim

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.x_mean) / self.x_std

    def _forward(self, Xs: np.ndarray):
        acts = [Xs]
        a = Xs
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W + b
            a = np.tanh(z) if i < last else z
            acts.append(a)
        return acts

    def _head(self, z_out: np.ndarray) -> np.ndarray:
        if self.task == "classify":
            return _softmax(z_out)
        if self.task == "vector_regress":
            return _softplus(z_out)
        return z_out

    def predict_proba(self, X) -> np.ndarray:
        acts = self._forward(self._standardize(np.asarray(X, dtype=float)))
        return _softmax(acts[-1])

    def predict(self, X):
        acts = self._forward(self._standardize(np.asarray(X, dtype=float)))
        out = self._head(acts[-1])
        if self.task == "classify":
            return self.classes_[np.argmax(out, axis=1)]
        if self.task == "regress":
            return out[:, 0]
        return out

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for W, b in zip(self.weights, self.biases)
                               for p in (W, b)])

    def set_flat_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        pos = 0
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = theta[pos:pos + W.size].reshape(W.shape).copy()
            pos += W.size
            self.biases[i] = theta[pos:pos + b.size].copy()
            pos += b.size

    def _encode_targets(self, y):
        if self.task == "classify":
            y = np.asarray(y)
            codes = np.searchsorted(self.classes_, y)
            onehot = np.zeros((y.shape[0], len(self.classes_)))
            onehot[np.arange(y.shape[0]), codes] = 1.0
            return onehot
        t = np.asarray(y, dtype=float)
        if self.task == "regress":
            t = t.reshape(-1, 1)
        return t

    def loss_grad(self, X, y):
        Xs = self._standardize(np.asarray(X, dtype=float))
        targets = self._encode_targets(y)
        n = Xs.shape[0]
        acts = self._forward(Xs)
        z_out = acts[-1]

        if self.task == "classify":
            proba = _softmax(z_out)
            logp = z_out - z_out.max(axis=1, keepdims=True)
            logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
            loss = float(-np.sum(targets * logp) / n)
            delta = (proba - targets) / n
        elif self.task == "vector_regress":
            out = _softplus(z_out)
            diff = out - targets
            loss = float(np.mean(diff ** 2))
            delta = (2.0 * diff / diff.size) * _sigmoid(z_out)
        else:
            diff = z_out - targets
            loss = float(np.mean(diff ** 2))
            delta = 2.0 * diff / diff.size

        grads = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = acts[i]
            grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i].T) * (1.0 - a_prev * a_prev)
        return loss, np.concatenate([g.ravel() for pair in grads for g in pair])


def _build(spec, in_dim, out_dim, classes, x_mean, x_std) -> ReferenceNetwork:
    hidden = tuple(int(h) for h in spec.hyperparameters.get("hidden", (32,)))
    rng = np.random.default_rng([int(spec.seed) & 0x7FFFFFFFFFFFFFFF, 0x9E7])
    dims = (in_dim,) + hidden + (out_dim,)
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ReferenceNetwork(spec.task, weights, biases, classes, x_mean, x_std, out_dim)


def reference_network(spec, X, y) -> ReferenceNetwork:
    """Train per spec with full-batch Adam, one public loss-and-gradient call
    per epoch."""
    X = np.asarray(X, dtype=float)
    hp = spec.hyperparameters
    if spec.task == "classify":
        classes = np.unique(np.asarray(y))
        out_dim = int(classes.size)
    elif spec.task == "regress":
        classes = None
        out_dim = 1
    else:
        classes = None
        out_dim = np.asarray(y, dtype=float).shape[1]

    x_mean = X.mean(axis=0)
    x_std = np.maximum(X.std(axis=0), 1e-8)
    model = _build(spec, X.shape[1], out_dim, classes, x_mean, x_std)

    epochs = int(hp.get("epochs", 200))
    lr = float(hp.get("lr", 0.01))

    theta = model.flat_params()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, epochs + 1):
        model.set_flat_params(theta)
        _, grad = model.loss_grad(X, y)
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        mhat = m / (1 - beta1 ** step)
        vhat = v / (1 - beta2 ** step)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    model.set_flat_params(theta)
    return model
