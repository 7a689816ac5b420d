"""Reference feedforward network and training loop for the network tests.

The plain form of the network's algorithm: every epoch calls the public
loss-and-gradient, which checks, standardizes and encodes its batch afresh,
builds every layer output, head and gradient as a new array, and returns the
loss it also computes. Tests train it from the same seed and data as
`train_network` and require the production network, which prepares the data
once and computes into reused buffers, to match it bit for bit.
"""

import numpy as np

_ACTIVATIONS = ("tanh", "relu", "identity")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    return z


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0.0).astype(float)
    return np.ones_like(z)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _softplus(z: np.ndarray) -> np.ndarray:
    # overflow-safe: softplus(z) = max(z, 0) + log1p(exp(-|z|))
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class ReferenceNetwork:
    """Weights, biases and frozen input statistics of one network."""

    def __init__(self, task, weights, biases, activation, classes, x_mean, x_std, out_dim):
        self.task = task
        self.weights = weights
        self.biases = biases
        self.activation = activation
        self.classes_ = classes
        self.x_mean = x_mean
        self.x_std = x_std
        self.out_dim = out_dim

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.x_mean) / self.x_std

    def _forward(self, Xs: np.ndarray):
        zs = []
        acts = [Xs]
        a = Xs
        last = len(self.weights) - 1
        for i, W in enumerate(self.weights):
            z = a @ W
            if self.biases[i] is not None:
                z = z + self.biases[i]
            zs.append(z)
            a = _act(self.activation, z) if i < last else z
            acts.append(a)
        return zs, acts

    def _head(self, z_out: np.ndarray) -> np.ndarray:
        if self.task == "classify":
            return _softmax(z_out)
        if self.task == "vector_regress":
            return _softplus(z_out)
        return z_out

    def predict_proba(self, X) -> np.ndarray:
        _, acts = self._forward(self._standardize(np.asarray(X, dtype=float)))
        return _softmax(acts[-1])

    def predict(self, X):
        _, acts = self._forward(self._standardize(np.asarray(X, dtype=float)))
        out = self._head(acts[-1])
        if self.task == "classify":
            return self.classes_[np.argmax(out, axis=1)]
        if self.task == "regress":
            return out[:, 0]
        return out

    def flat_params(self) -> np.ndarray:
        chunks = []
        for W, b in zip(self.weights, self.biases):
            chunks.append(W.ravel())
            if b is not None:
                chunks.append(b.ravel())
        return np.concatenate(chunks)

    def set_flat_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        pos = 0
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            n = W.size
            self.weights[i] = theta[pos:pos + n].reshape(W.shape).copy()
            pos += n
            if b is not None:
                m = b.size
                self.biases[i] = theta[pos:pos + m].copy()
                pos += m

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

    def loss_grad(self, X, y, l2: float = 0.0):
        Xs = self._standardize(np.asarray(X, dtype=float))
        targets = self._encode_targets(y)
        n = Xs.shape[0]
        zs, acts = self._forward(Xs)
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

        grads_W = [None] * len(self.weights)
        grads_b = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = acts[i]
            grads_W[i] = a_prev.T @ delta
            grads_b[i] = delta.sum(axis=0) if self.biases[i] is not None else None
            if i > 0:
                delta = (delta @ self.weights[i].T) * _act_grad(self.activation, zs[i - 1], acts[i])

        if l2 > 0.0:
            for i, W in enumerate(self.weights):
                loss += 0.5 * l2 * float(np.sum(W * W))
                grads_W[i] = grads_W[i] + l2 * W

        chunks = []
        for gW, gb in zip(grads_W, grads_b):
            chunks.append(gW.ravel())
            if gb is not None:
                chunks.append(gb.ravel())
        return loss, np.concatenate(chunks)


def _build(spec, in_dim, out_dim, classes, x_mean, x_std) -> ReferenceNetwork:
    hp = spec.hyperparameters
    hidden = tuple(int(h) for h in hp.get("hidden", (32,)))
    activation = hp.get("activation", "tanh")
    use_bias = bool(hp.get("bias", True))
    output_bias = bool(hp.get("output_bias", use_bias))
    rng = np.random.default_rng([int(spec.seed) & 0x7FFFFFFFFFFFFFFF, 0x9E7])
    dims = (in_dim,) + hidden + (out_dim,)
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        last = i == len(dims) - 2
        has_bias = output_bias if last else use_bias
        biases.append(np.zeros(fan_out) if has_bias else None)
    return ReferenceNetwork(spec.task, weights, biases, activation, classes, x_mean, x_std,
                            out_dim)


def reference_network(spec, X, y) -> ReferenceNetwork:
    """Train per spec with Adam, one public loss-and-gradient call per batch."""
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

    if bool(hp.get("standardize", True)):
        x_mean = X.mean(axis=0)
        x_std = np.maximum(X.std(axis=0), 1e-8)
    else:
        x_mean = np.zeros(X.shape[1])
        x_std = np.ones(X.shape[1])
    model = _build(spec, X.shape[1], out_dim, classes, x_mean, x_std)

    epochs = int(hp.get("epochs", 200))
    lr = float(hp.get("lr", 0.01))
    l2 = float(hp.get("l2", 0.0))
    batch_size = hp.get("batch_size")

    theta = model.flat_params()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    n = X.shape[0]
    shuffle_rng = np.random.default_rng([int(spec.seed) & 0x7FFFFFFFFFFFFFFF, 0x5F1E])

    for _ in range(epochs):
        if batch_size is None or int(batch_size) >= n:
            batches = [slice(0, n)]
            Xe, ye = X, y
        else:
            order = shuffle_rng.permutation(n)
            Xe = X[order]
            ye = np.asarray(y)[order]
            bs = int(batch_size)
            batches = [slice(i, min(i + bs, n)) for i in range(0, n, bs)]
        for sl in batches:
            model.set_flat_params(theta)
            _, grad = model.loss_grad(Xe[sl], ye[sl], l2)
            step += 1
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            mhat = m / (1 - beta1 ** step)
            vhat = v / (1 - beta2 ** step)
            theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    model.set_flat_params(theta)
    return model
