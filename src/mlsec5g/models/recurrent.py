"""Online windowed regressor built on a minimal gated recurrent cell.

The model predicts the next value of a scalar series from the last `window`
observations as reported (spoofed reports poison both the input window and
the online update; that is the attack surface). After warmup pretraining the
model keeps learning: every observation handed to `step()` triggers exactly
one gradient step before it joins the history.

`history` and `params` change only through `step()`. The model keeps the
forward pass over its current window, so `predict_next()` and the gradient
step that follows it share one pass instead of recomputing it.

State is owned by a single stream; nothing here is shared or thread-safe,
and a replay of the same stream reproduces predictions bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .base import ModelSpec, TrainedModel, _jsonable, sigmoid

_PARAM_ORDER = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh", "Wy", "by")


class OnlineRecurrentModel(TrainedModel):
    kind = "recurrent"

    def __init__(self, spec: ModelSpec, fingerprint: str, params: dict,
                 mu: float, sd: float, window: int, history: list[float],
                 adam_state: dict | None = None):
        super().__init__(spec, (f"t-{window - i}" for i in range(window)), fingerprint)
        self.params = params
        self.mu = mu
        self.sd = sd
        self.window = window
        self.history = list(history)
        hp = spec.hyperparameters
        self.online_lr = float(hp.get("online_lr", hp.get("lr", 0.02)))
        if adam_state is None:
            theta = self._flat(params)
            adam_state = {"m": np.zeros_like(theta), "v": np.zeros_like(theta), "t": 0}
        self.adam = adam_state
        self._window_pass = None  # forward over the current window, built on first use

    # -- parameter plumbing -------------------------------------------------

    @staticmethod
    def _flat(params: dict) -> np.ndarray:
        return np.concatenate([params[k].ravel() for k in _PARAM_ORDER])

    def _unflatten(self, theta: np.ndarray) -> None:
        pos = 0
        for k in _PARAM_ORDER:
            shape = self.params[k].shape
            size = self.params[k].size
            self.params[k] = theta[pos:pos + size].reshape(shape).copy()
            pos += size

    # -- forward / backward --------------------------------------------------

    def _forward(self, Xn: np.ndarray, cache: bool = False):
        """Xn: (B, T) normalized inputs -> predictions (B, 1), optional caches."""
        p = self.params
        B, T = Xn.shape
        H = p["Uz"].shape[0]
        h = np.zeros((B, H))
        caches = []
        for t in range(T):
            x = Xn[:, t:t + 1]
            z = sigmoid(x @ p["Wz"] + h @ p["Uz"] + p["bz"])
            r = sigmoid(x @ p["Wr"] + h @ p["Ur"] + p["br"])
            c = np.tanh(x @ p["Wh"] + (r * h) @ p["Uh"] + p["bh"])
            h_new = (1.0 - z) * h + z * c
            if cache:
                caches.append((x, h, z, r, c))
            h = h_new
        pred = h @ p["Wy"] + p["by"]
        return (pred, h, caches) if cache else (pred, h, None)

    def _loss_grad(self, Xn: np.ndarray, target_n: np.ndarray):
        """MSE loss and flat gradient via backprop through the full window."""
        return self._backward(self._forward(Xn, cache=True), target_n)

    def _backward(self, fwd, target_n: np.ndarray):
        """MSE loss and flat gradient of a cached forward pass."""
        p = self.params
        pred, h_last, caches = fwd
        B = pred.shape[0]
        diff = pred - target_n
        loss = float(np.mean(diff ** 2))
        grads = {k: np.zeros_like(p[k]) for k in _PARAM_ORDER}
        dpred = 2.0 * diff / B
        grads["Wy"] = h_last.T @ dpred
        grads["by"] = dpred.sum(axis=0)
        dh = dpred @ p["Wy"].T
        for x, h_prev, z, r, c in reversed(caches):
            dz = dh * (c - h_prev)
            dc = dh * z
            dh_prev = dh * (1.0 - z)
            dc_pre = dc * (1.0 - c * c)
            grads["Wh"] += x.T @ dc_pre
            grads["Uh"] += (r * h_prev).T @ dc_pre
            grads["bh"] += dc_pre.sum(axis=0)
            drh = dc_pre @ p["Uh"].T
            dr = drh * h_prev
            dh_prev = dh_prev + drh * r
            dr_pre = dr * r * (1.0 - r)
            dz_pre = dz * z * (1.0 - z)
            grads["Wr"] += x.T @ dr_pre
            grads["Ur"] += h_prev.T @ dr_pre
            grads["br"] += dr_pre.sum(axis=0)
            grads["Wz"] += x.T @ dz_pre
            grads["Uz"] += h_prev.T @ dz_pre
            grads["bz"] += dz_pre.sum(axis=0)
            dh = dh_prev + dr_pre @ p["Ur"].T + dz_pre @ p["Uz"].T
        return loss, np.concatenate([grads[k].ravel() for k in _PARAM_ORDER])

    def _adam_step(self, grad: np.ndarray, lr: float) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        st = self.adam
        st["t"] += 1
        st["m"] = beta1 * st["m"] + (1 - beta1) * grad
        st["v"] = beta2 * st["v"] + (1 - beta2) * grad * grad
        mhat = st["m"] / (1 - beta1 ** st["t"])
        vhat = st["v"] / (1 - beta2 ** st["t"])
        theta = self._flat(self.params) - lr * mhat / (np.sqrt(vhat) + eps)
        self._unflatten(theta)

    # -- public surface --------------------------------------------------------

    def _normalize(self, values) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mu) / self.sd

    def _window_forward(self):
        """The cached forward pass over the current window under the current params."""
        if self._window_pass is None:
            window = np.asarray(self.history[-self.window:], dtype=float).reshape(1, -1)
            self._window_pass = self._forward(self._normalize(window), cache=True)
        return self._window_pass

    def _next_value(self) -> float:
        return float(self._window_forward()[0][0, 0] * self.sd + self.mu)

    def predict_next(self) -> float:
        """Prediction for the next step from the current reported window."""
        return self._next_value()

    def step(self, observation: float) -> float:
        """Consume one observation: one online update, then predict the next step.

        The observation enters the history exactly as reported; the model has
        no way to tell truth from spoof.
        """
        obs = float(observation)
        target = np.array([[obs]], dtype=float)
        _, grad = self._backward(self._window_forward(), self._normalize(target))
        self._window_pass = None
        self._adam_step(grad, self.online_lr)
        self.history.append(obs)
        if len(self.history) > self.window:
            self.history = self.history[-self.window:]
        return self._next_value()

    def predict(self, X):
        """Batch next-step predictions for rows of window-length inputs."""
        X = self._check_width(np.asarray(X, dtype=float))
        pred, _, _ = self._forward(self._normalize(X))
        return pred[:, 0] * self.sd + self.mu

    # -- persistence -------------------------------------------------------------

    def to_state(self):
        arrays = {k: self.params[k] for k in _PARAM_ORDER}
        arrays["history"] = np.asarray(self.history, dtype=float)
        arrays["adam_m"] = self.adam["m"]
        arrays["adam_v"] = self.adam["v"]
        meta = {
            "task": self.task,
            "fingerprint": self.fingerprint,
            "seed": int(self.spec.seed),
            "hyperparameters": {k: _jsonable(v) for k, v in self.spec.hyperparameters.items()},
            "mu": self.mu,
            "sd": self.sd,
            "window": self.window,
            "adam_t": int(self.adam["t"]),
        }
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays):
        spec = ModelSpec("recurrent", meta["task"], meta["hyperparameters"], meta["seed"])
        # copy: restored models must never alias the donor's live arrays
        params = {k: np.array(arrays[k], dtype=float) for k in _PARAM_ORDER}
        adam = {"m": np.array(arrays["adam_m"], dtype=float),
                "v": np.array(arrays["adam_v"], dtype=float), "t": meta["adam_t"]}
        return cls(spec, meta["fingerprint"], params, meta["mu"], meta["sd"],
                   meta["window"], list(arrays["history"]), adam)


def init_online(spec: ModelSpec, warmup_series) -> OnlineRecurrentModel:
    """Pretrain on a warmup series and return a live online model.

    The warmup must be strictly longer than the window (otherwise there is
    no (window -> next value) pair to learn from). The trailing window of the
    warmup becomes the initial history.
    """
    series = np.asarray(warmup_series, dtype=float)
    hp = spec.hyperparameters
    window = int(hp.get("window", 30))
    if window < 1:
        raise ValueError("window must be >= 1")
    if series.ndim != 1 or series.size <= window:
        raise ValueError(
            f"warmup series must be 1-d and longer than the window ({window}), "
            f"got {series.size} samples")
    hidden = int(hp.get("hidden_size", 12))
    epochs = int(hp.get("epochs", 150))
    lr = float(hp.get("lr", 0.02))

    mu = float(series.mean())
    sd = float(series.std())
    if sd < 1e-8:
        sd = 1.0

    rng = np.random.default_rng([int(spec.seed) & 0x7FFFFFFFFFFFFFFF, 0x6E5])
    scale_x = np.sqrt(6.0 / (1 + hidden))
    scale_h = np.sqrt(6.0 / (2 * hidden))
    scale_y = np.sqrt(6.0 / (hidden + 1))
    params = {}
    for gate in ("z", "r", "h"):
        params[f"W{gate}"] = rng.uniform(-scale_x, scale_x, size=(1, hidden))
        params[f"U{gate}"] = rng.uniform(-scale_h, scale_h, size=(hidden, hidden))
        params[f"b{gate}"] = np.zeros(hidden)
    params["Wy"] = rng.uniform(-scale_y, scale_y, size=(hidden, 1))
    params["by"] = np.zeros(1)

    fp = spec.fingerprint_with(series, np.asarray([window]))
    model = OnlineRecurrentModel(spec, fp, params, mu, sd, window,
                                 list(series[-window:]))

    n_pairs = series.size - window
    Xw = np.lib.stride_tricks.sliding_window_view(series, window)[:n_pairs]
    targets = series[window:].reshape(-1, 1)
    Xn = model._normalize(Xw)
    tn = model._normalize(targets)
    for _ in range(epochs):
        _, grad = model._loss_grad(Xn, tn)
        model._adam_step(grad, lr)
    return model

