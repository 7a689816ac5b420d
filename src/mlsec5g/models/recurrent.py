"""Online windowed regressor built on a minimal gated recurrent cell.

The model predicts the next value of a scalar series from the last `window`
observations as reported (spoofed reports poison both the input window and
the online update; that is the attack surface). After warmup pretraining the
model keeps learning: every observation handed to `step()` triggers exactly
one gradient step before it joins the history.

`history` and `params` change only through `step()`. The model keeps the
forward pass over its current window, so `predict_next()` and the gradient
step that follows it share one pass instead of recomputing it.

The math runs over optional leading axes. A stack of S streams (`_stack`)
is one model whose params, Adam moments and window carry a leading stream
axis, so one set of numpy calls steps every stream: `step()` takes S reports
and `predict_next()` returns S values. Stacking is exact. A stacked matmul
runs the same kernel on each stream's matrices as the one-stream call does,
every other operation is elementwise or sums over one stream's batch rows,
and the streams share nothing but the step count. `_unstack` writes each
stream back into its own model.

State is owned by its streams; nothing here is shared or thread-safe, and a
replay of the same stream reproduces predictions bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..repro import _jsonable
from .base import ModelSpec, TrainedModel, sigmoid

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
        self.lr = float(spec.hyperparameters.get("lr", 0.02))
        if adam_state is None:
            theta = self._flat(params)
            adam_state = {"m": np.zeros_like(theta), "v": np.zeros_like(theta), "t": 0}
        self.adam = adam_state
        self._window_pass = None  # forward over the current window, built on first use

    # -- parameter plumbing -------------------------------------------------

    @staticmethod
    def _flat(params: dict) -> np.ndarray:
        """All params as one (P,) vector, or (S, P) for a stack of S streams."""
        lead = params["by"].shape[:-1]
        return np.concatenate([params[k].reshape(lead + (-1,)) for k in _PARAM_ORDER],
                              axis=-1)

    def _unflatten(self, theta: np.ndarray) -> None:
        lead = theta.ndim - 1
        pos = 0
        for k in _PARAM_ORDER:
            shape = self.params[k].shape
            size = math.prod(shape[lead:])
            self.params[k] = theta[..., pos:pos + size].reshape(shape).copy()
            pos += size

    # -- forward / backward --------------------------------------------------

    def _forward(self, Xn: np.ndarray, cache: bool = False):
        """Xn: (..., B, T) normalized inputs -> predictions (..., B, 1), optional caches."""
        p = self.params
        h = np.zeros(Xn.shape[:-1] + (p["Uz"].shape[-1],))
        bz, br, bh = (p[k][..., None, :] for k in ("bz", "br", "bh"))
        caches = []
        for t in range(Xn.shape[-1]):
            x = Xn[..., t:t + 1]
            z = sigmoid(x @ p["Wz"] + h @ p["Uz"] + bz)
            r = sigmoid(x @ p["Wr"] + h @ p["Ur"] + br)
            c = np.tanh(x @ p["Wh"] + (r * h) @ p["Uh"] + bh)
            h_new = (1.0 - z) * h + z * c
            if cache:
                caches.append((x, h, z, r, c))
            h = h_new
        pred = h @ p["Wy"] + p["by"][..., None, :]
        return (pred, h, caches) if cache else (pred, h, None)

    def _backward(self, fwd, target_n: np.ndarray) -> np.ndarray:
        """Flat gradient of the MSE of a cached forward pass, backprop through
        the full window; each stream's batch rows make its own mean."""
        p = self.params
        pred, h_last, caches = fwd
        grads = {k: np.zeros_like(p[k]) for k in _PARAM_ORDER}
        dpred = 2.0 * (pred - target_n) / pred.shape[-2]
        grads["Wy"] = h_last.swapaxes(-1, -2) @ dpred
        grads["by"] = dpred.sum(axis=-2)
        dh = dpred @ p["Wy"].swapaxes(-1, -2)
        UzT, UrT, UhT = (p[k].swapaxes(-1, -2) for k in ("Uz", "Ur", "Uh"))
        for x, h_prev, z, r, c in reversed(caches):
            xT, h_prevT = x.swapaxes(-1, -2), h_prev.swapaxes(-1, -2)
            dz = dh * (c - h_prev)
            dc = dh * z
            dh_prev = dh * (1.0 - z)
            dc_pre = dc * (1.0 - c * c)
            grads["Wh"] += xT @ dc_pre
            grads["Uh"] += (r * h_prev).swapaxes(-1, -2) @ dc_pre
            grads["bh"] += dc_pre.sum(axis=-2)
            drh = dc_pre @ UhT
            dr = drh * h_prev
            dh_prev = dh_prev + drh * r
            dr_pre = dr * r * (1.0 - r)
            dz_pre = dz * z * (1.0 - z)
            grads["Wr"] += xT @ dr_pre
            grads["Ur"] += h_prevT @ dr_pre
            grads["br"] += dr_pre.sum(axis=-2)
            grads["Wz"] += xT @ dz_pre
            grads["Uz"] += h_prevT @ dz_pre
            grads["bz"] += dz_pre.sum(axis=-2)
            dh = dh_prev + dr_pre @ UrT + dz_pre @ UzT
        return self._flat(grads)

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

    # -- stream stacks -----------------------------------------------------------

    @classmethod
    def _stack(cls, models) -> OnlineRecurrentModel:
        """One model stepping every model in lockstep, stream j being models[j].

        The streams may differ in params, Adam moments and history values,
        but not in anything one set of calls must share; every field where
        they differ is listed in one ValueError.
        """
        shared = {
            "window": [m.window for m in models],
            "hidden size": [m.params["Uz"].shape[-1] for m in models],
            "mu": [m.mu for m in models],
            "sd": [m.sd for m in models],
            "lr": [m.lr for m in models],
            "adam t": [m.adam["t"] for m in models],
            "history length": [len(m.history[-m.window:]) for m in models],
        }
        differ = [f"{name} {values}" for name, values in shared.items()
                  if any(v != values[0] for v in values)]
        if differ:
            raise ValueError("stacked streams must agree on: " + "; ".join(differ))
        first = models[0]
        params = {k: np.stack([m.params[k] for m in models]) for k in _PARAM_ORDER}
        adam = {"m": np.stack([m.adam["m"] for m in models]),
                "v": np.stack([m.adam["v"] for m in models]), "t": first.adam["t"]}
        window = np.array([m.history[-first.window:] for m in models], dtype=float)
        return cls(first.spec, first.fingerprint, params, first.mu, first.sd,
                   first.window, window.T.tolist(), adam)

    def _unstack(self, models) -> None:
        """Write stream j of this stack back into models[j]."""
        for j, m in enumerate(models):
            m.params = {k: self.params[k][j].copy() for k in _PARAM_ORDER}
            m.adam = {"m": self.adam["m"][j].copy(), "v": self.adam["v"][j].copy(),
                      "t": self.adam["t"]}
            m.history = [reports[j] for reports in self.history]
            m._window_pass = None

    # -- public surface --------------------------------------------------------

    def _normalize(self, values) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mu) / self.sd

    def _window_forward(self):
        """The cached forward pass over the current window under the current params."""
        if self._window_pass is None:
            # history holds one report per step: a float, or a list of S for a stack
            window = np.asarray(self.history[-self.window:], dtype=float).T[..., None, :]
            self._window_pass = self._forward(self._normalize(window), cache=True)
        return self._window_pass

    def _next_value(self):
        pred = self._window_forward()[0][..., 0, 0] * self.sd + self.mu
        return pred if pred.ndim else float(pred)

    def predict_next(self):
        """Prediction for the next step from the current reported window:
        a float, or one value per stream for a stack."""
        return self._next_value()

    def step(self, observation):
        """Consume one observation (one per stream for a stack): one online
        update, then predict the next step.

        The observation enters the history exactly as reported; the model has
        no way to tell truth from spoof.
        """
        obs = np.array(observation, dtype=float)
        if obs.shape != self.params["by"].shape[:-1]:
            raise ValueError(f"expected one observation per stream, got shape {obs.shape}")
        grad = self._backward(self._window_forward(), self._normalize(obs[..., None, None]))
        self._window_pass = None
        self._adam_step(grad, self.lr)
        self.history.append(obs.tolist())
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
        model._adam_step(model._backward(model._forward(Xn, cache=True), tn), model.lr)
    return model

