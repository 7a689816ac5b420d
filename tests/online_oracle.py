"""Reference online recurrent model and lockstep attack run for the tests.

The plain form of the online path: every stream step runs its own forward
pass for the prediction, another inside the gradient step and a third for the
prediction it returns, and every spoof mode gets its own clean twin. Tests
start it from the same warmup state as `OnlineRecurrentModel` and require the
production model, which keeps one forward pass per step and steps stacked
streams together, and `run_online_attacks`, which shares one clean stream, to
match it bit for bit.
"""

import numpy as np

from mlsec5g import metrics as M
from mlsec5g.attacks import SPOOF_MODES, OnlineAttackResult, spoof_value

_PARAM_ORDER = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh", "Wy", "by")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class ReferenceOnlineModel:
    """One stream's parameters, Adam state and reported window."""

    def __init__(self, params: dict, mu: float, sd: float, window: int,
                 history, lr: float, adam_state: dict | None = None):
        self.params = params
        self.mu = mu
        self.sd = sd
        self.window = window
        self.history = list(history)
        self.lr = lr
        if adam_state is None:
            theta = self._flat(params)
            adam_state = {"m": np.zeros_like(theta), "v": np.zeros_like(theta), "t": 0}
        self.adam = adam_state

    @classmethod
    def from_state(cls, meta, arrays):
        """A copy of a saved `OnlineRecurrentModel` state."""
        hp = meta["hyperparameters"]
        params = {k: np.array(arrays[k], dtype=float) for k in _PARAM_ORDER}
        adam = {"m": np.array(arrays["adam_m"], dtype=float),
                "v": np.array(arrays["adam_v"], dtype=float), "t": meta["adam_t"]}
        return cls(params, meta["mu"], meta["sd"], meta["window"],
                   list(arrays["history"]), float(hp.get("lr", 0.02)), adam)

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

    def _forward(self, Xn: np.ndarray, cache: bool = False):
        """Xn: (B, T) normalized inputs -> predictions (B, 1), optional caches."""
        p = self.params
        B, T = Xn.shape
        H = p["Uz"].shape[0]
        h = np.zeros((B, H))
        caches = []
        for t in range(T):
            x = Xn[:, t:t + 1]
            z = _sigmoid(x @ p["Wz"] + h @ p["Uz"] + p["bz"])
            r = _sigmoid(x @ p["Wr"] + h @ p["Ur"] + p["br"])
            c = np.tanh(x @ p["Wh"] + (r * h) @ p["Uh"] + p["bh"])
            h_new = (1.0 - z) * h + z * c
            if cache:
                caches.append((x, h, z, r, c))
            h = h_new
        pred = h @ p["Wy"] + p["by"]
        return (pred, h, caches) if cache else (pred, h, None)

    def _loss_grad(self, Xn: np.ndarray, target_n: np.ndarray):
        """MSE loss and flat gradient via backprop through the full window."""
        p = self.params
        pred, h_last, caches = self._forward(Xn, cache=True)
        B = Xn.shape[0]
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

    def _normalize(self, values) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mu) / self.sd

    def predict_next(self) -> float:
        """Prediction for the next step from the current reported window."""
        window = np.asarray(self.history[-self.window:], dtype=float).reshape(1, -1)
        pred, _, _ = self._forward(self._normalize(window))
        return float(pred[0, 0] * self.sd + self.mu)

    def step(self, observation: float) -> float:
        """Consume one observation: one online update, then predict the next step."""
        obs = float(observation)
        window = np.asarray(self.history[-self.window:], dtype=float).reshape(1, -1)
        target = np.array([[obs]], dtype=float)
        _, grad = self._loss_grad(self._normalize(window), self._normalize(target))
        self._adam_step(grad, self.lr)
        self.history.append(obs)
        if len(self.history) > self.window:
            self.history = self.history[-self.window:]
        return self.predict_next()

    def predict(self, X):
        """Batch next-step predictions for rows of window-length inputs."""
        pred, _, _ = self._forward(self._normalize(np.asarray(X, dtype=float)))
        return pred[:, 0] * self.sd + self.mu


def reference_warmup(spec, warmup_series) -> ReferenceOnlineModel:
    """`init_online`'s pretraining, on the reference model."""
    series = np.asarray(warmup_series, dtype=float)
    hp = spec.hyperparameters
    window = int(hp.get("window", 30))
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

    model = ReferenceOnlineModel(params, mu, sd, window, list(series[-window:]), lr)
    n_pairs = series.size - window
    Xw = np.lib.stride_tricks.sliding_window_view(series, window)[:n_pairs]
    targets = series[window:].reshape(-1, 1)
    Xn = model._normalize(Xw)
    tn = model._normalize(targets)
    for _ in range(epochs):
        _, grad = model._loss_grad(Xn, tn)
        model._adam_step(grad, lr)
    return model


def reference_online_attack(model_factory, true_series, spoof_mode, period_s=60.0,
                            dt=1.0, seed=0) -> OnlineAttackResult:
    """One clean twin and one attacked twin, each predicted twice per step."""
    series = np.asarray(true_series, dtype=float)
    period_steps = int(round(period_s / dt))
    assert spoof_mode is None or spoof_mode in SPOOF_MODES

    clean = model_factory()
    attacked = model_factory()
    H = series.size
    pred_clean = np.empty(H)
    pred_attacked = np.empty(H)
    spoof_steps = []
    for i in range(H):
        pred_clean[i] = clean.predict_next()
        pred_attacked[i] = attacked.predict_next()
        truth = float(series[i])
        reported = truth
        if spoof_mode is not None and i % period_steps == 0:
            reported = spoof_value(spoof_mode, truth, i, seed)
            spoof_steps.append(i)
        clean.step(truth)
        attacked.step(reported)

    crmse_clean = M.crmse(series, pred_clean)
    crmse_attacked = M.crmse(series, pred_attacked)
    return OnlineAttackResult(
        t=np.arange(1, H + 1, dtype=float) * dt,
        true_series=series,
        pred_clean=pred_clean,
        pred_attacked=pred_attacked,
        crmse_clean=crmse_clean,
        crmse_attacked=crmse_attacked,
        differential=crmse_attacked - crmse_clean,
        spoof_steps=tuple(spoof_steps),
        spoof_mode=spoof_mode,
    )
