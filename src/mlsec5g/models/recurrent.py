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

Every pass runs on a workspace of buffers with time on the first axis
(`_Workspace`), kept for the model's latest input shape: the warm-up's
epochs share one, as do a stream's steps. `init_online` drops the warm-up's,
and copies and pickles start without one. Each step runs the ops of a
step-by-step pass on the same operands, with the same kernel per stacked
matmul item, so the bits are the same. The z and r gates share one stacked
`h @ [Uz, Ur]`, one pair of adds and one sigmoid; `x @ W` of every step is
one batched K=1 matmul, which sums from +0.0 (a bare `x * W` gives -0.0).
In the backward only dh stays in the time loop: the factors of forward
values (1 - z, 1 - r, c - h, 1 - c*c) come first for every step, each delta
overwrites its factor, and every step's W, U and b gradients come after,
summed from zero latest step first. Each reduced axis stays where the
step-by-step pass has it: at hidden size 1 a bias row sum runs along its
block's innermost axis, which numpy sums pairwise, so a layout with rows
before time, or a time sum over one (T, 1) column, changes the bits there.

State is owned by its streams; nothing here is shared or thread-safe, and a
replay of the same stream reproduces predictions bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..repro import seeded
from .base import ModelSpec, TrainedModel, _adam

_PARAM_ORDER = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh", "Wy", "by")


def _sigmoid(a: np.ndarray, mask: np.ndarray, e: np.ndarray) -> None:
    """Logistic function in place, with scratch mask (bool) and e of a's
    shape: 1/(1+exp(-a)) for a >= 0 and exp(a)/(1+exp(a)) below, both from
    one exp(-|a|), which cannot overflow. Since that lies in [0, 1], the
    numerator is max(exp(-|a|), a >= 0); a NaN passes through."""
    np.greater_equal(a, 0.0, out=mask)
    np.exp(np.copysign(a, -1.0, out=e), out=e)
    np.add(1.0, e, out=a)
    np.maximum(e, mask, out=e)
    np.divide(e, a, out=a)


class _Workspace:
    """The buffers of one pass over inputs of shape (..., B, T): time first,
    then gate, then the state's (..., B, H). `xw` holds x @ [Wz, Wr, Wh]
    for the forward; the backward overwrites it with the factors 1 - z,
    1 - r and c - h, then each of those with its gate's delta, and `c` with
    1 - c*c. The per-step views are made once."""

    def __init__(self, shape: tuple, H: int):
        *lead, B, T = self.shape = shape
        state = (*lead, B, H)
        self.X = np.empty(shape)
        # x_t as the column slice X[..., t:t+1], for every t at once
        self.x = np.moveaxis(np.lib.stride_tricks.sliding_window_view(self.X, 1, axis=-1), -2, 0)
        self.xw = np.empty((T, 3, *state))
        self.zr = np.empty((T, 2, *state))
        self.c = np.empty((T, *state))
        self.rh = np.empty((T, *state))  # r * h_prev
        self.hs = np.zeros((T + 1, *state))  # h before each step, then the last h
        # per-step gradients of each gate's W, U and b, latest step first
        self.g = np.empty((T, *lead, 3, H + H * H + H))
        self.mask = np.empty((2, *state), dtype=bool)
        self.pair = np.empty((2, *state))
        self.dh, self.dc, self.drh = (np.empty(state) for _ in range(3))
        # per step: h, h_new, [z, r], z, r, c, r * h, x @ [Wz, Wr], x @ Wz, x @ Wr, x @ Wh
        self.steps = list(zip(self.hs[:-1], self.hs[1:], self.zr, *zip(*self.zr), self.c,
                              self.rh, self.xw[:, :2], *zip(*self.xw)))


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
        self._ws = None  # the workspace of the latest pass
        self._window_pass = None  # the workspace holding the pass over the current window

    def __getstate__(self):
        # a copy or a pickle starts without workspaces: their step views would not survive
        return {**self.__dict__, "_ws": None, "_window_pass": None}

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

    def _forward(self, Xn: np.ndarray) -> _Workspace:
        """Run the pass over normalized inputs Xn (..., B, T) in the workspace
        for their shape, which then holds it; the prediction (..., B, 1) is
        its `pred`."""
        p = self.params
        ws = self._ws
        if ws is None or ws.shape != Xn.shape:
            ws = self._ws = _Workspace(Xn.shape, p["Uz"].shape[-1])
        if ws is self._window_pass:
            self._window_pass = None
        np.copyto(ws.X, Xn)
        np.matmul(ws.x[:, None], np.stack([p["Wz"], p["Wr"], p["Wh"]]), out=ws.xw)
        ws.Uzr = Uzr = np.stack([p["Uz"], p["Ur"]])
        bzr = np.broadcast_to(np.stack([p["bz"], p["br"]])[..., None, :], ws.pair.shape).copy()
        bh = np.broadcast_to(p["bh"][..., None, :], ws.dh.shape).copy()
        Uh, dh = p["Uh"], ws.dh
        for h, h_new, zr, z, r, c, rh, xzr, _, _, xh in ws.steps:
            np.matmul(h, Uzr, out=zr)  # z and r: x @ W + h @ U + b
            zr += xzr
            zr += bzr
            _sigmoid(zr, ws.mask, ws.pair)
            np.multiply(r, h, out=rh)
            np.matmul(rh, Uh, out=c)  # c: tanh(x @ Wh + (r * h) @ Uh + bh)
            c += xh
            c += bh
            np.tanh(c, out=c)
            np.multiply(z, c, out=h_new)  # h_new: (1 - z) * h + z * c
            np.subtract(1.0, z, out=dh)
            dh *= h
            h_new += dh
        ws.pred = ws.hs[-1] @ p["Wy"] + p["by"][..., None, :]
        return ws

    def _backward(self, ws: _Workspace, target_n: np.ndarray) -> np.ndarray:
        """Flat gradient of the MSE of the pass in ws, backprop through the
        full window; each stream's batch rows make its own mean. The pass is
        spent: its buffers end up holding the backward's values."""
        p = self.params
        H = p["Uz"].shape[-1]
        dpred = 2.0 * (ws.pred - target_n) / ws.pred.shape[-2]
        grad = np.empty(dpred.shape[:-2] + (3 * (H + H * H + H) + H + 1,))
        grad[..., -H - 1:-1] = (ws.hs[-1].swapaxes(-1, -2) @ dpred)[..., 0]
        grad[..., -1:] = dpred.sum(axis=-2)
        dh, dc, drh, pair = ws.dh, ws.dc, ws.drh, ws.pair
        np.matmul(dpred, p["Wy"].swapaxes(-1, -2), out=dh)
        # the factors that depend on forward values only, for every step at once
        np.subtract(1.0, ws.zr, out=ws.xw[:, :2])  # 1 - z, 1 - r
        np.subtract(ws.c, ws.hs[:-1], out=ws.xw[:, 2])  # c - h_prev
        np.multiply(ws.c, ws.c, out=ws.c)
        np.subtract(1.0, ws.c, out=ws.c)  # 1 - c*c
        UhT, UzrT = p["Uh"].swapaxes(-1, -2), ws.Uzr.swapaxes(-1, -2)
        # only dh recurs; each gate's delta overwrites its factor in xw
        for h, _, zr, z, r, fc, _, dzr, omz, _, dc_pre in reversed(ws.steps):
            np.multiply(dh, dc_pre, out=pair[0])  # dz = dh * (c - h_prev)
            np.multiply(dh, z, out=dc)
            np.multiply(dh, omz, out=dh)  # dh_prev = dh * (1 - z)
            np.multiply(dc, fc, out=dc_pre)
            np.matmul(dc_pre, UhT, out=drh)
            np.multiply(drh, h, out=pair[1])  # dr
            drh *= r
            dh += drh
            pair *= zr
            np.multiply(pair, dzr, out=dzr)  # dz_pre, dr_pre
            np.matmul(dzr, UzrT, out=pair)
            dh += pair[1]  # dh_prev + dr_pre @ UrT + dz_pre @ UzT
            dh += pair[0]
        # every step's W, U and b gradients, latest step first, then summed from zero
        # in that order, as a step-by-step backward adds them
        g = np.moveaxis(ws.g[::-1], -2, 1)
        W, U, b = g[..., None, :H], g[..., H:H + H * H], g[..., H + H * H:]
        U = np.reshape(U, U.shape[:-1] + (H, H), copy=False)
        d = ws.xw
        np.matmul(ws.x.swapaxes(-1, -2)[:, None], d, out=W)
        np.matmul(ws.hs[:-1].swapaxes(-1, -2)[:, None], d[:, :2], out=U[:, :2])
        np.matmul(ws.rh.swapaxes(-1, -2), d[:, 2], out=U[:, 2])
        np.sum(d, axis=-2, out=b)
        np.add.reduce(ws.g, axis=0, initial=0.0,
                      out=np.reshape(grad[..., :-H - 1], ws.g.shape[1:], copy=False))
        return grad

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
        """The workspace holding the forward pass over the current window under
        the current params, run on first use."""
        if self._window_pass is None:
            # history holds one report per step: a float, or a list of S for a stack
            window = np.asarray(self.history[-self.window:], dtype=float).T[..., None, :]
            self._window_pass = self._forward(self._normalize(window))
        return self._window_pass

    def _next_value(self):
        pred = self._window_forward().pred[..., 0, 0] * self.sd + self.mu
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
        self._unflatten(_adam(self._flat(self.params), grad, self.adam, self.lr))
        self.history.append(obs.tolist())
        if len(self.history) > self.window:
            self.history = self.history[-self.window:]
        return self._next_value()

    def predict(self, X):
        """Batch next-step predictions for rows of window-length inputs. The
        batch's workspace, which grows with its rows, is not kept."""
        X = self._check_width(np.asarray(X, dtype=float))
        pred = self._forward(self._normalize(X)).pred
        self._ws = None
        return pred[:, 0] * self.sd + self.mu

    # -- persistence -------------------------------------------------------------

    def _state(self):
        arrays = {k: self.params[k] for k in _PARAM_ORDER}
        arrays["history"] = np.asarray(self.history, dtype=float)
        arrays["adam_m"] = self.adam["m"]
        arrays["adam_v"] = self.adam["v"]
        meta = {"mu": self.mu, "sd": self.sd, "window": self.window,
                "adam_t": int(self.adam["t"])}
        return meta, arrays

    @classmethod
    def _restore(cls, spec, meta, arrays):
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

    rng = seeded(spec.seed, 0x6E5)
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
        grad = model._backward(model._forward(Xn), tn)
        model._unflatten(_adam(model._flat(model.params), grad, model.adam, model.lr))
    model._ws = None  # the warm-up's workspace goes; the stream's is window-sized
    return model

