"""Model contracts: specs checked against config's hyperparameter table, the
trained-model surface and its container, save/load, and the Adam step.

All learners are self-contained numpy implementations, bit-for-bit
reproducible under a fixed seed. Forest trees, cs3's profiles and cs1's
poisoning cells run in forked workers gathered in item order, and a large
network fit (cs5's) runs the second of its two fixed row halves in one forked
helper, with the same calls as in one process. So zero-intensity controls
compare with == instead of tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..config import _ROWS
from ..repro import _jsonable, canonical_json, fingerprint_arrays

TASKS = ("classify", "regress", "vector_regress")

_VALID = {
    "forest": ("classify", "regress"),
    "feedforward": ("classify", "regress", "vector_regress"),
    "recurrent": ("regress",),
}


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to train a model, seed included."""

    kind: str
    task: str
    hyperparameters: Mapping = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))
        if self.kind not in _ROWS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {tuple(_ROWS)}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.task not in _VALID[self.kind]:
            raise ValueError(f"kind {self.kind!r} does not support task {self.task!r}")
        rows = _ROWS[self.kind]
        unknown = sorted(set(self.hyperparameters) - set(rows))
        errors = [f"kind {self.kind!r} does not read hyperparameters {unknown}"] if unknown else []
        errors += [f"hyperparameter {key} must be {rows[key][1]}, got {value!r}"
                   for key, value in self.hyperparameters.items()
                   if key in rows and not rows[key][0](value)]
        if errors:
            raise ValueError("; ".join(errors))

    def fingerprint_with(self, X: np.ndarray, y: np.ndarray) -> str:
        meta = canonical_json({
            "kind": self.kind,
            "task": self.task,
            "hyperparameters": {k: _jsonable(v) for k, v in sorted(self.hyperparameters.items())},
            "seed": int(self.seed),
        })
        return fingerprint_arrays(np.asarray(X), np.asarray(y), extra=meta)


class TrainedModel:
    """Common surface of every trained model.

    schema: ordered feature identifiers the model was trained on; predict
    refuses inputs of the wrong width so schema drift fails loudly.
    """

    kind: str = "?"

    def __init__(self, spec: ModelSpec, schema: Sequence[str], fingerprint: str):
        self.spec = spec
        self.task = spec.task
        self.schema = tuple(schema)
        self.fingerprint = fingerprint

    def _check_width(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {X.shape}")
        if X.shape[1] != len(self.schema):
            raise ValueError(
                f"input width {X.shape[1]} does not match model schema of {len(self.schema)} features")
        return X

    def predict(self, X):  # pragma: no cover - abstract
        raise NotImplementedError

    def to_state(self) -> tuple[dict, dict]:
        """(meta, arrays): the header every kind writes, then the kind's own (`_state`)."""
        meta, arrays = self._state()
        return {"kind": self.kind, "task": self.task, "schema": list(self.schema),
                "fingerprint": self.fingerprint, "seed": int(self.spec.seed),
                "hyperparameters": {k: _jsonable(v) for k, v in self.spec.hyperparameters.items()},
                **meta}, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: dict):
        """The model to_state wrote: the spec from the header, the rest by `_restore`."""
        spec = ModelSpec(cls.kind, meta["task"], meta["hyperparameters"], meta["seed"])
        return cls._restore(spec, meta, arrays)


def _adam(theta: np.ndarray, grad: np.ndarray, state: dict, lr: float) -> np.ndarray:
    """theta after one Adam step on grad; advances state's t, m and v."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    state["m"] = beta1 * state["m"] + (1 - beta1) * grad
    state["v"] = beta2 * state["v"] + (1 - beta2) * grad * grad
    mhat = state["m"] / (1 - beta1 ** state["t"])
    vhat = state["v"] / (1 - beta2 ** state["t"])
    return theta - lr * mhat / (np.sqrt(vhat) + eps)


def default_schema(width: int) -> tuple[str, ...]:
    return tuple(f"f{i}" for i in range(width))


def save_model(model, path: str) -> None:
    """Persist a model as a self-describing npz (meta JSON + arrays)."""
    meta, arrays = model.to_state()
    meta = json.dumps({**meta, "format": "mlsec5g-model-v1"}, sort_keys=True)
    payload = {f"arr_{k}": np.asarray(v) for k, v in arrays.items()}
    payload["meta_json"] = np.frombuffer(meta.encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_model(path: str):
    from .forest import ForestModel
    from .network import FeedforwardModel
    from .recurrent import OnlineRecurrentModel

    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta_json"].tobytes()).decode("utf-8"))
        arrays = {k[4:]: data[k] for k in data.files if k.startswith("arr_")}
    if meta.get("format") != "mlsec5g-model-v1":
        raise ValueError(f"{path}: not a recognized model container")
    kind = meta["kind"]
    cls = {c.kind: c for c in (ForestModel, FeedforwardModel, OnlineRecurrentModel)}.get(kind)
    if cls is None:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    return cls.from_state(meta, arrays)
