"""Model contracts: specs, the trained-model surface, save/load.

All learners are self-contained numpy implementations so that training and
prediction are bit-for-bit reproducible under a fixed seed on any platform:
no thread pools, no BLAS-order ambiguity in the hot paths, no hidden global
state. That guarantee is what lets zero-intensity controls be compared with
== instead of tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..repro import _jsonable, canonical_json, fingerprint_arrays

KINDS = ("forest", "feedforward", "recurrent")
TASKS = ("classify", "regress", "vector_regress")

_VALID = {
    "forest": ("classify", "regress"),
    "feedforward": ("classify", "regress", "vector_regress"),
    "recurrent": ("regress",),
}

# the hyperparameters each kind reads; a spec refuses any other name
_HYPERPARAMETERS = {
    "forest": ("n_trees", "max_depth", "min_samples_split", "min_samples_leaf",
               "bootstrap", "max_features"),
    "feedforward": ("hidden", "epochs", "lr"),
    "recurrent": ("window", "hidden_size", "epochs", "lr"),
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
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.task not in _VALID[self.kind]:
            raise ValueError(f"kind {self.kind!r} does not support task {self.task!r}")
        hp = self.hyperparameters
        unknown = sorted(set(hp) - set(_HYPERPARAMETERS[self.kind]))
        errors = [f"kind {self.kind!r} does not read hyperparameters {unknown}"] if unknown else []
        errors += [f"hyperparameter {key} must be >= 1, got {hp[key]}"
                   for key in ("n_trees", "epochs", "hidden_size", "window")
                   if key in hp and int(hp[key]) < 1]
        if any(int(h) < 1 for h in hp.get("hidden", ())):
            errors.append(f"hyperparameter hidden widths must be >= 1, got {hp['hidden']}")
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


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function: 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z))
    below, both from one exp(-|z|), which cannot overflow. Since that lies in
    [0, 1], the numerator is max(exp(-|z|), z >= 0); a NaN passes through."""
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def default_schema(width: int) -> tuple[str, ...]:
    return tuple(f"f{i}" for i in range(width))


def save_model(model, path: str) -> None:
    """Persist a model as a self-describing npz (meta JSON + arrays)."""
    meta, arrays = model.to_state()
    meta = dict(meta)
    meta["format"] = "mlsec5g-model-v1"
    meta["kind"] = model.kind
    payload = {f"arr_{k}": np.asarray(v) for k, v in arrays.items()}
    payload["meta_json"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                                         dtype=np.uint8)
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
    cls = {"forest": ForestModel, "feedforward": FeedforwardModel,
           "recurrent": OnlineRecurrentModel}.get(kind)
    if cls is None:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    return cls.from_state(meta, arrays)
