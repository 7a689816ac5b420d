"""Self-contained learners: forest, feedforward network, online recurrent."""

from __future__ import annotations

from .base import KINDS, TASKS, ModelSpec, TrainedModel, default_schema, load_model, save_model
from .forest import FeatureImportance, ForestModel, distill_forest, train_forest
from .network import FeedforwardModel, train_network
from .recurrent import OnlineRecurrentModel, init_online


def train(spec: ModelSpec, X, y, schema=None, sample_weight=None) -> TrainedModel:
    """Train a batch model per spec. Online models start via init_online."""
    if spec.kind == "forest":
        return train_forest(spec, X, y, schema=schema, sample_weight=sample_weight)
    if spec.kind == "feedforward":
        if sample_weight is not None:
            raise ValueError("sample weights are a forest facility")
        return train_network(spec, X, y, schema=schema)
    raise ValueError(f"kind {spec.kind!r} has no batch trainer; use init_online")


__all__ = [
    "KINDS",
    "TASKS",
    "FeatureImportance",
    "FeedforwardModel",
    "ForestModel",
    "ModelSpec",
    "OnlineRecurrentModel",
    "TrainedModel",
    "default_schema",
    "distill_forest",
    "init_online",
    "load_model",
    "save_model",
    "train",
    "train_forest",
    "train_network",
]
