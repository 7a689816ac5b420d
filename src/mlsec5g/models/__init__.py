"""Self-contained learners: forest, feedforward network, online recurrent."""

from __future__ import annotations

from .base import ModelSpec, load_model, save_model
from .forest import distill_forest, train_forest
from .network import FeedforwardModel, train_network
from .recurrent import OnlineRecurrentModel, init_online


__all__ = [
    "FeedforwardModel",
    "ModelSpec",
    "OnlineRecurrentModel",
    "distill_forest",
    "init_online",
    "load_model",
    "save_model",
    "train_forest",
    "train_network",
]
