"""Security evaluation for ML components in 5G network infrastructures.

The package models an attacker who controls only her own equipment, knows a
subset of the feature set, cannot observe model outputs, and perturbs recorded
raw data under physical constraints. Around that threat model it provides a
constrained perturbation engine, a packet-to-flow pipeline, self-contained
learners, attack and defense harnesses, six case-study drivers, and a CLI that
turns configs into deterministic reports.
"""

import os

# OpenBLAS fixes its thread count when numpy loads, and some results (the
# network's sums) depend on it: one thread unless the caller chose otherwise.
# This must run before the imports below load numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .threat import (
    AttackOutcome,
    FeatureScope,
    TradeoffReport,
    attack_success,
    degradation,
    tradeoff,
    validate_scope,
)
from .perturb import (
    ConstraintRule,
    DependencyGraph,
    PerturbationSpec,
    ProvenanceLog,
    apply_rsp,
    intensity_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AttackOutcome",
    "ConstraintRule",
    "DependencyGraph",
    "FeatureScope",
    "PerturbationSpec",
    "ProvenanceLog",
    "TradeoffReport",
    "apply_rsp",
    "attack_success",
    "degradation",
    "intensity_schedule",
    "tradeoff",
    "validate_scope",
]
