"""Defense harness: adversarial training, feature removal, evaluation.

A defense is only worth deploying if its cost on clean traffic is known.
evaluate_defense therefore always produces two things: the clean-data
tradeoff (baseline performance over hardened performance, both on the
untouched validation split) and the hardened model's residual degradation
under the same attack sweep the baseline faced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attacks import DegradationCurve, resolve_metric, run_inference_attack
from .perturb import PerturbationSpec, apply_rsp
from .repro import derive_seed, seeded
from .threat import TradeoffReport, tradeoff


def project_columns(X: np.ndarray, full_schema: Sequence[str],
                    target_schema: Sequence[str]) -> np.ndarray:
    """Select the columns of target_schema out of a full-schema matrix."""
    index = {name: i for i, name in enumerate(full_schema)}
    missing = [n for n in target_schema if n not in index]
    if missing:
        raise ValueError(f"schema projection missing columns {missing}")
    cols = [index[n] for n in target_schema]
    return np.asarray(X, dtype=float)[:, cols]


def adversarial_training(trainer: Callable, records: Sequence[dict], y,
                         rsp_specs: Sequence[PerturbationSpec], featurize: Callable,
                         schema: Sequence[str], seed: int,
                         aug_fraction: float = 0.05):
    """Retrain on T plus perturbed variants of a small slice of T.

    A fraction aug_fraction of the training records is perturbed under every
    given spec at every intensity level; each surviving variant keeps its
    original target. Specs with an empty intensity schedule contribute
    nothing, so an empty or all-empty spec list degenerates to a plain
    baseline retrain under the same seed. trainer(X, y, schema, seed) -> model.
    """
    if isinstance(aug_fraction, bool) or not 0.0 < aug_fraction <= 1.0:
        raise ValueError(f"aug_fraction must be in (0, 1], got {aug_fraction}")
    records = list(records)
    y = np.asarray(y)
    if len(records) != y.shape[0]:
        raise ValueError("records and targets are not aligned")

    n = len(records)
    k = math.ceil(aug_fraction * n)
    aug_idx = np.sort(seeded(seed, 0xA06).choice(n, size=k, replace=False))
    subset = [records[i] for i in aug_idx]
    y_subset = y[aug_idx]

    X_parts = [featurize(records)]
    y_parts = [y]
    for spec in rsp_specs:
        for level in range(len(spec.intensity_levels)):
            variants, log = apply_rsp(subset, spec, level,
                                      derive_seed(seed, "aug", spec.name, level))
            rejected = {e.record_index for e in log.entries if e.verdict == "rejected"}
            keep = np.array([i for i in range(len(subset)) if i not in rejected], dtype=int)
            if keep.size == 0:
                continue
            X_parts.append(featurize(variants))
            y_parts.append(y_subset[keep])
    X_full = np.vstack(X_parts)
    y_full = np.concatenate(y_parts)
    return trainer(X_full, y_full, schema, seed)


def feature_removal(trainer: Callable, X, y, schema: Sequence[str],
                    removed: Sequence[str], seed: int):
    """Retrain without the removed features; the model's schema shrinks.

    Removing everything is refused: a model needs at least one feature.
    Unknown names are an error (silent typos would fake protection).
    """
    schema = tuple(schema)
    removed = tuple(removed)
    unknown = [r for r in removed if r not in schema]
    if unknown:
        raise ValueError(f"cannot remove unknown features {unknown}")
    reduced = tuple(n for n in schema if n not in set(removed))
    if not reduced:
        raise ValueError("feature removal must leave at least one feature")
    X_red = project_columns(np.asarray(X, dtype=float), schema, reduced)
    return trainer(X_red, np.asarray(y), reduced, seed)


@dataclass(frozen=True)
class DefenseEvaluation:
    """Clean-data cost plus residual damage of one hardened model."""

    defense: str
    tradeoff: TradeoffReport
    residual: DegradationCurve


def evaluate_defense(baseline_model, hardened_model, V, adversarial_sets,
                     metric_name: str, metric_fn: Callable | None = None,
                     defense: str = "defense") -> DefenseEvaluation:
    """Score a hardened model against its baseline.

    V is (X, y, schema) with X in the full schema; both models see only the
    columns they were trained on, so feature-removal models evaluate through
    projection. The tradeoff is computed on clean V only; the residual curve
    re-runs the adversarial sweep against the hardened model, and its
    baseline, the hardened model's one clean score, is the tradeoff's
    p_hardened. When the hardened model's schema contains none of an attack's
    affected columns, projected adversarial rows equal projected clean rows
    and the residual degradation is exactly zero. adversarial_sets takes what
    run_inference_attack takes, generators included; each variant is
    projected as the sweep reaches it.
    """
    X, y, schema = V
    fn = resolve_metric(metric_name, metric_fn)
    Xb = project_columns(X, schema, baseline_model.schema)
    p_base = float(fn(y, baseline_model.predict(Xb)))

    def project(v):
        return project_columns(v, schema, hardened_model.schema)

    projected = ((x, project(variants) if isinstance(variants, np.ndarray)
                  else map(project, variants))
                 for x, variants in adversarial_sets)
    residual = run_inference_attack(
        hardened_model, (project(X), y), projected, metric_name, metric_fn=fn,
        name=f"residual[{defense}]").aggregate
    return DefenseEvaluation(defense, tradeoff(p_base, residual.baseline, metric_name),
                             residual)
