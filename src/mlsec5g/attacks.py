"""Attack harness: inference-time, training-time and online attack drivers.

Every driver compares a clean twin with an adversarial twin built from the
same recorded data, so measured damage is attributable to the perturbation
alone. Repeated trials derive their seeds from (master seed, trial index);
reported spreads are population standard deviations over trial means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import metrics as M
from .forkmap import fork_map
from .models.recurrent import OnlineRecurrentModel
from .repro import derive_seed
from .threat import degradation

METRIC_REGISTRY: dict[str, Callable] = {
    "Acc": M.accuracy,
    "RMSE": M.rmse,
}


def resolve_metric(metric_name: str, metric_fn: Callable | None = None,
                   orientation: str | None = None):
    """Return (fn, orientation) for a metric name, with overrides allowed."""
    fn = metric_fn if metric_fn is not None else METRIC_REGISTRY.get(metric_name)
    if fn is None:
        raise ValueError(f"no metric function registered for {metric_name!r}; pass metric_fn")
    orient = orientation if orientation is not None else M.ORIENTATION.get(metric_name)
    if orient is None:
        raise ValueError(f"unknown orientation for metric {metric_name!r}")
    return fn, orient


@dataclass(frozen=True)
class CurvePoint:
    """One sweep point: per-trial metric values plus their summary."""

    x: float
    metric_mean: float
    metric_std: float
    degradation_mean: float
    degradation_std: float
    n_trials: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class DegradationCurve:
    """Damage along one intensity axis, relative to a clean baseline."""

    name: str
    metric_name: str
    orientation: str
    x_label: str
    baseline: float
    points: tuple[CurvePoint, ...]


def summarize_curve(name, metric_name, orientation, x_label, baseline,
                    raw_points) -> DegradationCurve:
    """raw_points: sequence of (x, [per-trial metric values]).

    baseline is one clean metric value, or one per trial, each measured
    against that trial's values; the curve's baseline is their mean.
    """
    pts = []
    for x, values in raw_points:
        values = tuple(float(v) for v in values)
        bases = np.broadcast_to(np.asarray(baseline, dtype=float), len(values))
        degs = tuple(degradation(b, v, orientation) for b, v in zip(bases, values))
        pts.append(CurvePoint(
            x=float(x),
            metric_mean=float(np.mean(values)),
            metric_std=float(np.std(values)),
            degradation_mean=float(np.mean(degs)),
            degradation_std=float(np.std(degs)),
            n_trials=len(values),
            values=values,
        ))
    return DegradationCurve(name, metric_name, orientation, x_label,
                            float(np.mean(baseline)), tuple(pts))


@dataclass(frozen=True)
class InferenceAttackResult:
    aggregate: DegradationCurve
    per_group: Mapping[object, DegradationCurve] = field(default_factory=dict)


def run_inference_attack(model, clean_eval, adversarial_sets, metric_name: str,
                         metric_fn: Callable | None = None,
                         orientation: str | None = None,
                         group_by=None, name: str = "inference",
                         x_label: str = "intensity") -> InferenceAttackResult:
    """Evaluate a trained model on clean rows and their perturbed twins.

    clean_eval is (X, y); adversarial_sets yields (x, variants) per sweep
    value, where variants is one row-aligned perturbed version of X (a
    matrix) or any iterable of them (several when the perturbation is itself
    random and was re-drawn per trial). Both may be generators: variants are
    drawn one at a time, checked, predicted and dropped, and only their
    predictions are kept, so a streamed sweep holds one perturbed copy at a
    time. Degradation is signed so positive always means the attacker hurt
    the defender. group_by, when given, holds one group id per row and yields
    additional per-group curves.
    """
    X, y = clean_eval
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError("clean rows and targets are not aligned")
    fn, orient = resolve_metric(metric_name, metric_fn, orientation)
    if group_by is not None:
        group_by = np.asarray(group_by)
        if group_by.shape[0] != X.shape[0]:
            raise ValueError("group_by is not aligned with the rows")

    pred_clean = model.predict(X)
    sweep: list[tuple[float, list[np.ndarray]]] = []  # (x, one prediction per variant)
    for x, variants in adversarial_sets:
        x = float(x)
        if isinstance(variants, np.ndarray):
            variants = (variants,)
        predictions = []
        for v in variants:
            v = np.asarray(v, dtype=float)
            if v.shape != X.shape:
                raise ValueError(
                    f"adversarial set at x={x} is not row-aligned with the clean twin "
                    f"({v.shape} vs {X.shape})")
            predictions.append(model.predict(v))
        if not predictions:
            raise ValueError(f"sweep point {x!r} has no adversarial variants")
        sweep.append((x, predictions))

    def curve_for(rows: np.ndarray, label: str) -> DegradationCurve:
        base = float(fn(y[rows], pred_clean[rows]))
        raw = [(x, [float(fn(y[rows], p[rows])) for p in predictions])
               for x, predictions in sweep]
        return summarize_curve(label, metric_name, orient, x_label, base, raw)

    aggregate = curve_for(np.arange(X.shape[0]), name)
    per_group: dict[object, DegradationCurve] = {}
    if group_by is not None:
        for g in sorted(set(group_by.tolist())):
            rows = np.nonzero(group_by == g)[0]
            per_group[g] = curve_for(rows, f"{name}[{g}]")
    return InferenceAttackResult(aggregate, per_group)


def run_training_attack(trainer: Callable, T, V, ratios: Sequence[float],
                        adversarial_flows, trials: int, seed: int,
                        poison_fn: Callable, evaluator: Callable,
                        metric_name: str, orientation: str | None = None,
                        name: str = "training") -> DegradationCurve:
    """Poison a growing share of the attacker's training flows and retrain.

    trainer(T_poisoned, seed) -> model; poison_fn(T, adversarial_flows, ratio,
    seed) -> T_poisoned; evaluator(model, V) -> metric value on the untouched
    validation split. A ratio-0 control is always included; under a fixed
    master seed its model is the trial's baseline model, bit for bit, because
    the trainer seed depends only on the trial index. Each trial's damage is
    measured against its own ratio-0 value, so the control's degradation is
    exactly zero; the curve's baseline is the mean of those values.

    Each (trial, ratio) cell depends only on its own derived seeds, so the
    cells run through `fork_map`, in forked workers where there are CPUs to
    spare, and are gathered in cell order: the same bits for any worker count.
    """
    orient = orientation if orientation is not None else M.ORIENTATION.get(metric_name)
    if orient is None:
        raise ValueError(f"unknown orientation for metric {metric_name!r}")
    ratios = sorted(set(float(r) for r in ratios) | {0.0})
    for r in ratios:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"poison ratio {r} outside [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def cell(tj):
        t, j = tj
        poisoned = T if ratios[j] == 0.0 else poison_fn(
            T, adversarial_flows, ratios[j], derive_seed(seed, "poison", t, j))
        return float(evaluator(trainer(poisoned, derive_seed(seed, "train", t)), V))

    cells = [(t, j) for t in range(trials) for j in range(len(ratios))]
    values: list[list[float]] = [[] for _ in ratios]
    for (_, j), value in zip(cells, fork_map(cell, cells)):
        values[j].append(value)
    # ratios[0] is the 0.0 control, the baseline of its own trial
    return summarize_curve(name, metric_name, orient, "poison_ratio", values[0],
                           list(zip(ratios, values)))


# ---------------------------------------------------------------------------
# online attacks

SPOOF_MODES = ("floor_zero", "jitter")
JITTER_MAX_OFFSET = 3
CQI_RANGE = (0, 15)


def spoof_value(mode: str, true_value: float, step_index: int, seed: int) -> float:
    """The value the attacker reports instead of the truth at one spoof slot."""
    if mode == "floor_zero":
        return 0.0
    if mode == "jitter":
        rng = np.random.default_rng([int(seed) & 0x7FFFFFFFFFFFFFFF, step_index])
        magnitude = int(rng.integers(1, JITTER_MAX_OFFSET + 1))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        lo, hi = CQI_RANGE
        return float(min(hi, max(lo, true_value + sign * magnitude)))
    raise ValueError(f"unknown spoof mode {mode!r}; expected one of {SPOOF_MODES}")


@dataclass(frozen=True)
class OnlineAttackResult:
    """Differential damage of spoofed reports on an online predictor.

    Both CRMSE series measure predictions against the TRUE series; the
    attacked twin differs only in what it was told, never in what the world
    did. differential = crmse_attacked - crmse_clean, so positive means the
    spoofing degraded tracking.
    """

    t: np.ndarray
    true_series: np.ndarray
    pred_clean: np.ndarray
    pred_attacked: np.ndarray
    crmse_clean: np.ndarray
    crmse_attacked: np.ndarray
    differential: np.ndarray
    spoof_steps: tuple[int, ...]
    spoof_mode: str | None


def run_online_attack(model_factory: Callable[[], OnlineRecurrentModel], true_series,
                      spoof_mode: str | None, period_s: float = 60.0,
                      dt: float = 1.0, seed: int = 0) -> OnlineAttackResult:
    """Drive twin online models through one operational phase.

    model_factory() must return a freshly initialized online model and is
    called once per twin; determinism of the factory is what makes the twins
    identical. Every period_s seconds (steps i with i % period == 0) the
    attacked twin receives a spoofed report instead of the truth. spoof_mode
    None runs a no-spoof control whose differential is exactly zero.
    """
    return run_online_attacks(model_factory, true_series, [spoof_mode],
                              period_s=period_s, dt=dt, seeds=[seed])[0]


def run_online_attacks(model_factory: Callable[[], OnlineRecurrentModel], true_series,
                       spoof_modes: Sequence[str | None], *, period_s: float = 60.0,
                       dt: float = 1.0, seeds: Sequence[int]) -> list[OnlineAttackResult]:
    """run_online_attack for several spoof modes against one shared clean twin.

    One clean model, and one attacked twin per entry of spoof_modes, step in
    lockstep; entry j's jitter draws from seeds[j]. A None entry is the
    no-spoof control: its twin is a fresh factory replica fed the truth,
    never the clean model itself, so its zero differential still tests that
    the factory is deterministic. Every stream depends only on the factory
    and its own reports, so each result equals that of a separate
    run_online_attack call.

    The streams step as one stack (`OnlineRecurrentModel._stack`), which
    needs the replicas to agree on window, hidden size, normalization,
    online learning rate and Adam step count; a ValueError lists every one
    they differ on. At the end each factory-made model holds its own
    stream's params, Adam state and history.
    """
    series = np.asarray(true_series, dtype=float)
    if series.ndim != 1 or series.size == 0:
        raise ValueError("true_series must be a non-empty 1-d array")
    if period_s <= 0 or dt <= 0:
        raise ValueError("period_s and dt must be positive")
    period_steps = int(round(period_s / dt))
    if period_steps < 1:
        raise ValueError("spoof period is shorter than one step")
    if series.size < period_steps:
        raise ValueError(
            f"horizon of {series.size} steps is shorter than one spoof period ({period_steps})")
    for mode in spoof_modes:
        if mode is not None and mode not in SPOOF_MODES:
            raise ValueError(f"unknown spoof mode {mode!r}")
    if len(seeds) != len(spoof_modes):
        raise ValueError(f"{len(seeds)} seeds for {len(spoof_modes)} spoof modes")

    models = [model_factory() for _ in range(1 + len(spoof_modes))]
    stack = OnlineRecurrentModel._stack(models)
    H = series.size
    preds = np.empty((len(models), H))
    reported = np.empty(len(models))
    for i in range(H):
        preds[:, i] = stack.predict_next()
        reported[:] = series[i]
        if i % period_steps == 0:
            for j, (mode, seed) in enumerate(zip(spoof_modes, seeds), start=1):
                if mode is not None:
                    reported[j] = spoof_value(mode, float(series[i]), i, seed)
        stack.step(reported)
    stack._unstack(models)
    pred_clean, pred_attacked = preds[0], preds[1:]

    slots = tuple(range(0, H, period_steps))
    t = np.arange(1, H + 1, dtype=float) * dt
    crmse_clean = M.crmse(series, pred_clean)
    results = []
    for j, mode in enumerate(spoof_modes):
        crmse_attacked = M.crmse(series, pred_attacked[j])
        results.append(OnlineAttackResult(
            t=t.copy(),
            true_series=series,
            pred_clean=pred_clean.copy(),
            pred_attacked=pred_attacked[j],
            crmse_clean=crmse_clean.copy(),
            crmse_attacked=crmse_attacked,
            differential=crmse_attacked - crmse_clean,
            spoof_steps=() if mode is None else slots,
            spoof_mode=mode,
        ))
    return results


def spoof_positions(topology, attacker_ids: Sequence[int], step_count: int = 8,
                    max_offset: float = 300.0) -> list[np.ndarray]:
    """Position sets for a radial lie: step s moves attackers s/N * max_offset
    away from their serving base station, clamped to the serving cell's edge.

    Step 0 is the identity (true positions). Non-attacker rows are bit-equal
    to the true positions at every step. Attackers exactly on top of their
    base station have no defined direction and are an error.
    """
    if step_count < 1:
        raise ValueError("step_count must be >= 1")
    if max_offset < 0:
        raise ValueError("max_offset must be non-negative")
    positions = np.asarray(topology.ue_positions, dtype=float)
    n = positions.shape[0]
    for a in attacker_ids:
        if not 0 <= a < n:
            raise ValueError(f"attacker id {a} outside the UE population")
    out = []
    for s in range(step_count + 1):
        offset = (s / step_count) * max_offset
        pos = positions.copy()
        for a in attacker_ids:
            gnb = topology.gnb_positions[topology.serving[a]]
            d = positions[a] - gnb
            norm = float(np.hypot(d[0], d[1]))
            if norm == 0.0:
                raise ValueError(f"attacker {a} sits exactly on its base station")
            if offset > 0.0:
                moved = positions[a] + offset * d / norm
                xmin, ymin, xmax, ymax = topology.cell_bounds[topology.serving[a]]
                pos[a] = (min(max(moved[0], xmin), xmax), min(max(moved[1], ymin), ymax))
        out.append(pos)
    return out
