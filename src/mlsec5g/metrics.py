"""Performance metrics shared by the harnesses.

Orientation matters when turning metric deltas into damage: accuracy-like
metrics hurt when they drop, error-like metrics hurt when they rise. The
ORIENTATION table is the single source of truth for that sign.
"""

from __future__ import annotations

import numpy as np

# metric name -> "higher_better" | "lower_better"
ORIENTATION = {
    "Acc": "higher_better",
    "F1": "higher_better",
    "RMSE": "lower_better",
    "CRMSE": "lower_better",
    "SE": "higher_better",
}


def _orientation(metric_name: str) -> str:
    """metric_name's ORIENTATION entry; an unknown name is a ValueError."""
    if metric_name not in ORIENTATION:
        raise ValueError(f"unknown metric_name {metric_name!r}; expected one of {tuple(ORIENTATION)}")
    return ORIENTATION[metric_name]


CQI_MIN = 0
CQI_MAX = 15


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("accuracy: shape mismatch %s vs %s" % (y_true.shape, y_pred.shape))
    if y_true.size == 0:
        raise ValueError("accuracy: empty input")
    return float(np.mean(y_true == y_pred))


def f1_score(y_true, y_pred, positive) -> float:
    """F1 of the positive class; 0.0 when the class never appears on either side."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("f1_score: shape mismatch")
    tp = float(np.sum((y_true == positive) & (y_pred == positive)))
    fp = float(np.sum((y_true != positive) & (y_pred == positive)))
    fn = float(np.sum((y_true == positive) & (y_pred != positive)))
    denom = 2.0 * tp + fp + fn
    if denom == 0.0:
        return 0.0
    return 2.0 * tp / denom


def rmse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("rmse: shape mismatch")
    if y_true.size == 0:
        raise ValueError("rmse: empty input")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def crmse(y_true, y_pred) -> np.ndarray:
    """Cumulative RMSE series: crmse[t] = rmse over steps 0..t inclusive."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("crmse: shape mismatch")
    if y_true.ndim != 1 or y_true.size == 0:
        raise ValueError("crmse: need a non-empty 1-d series")
    se = (y_true - y_pred) ** 2
    counts = np.arange(1, se.size + 1, dtype=float)
    return np.sqrt(np.cumsum(se) / counts)


def round_cqi(values) -> np.ndarray:
    """Round predicted channel quality to the nearest integer in [0, 15]."""
    v = np.rint(np.asarray(values, dtype=float))
    return np.clip(v, CQI_MIN, CQI_MAX).astype(int)


def cqi_accuracy(y_true, y_pred) -> float:
    """Accuracy of regression output after rounding into the CQI domain."""
    return accuracy(np.asarray(y_true, dtype=int), round_cqi(y_pred))
