"""The presorted forest grower and the stacked predict match the reference
per-node-argsort grower and per-tree predict bit for bit."""

import numpy as np
import pytest
from forest_oracle import reference_forest, reference_predict, reference_predict_proba

from mlsec5g.models import ModelSpec, distill_forest, load_model, save_model, train_forest
from mlsec5g.models import forest


def _data(task, n=240, seed=0, n_classes=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 7))
    X[:, 1] = np.round(X[:, 1])             # a few distinct values: heavy ties
    X[:, 2] = rng.integers(0, 3, n) * 0.5   # three values
    X[:, 4] = 1.25                          # constant column
    X[:, 5] = np.round(X[:, 5] * 4) / 4
    score = X[:, 0] + X[:, 1] - 0.7 * X[:, 2] + 0.3 * rng.standard_normal(n)
    if task == "regress":
        return X, score
    edges = np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1])
    return X, np.array([f"k{c}" for c in np.searchsorted(edges, score)])


def _weights(kind, n, seed=1):
    if kind == "none":
        return None
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 3.0, n)
    if kind == "zeros":
        w[rng.random(n) < 0.3] = 0.0
    return w


def assert_matches_reference(model, X, y, sample_weight=None):
    trees, importance, classes = reference_forest(model.spec, X, y, sample_weight)
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
    assert model._importance_raw.tobytes() == importance.tobytes()
    rng = np.random.default_rng(9)
    probe = np.vstack([X, X[:40] + 0.3 * rng.standard_normal((40, X.shape[1]))])
    if model.task == "classify":
        want = reference_predict_proba(trees, classes.size, probe)
        assert model.predict_proba(probe).tobytes() == want.tobytes()
        assert np.array_equal(model.predict(probe), classes[np.argmax(want, axis=1)])
    else:
        assert model.predict(probe).tobytes() == reference_predict(trees, probe).tobytes()


HYPERPARAMETERS = [
    {},
    {"max_features": "all", "min_samples_split": 8},
    {"min_samples_leaf": 3},
    {"bootstrap": False, "max_depth": 6},
]


@pytest.mark.parametrize("task", ["regress", "classify"])
@pytest.mark.parametrize("hp", HYPERPARAMETERS, ids=lambda hp: ",".join(hp) or "default")
@pytest.mark.parametrize("weights", ["none", "uniform", "zeros"])
def test_forest_matches_reference(task, hp, weights):
    X, y = _data(task)
    w = _weights(weights, X.shape[0])
    spec = ModelSpec("forest", task, {"n_trees": 3, **hp}, seed=4)
    assert_matches_reference(train_forest(spec, X, y, sample_weight=w), X, y, w)


@pytest.mark.parametrize("n_classes", [2, 9])
def test_classes_beyond_the_unrolled_sum_match_reference(n_classes):
    X, y = _data("classify", n=300, seed=2, n_classes=n_classes)
    spec = ModelSpec("forest", "classify", {"n_trees": 3, "max_features": "all"}, seed=1)
    assert_matches_reference(train_forest(spec, X, y), X, y)


def test_distilled_student_matches_reference():
    X, y = _data("classify", n=150, seed=3)
    teacher = train_forest(ModelSpec("forest", "classify", {"n_trees": 4}, seed=0), X, y)
    student = distill_forest(teacher, X, seed=5)
    # rebuild the student's training set the way distill_forest expands it
    proba = teacher.predict_proba(X)
    K = len(teacher.classes_)
    we = proba.ravel()
    keep = we > 1e-9
    Xe = np.repeat(X, K, axis=0)[keep]
    ye = np.tile(teacher.classes_, X.shape[0])[keep]
    assert_matches_reference(student, Xe, ye, we[keep])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("target", ["nan", "overflowing"])
def test_non_finite_values_match_reference(target):
    X, y = _data("regress", n=120)
    X[::7, 0] = np.nan  # NaN sorts last and is never a cut
    y[5] = np.nan if target == "nan" else 1e155  # scores turn NaN; such candidates lose
    spec = ModelSpec("forest", "regress", {"n_trees": 4, "max_depth": 6}, seed=1)
    assert_matches_reference(train_forest(spec, X, y), X, y)


@pytest.mark.parametrize("task", ["regress", "classify"])
def test_small_work_blocks_match_reference(task, monkeypatch):
    # split search and routing in many small blocks instead of one pass
    monkeypatch.setattr(forest, "_SPLIT_BLOCK", 64)
    monkeypatch.setattr(forest, "_ROUTE_BLOCK", 64)
    X, y = _data(task)
    spec = ModelSpec("forest", task, {"n_trees": 3, "max_features": "all"}, seed=3)
    assert_matches_reference(train_forest(spec, X, y), X, y)


def test_saved_forest_predicts_like_reference(tmp_path):
    X, y = _data("regress", seed=6)
    model = train_forest(ModelSpec("forest", "regress", {"n_trees": 3}, seed=2), X, y)
    path = str(tmp_path / "forest.npz")
    save_model(model, path)
    assert_matches_reference(load_model(path), X, y)


def test_empty_batch_predicts_empty():
    X, y = _data("classify")
    model = train_forest(ModelSpec("forest", "classify", {"n_trees": 2}, seed=0), X, y)
    assert model.predict_proba(X[:0]).shape == (0, 3)
    assert model.predict(X[:0]).shape == (0,)
