"""The presorted forest grower and the stacked predict match the reference
per-node-argsort grower and per-tree predict bit for bit, with trees grown in
the calling process or in forked workers.

A test case takes `n_trees` as a defaulted argument, which pytest leaves
alone, so the forked test can run every case again with more trees.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from forest_oracle import reference_forest, reference_predict, reference_predict_proba

from mlsec5g import forkmap
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


TASKS = ["regress", "classify"]
WEIGHTS = ["none", "uniform", "zeros"]


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("hp", HYPERPARAMETERS, ids=lambda hp: ",".join(hp) or "default")
@pytest.mark.parametrize("weights", WEIGHTS)
def test_forest_matches_reference(task, hp, weights, n_trees=3):
    X, y = _data(task)
    w = _weights(weights, X.shape[0])
    spec = ModelSpec("forest", task, {"n_trees": n_trees, **hp}, seed=4)
    assert_matches_reference(train_forest(spec, X, y, sample_weight=w), X, y, w)


@pytest.mark.parametrize("n_classes", [2, 9])
def test_classes_beyond_the_unrolled_sum_match_reference(n_classes, n_trees=3):
    X, y = _data("classify", n=300, seed=2, n_classes=n_classes)
    spec = ModelSpec("forest", "classify", {"n_trees": n_trees, "max_features": "all"}, seed=1)
    assert_matches_reference(train_forest(spec, X, y), X, y)


def test_distilled_student_matches_reference(n_trees=4):
    X, y = _data("classify", n=150, seed=3)
    teacher = train_forest(ModelSpec("forest", "classify", {"n_trees": n_trees}, seed=0), X, y)
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
def test_non_finite_values_match_reference(target, n_trees=4):
    X, y = _data("regress", n=120)
    X[::7, 0] = np.nan  # NaN sorts last and is never a cut
    y[5] = np.nan if target == "nan" else 1e155  # scores turn NaN; such candidates lose
    spec = ModelSpec("forest", "regress", {"n_trees": n_trees, "max_depth": 6}, seed=1)
    assert_matches_reference(train_forest(spec, X, y), X, y)


@pytest.mark.parametrize("task", TASKS)
def test_small_work_blocks_match_reference(task, monkeypatch, n_trees=3):
    # split search, routing and order expansion in many small blocks, not one pass
    monkeypatch.setattr(forest, "_SPLIT_BLOCK", 64)
    monkeypatch.setattr(forest, "_ROUTE_BLOCK", 64)
    monkeypatch.setattr(forest, "_ORDER_BLOCK", 64)
    X, y = _data(task)
    spec = ModelSpec("forest", task, {"n_trees": n_trees, "max_features": "all"}, seed=3)
    assert_matches_reference(train_forest(spec, X, y), X, y)


def test_saved_forest_predicts_like_reference(tmp_path, n_trees=3):
    X, y = _data("regress", seed=6)
    model = train_forest(ModelSpec("forest", "regress", {"n_trees": n_trees}, seed=2), X, y)
    path = str(tmp_path / "forest.npz")
    save_model(model, path)
    assert_matches_reference(load_model(path), X, y)


def test_empty_batch_predicts_empty():
    X, y = _data("classify")
    model = train_forest(ModelSpec("forest", "classify", {"n_trees": 2}, seed=0), X, y)
    assert model.predict_proba(X[:0]).shape == (0, 3)
    assert model.predict(X[:0]).shape == (0,)


# -- trees grown in forked workers -------------------------------------------


@pytest.fixture
def fork(monkeypatch):
    """Force the fork path: every fit of two or more trees forks the given
    number of workers, capped at its trees after the first."""
    def force(workers):
        monkeypatch.setattr(forest, "_FORK_MIN_NODES", 0)
        monkeypatch.setattr(forkmap, "_workers", workers)
    return force


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forked_fits_match_reference(workers, fork, started, monkeypatch, tmp_path):
    fork(workers)
    n_trees = 5  # four trees to hand out: each of three workers gets one or more
    for task, hp, weights in product(TASKS, HYPERPARAMETERS, WEIGHTS):
        test_forest_matches_reference(task, hp, weights, n_trees=n_trees)
    for n_classes in (2, 9):
        test_classes_beyond_the_unrolled_sum_match_reference(n_classes, n_trees=n_trees)
    test_distilled_student_matches_reference(n_trees=n_trees)  # two fits
    for target in ("nan", "overflowing"):
        test_non_finite_values_match_reference(target, n_trees=n_trees)
    for task in TASKS:
        test_small_work_blocks_match_reference(task, monkeypatch, n_trees=n_trees)
    test_saved_forest_predicts_like_reference(tmp_path, n_trees=n_trees)
    assert len(started) == 33 * workers


def test_fit_below_the_node_threshold_starts_no_process(monkeypatch, started):
    monkeypatch.setattr(forkmap, "_workers", 2)
    X, y = _data("regress")
    spec = ModelSpec("forest", "regress", {"n_trees": 3}, seed=4)
    model = train_forest(spec, X, y)  # far below the stock threshold
    assert started == []
    at_threshold = model.trees[0].feature.size * 2  # the first tree's nodes x trees left
    monkeypatch.setattr(forest, "_FORK_MIN_NODES", at_threshold + 1)
    assert_matches_reference(train_forest(spec, X, y), X, y)
    assert started == []
    monkeypatch.setattr(forest, "_FORK_MIN_NODES", at_threshold)
    assert_matches_reference(train_forest(spec, X, y), X, y)
    assert len(started) == 2


def test_fit_beside_other_threads_stays_serial(fork, started):
    fork(2)
    X, y = _data("classify")
    spec = ModelSpec("forest", "classify", {"n_trees": 5}, seed=4)
    with ThreadPoolExecutor(max_workers=1) as pool:
        model = pool.submit(train_forest, spec, X, y).result()
    assert started == []
    assert_matches_reference(model, X, y)


def _fail_in_workers(monkeypatch, fail):
    parent, grow = os.getpid(), forest._Grower.grow

    def grow_here_only(self, order):
        if os.getpid() != parent:
            fail()
        return grow(self, order)

    monkeypatch.setattr(forest._Grower, "grow", grow_here_only)


def test_worker_exception_reaches_the_caller(fork, monkeypatch, started):
    fork(2)

    def fail():
        raise ValueError("tree grown in a worker")

    _fail_in_workers(monkeypatch, fail)
    X, y = _data("regress")
    with pytest.raises(ValueError, match="tree grown in a worker"):
        train_forest(ModelSpec("forest", "regress", {"n_trees": 4}, seed=4), X, y)
    assert len(started) == 2 and not any(p.is_alive() for p in started)


def test_worker_that_dies_fails_the_fit(fork, monkeypatch, started):
    fork(2)
    _fail_in_workers(monkeypatch, lambda: os._exit(3))
    X, y = _data("regress")
    with pytest.raises(RuntimeError, match="exited before sending the result for 1$"):
        train_forest(ModelSpec("forest", "regress", {"n_trees": 4}, seed=4), X, y)
    assert len(started) == 2 and not any(p.is_alive() for p in started)
