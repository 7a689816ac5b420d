"""The presorted forest grower and the stacked predict match the reference
per-node-argsort grower and per-tree predict bit for bit, with trees grown in
the calling process or in forked workers, and with the split search on the
presorted order or on each small node's own sort.

A test case takes `n_trees` as a defaulted argument, which pytest leaves
alone, so the matrix of every case can run again with more trees.
"""

import gc
import os
import weakref
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


def _every_case(monkeypatch, tmp_path, n_trees):
    """Every case above, at n_trees: 33 fits."""
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("small_node", [0, 100_000], ids=["presorted", "own-sort"])
def test_both_split_paths_match_reference(small_node, monkeypatch, tmp_path):
    # every node searches the presorted order, or every node sorts its own rows
    monkeypatch.setattr(forest, "_SMALL_NODE", small_node)
    _every_case(monkeypatch, tmp_path, n_trees=3)


@pytest.mark.parametrize("p", [1, 2, 3, 7, 16, 64, 257])
def test_chunked_draws_follow_the_per_node_permutation(p):
    for mtry in sorted({1, max(1, p // 3), p}):
        draws = forest._draws(np.random.default_rng([5, p]), p, mtry)
        rng = np.random.default_rng([5, p])
        for _ in range(2 * max(1, forest._DRAW_BLOCK // p) + 3):  # across two refills
            assert np.array_equal(next(draws), rng.permutation(p)[:mtry])


def test_a_grown_tree_frees_its_grower_at_once():
    # a reference cycle would hold each tree's working arrays until the
    # cycle collector runs, and a fit's peak memory would grow with its trees
    X, y = _data("regress")
    grower = forest._Grower(X.T.copy(), y, np.ones(y.size), classify=False, n_classes=1,
                            max_depth=3, min_split=2, min_leaf=1, mtry=2,
                            rng=np.random.default_rng(0))
    grower.grow(np.argsort(X.T, axis=1, kind="stable"))
    alive = weakref.ref(grower)
    gc.disable()
    try:
        del grower
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_are_refused(weight):
    X, y = _data("regress", n=50)
    w = np.ones(50)
    w[[3, 17]] = weight
    with pytest.raises(ValueError, match="must be finite, got 2 non-finite"):
        train_forest(ModelSpec("forest", "regress", {"n_trees": 2}, seed=0), X, y,
                     sample_weight=w)


def test_empty_batch_predicts_empty():
    X, y = _data("classify")
    model = train_forest(ModelSpec("forest", "classify", {"n_trees": 2}, seed=0), X, y)
    assert model.predict_proba(X[:0]).shape == (0, 3)
    assert model.predict(X[:0]).shape == (0,)


# -- trees grown in forked workers -------------------------------------------


@pytest.fixture
def fork(monkeypatch):
    """Force the fork path: every fit of two or more trees forks the given
    number of workers, capped at its trees."""
    def force(workers):
        monkeypatch.setattr(forest, "_FORK_MIN_WORK", 0)
        monkeypatch.setattr(forkmap, "_workers", workers)
    return force


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forked_fits_match_reference(workers, fork, started, monkeypatch, tmp_path):
    fork(workers)
    _every_case(monkeypatch, tmp_path, n_trees=5)  # each of three workers gets one or more
    assert len(started) == 33 * workers


def _grown_here(monkeypatch) -> list:
    """The trees grown in this process from now on, one pid each."""
    pids, grow = [], forest._Grower.grow

    def recorded(self, order):
        pids.append(os.getpid())
        return grow(self, order)

    monkeypatch.setattr(forest._Grower, "grow", recorded)
    return pids


def test_fit_below_the_work_threshold_starts_no_process(monkeypatch, started):
    monkeypatch.setattr(forkmap, "_workers", 2)
    grown_here = _grown_here(monkeypatch)
    X, y = _data("regress")
    spec = ModelSpec("forest", "regress", {"n_trees": 3}, seed=4)
    at_threshold = X.shape[0] * 3  # rows x trees
    assert at_threshold < forest._FORK_MIN_WORK  # far below the stock threshold
    monkeypatch.setattr(forest, "_FORK_MIN_WORK", at_threshold + 1)
    assert_matches_reference(train_forest(spec, X, y), X, y)
    assert started == [] and len(grown_here) == 3
    grown_here.clear()
    monkeypatch.setattr(forest, "_FORK_MIN_WORK", at_threshold)
    assert_matches_reference(train_forest(spec, X, y), X, y)
    assert len(started) == 2 and grown_here == []  # every tree grew in a worker


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
    with pytest.raises(RuntimeError, match="exited before sending the result for 0$"):
        train_forest(ModelSpec("forest", "regress", {"n_trees": 4}, seed=4), X, y)
    assert len(started) == 2 and not any(p.is_alive() for p in started)
