"""The forest grower and the stacked predict match the reference grower and
per-tree predict bit for bit, with trees grown in the calling process or in
forked workers.

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
from forest_oracle import (reference_forest, reference_gini_scores, reference_predict,
                           reference_predict_proba)

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


_REFERENCES = {}


def _cached_reference(spec, X, y, sample_weight):
    """reference_forest, grown once per distinct input for the session: the
    forked and split-path cases repeat the inputs of the cases above."""
    def key(a):
        a = np.asarray(a)
        return a.dtype.str, a.shape, a.tobytes()

    k = (repr(spec), *(key(a) for a in (X, y)),
         None if sample_weight is None else key(sample_weight))
    if k not in _REFERENCES:
        _REFERENCES[k] = reference_forest(spec, X, y, sample_weight)
    return _REFERENCES[k]


def assert_matches_reference(model, X, y, sample_weight=None):
    trees, importance, classes = _cached_reference(model.spec, X, y, sample_weight)
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


@pytest.mark.parametrize("task, name, mtry", [("classify", "third", 5), ("regress", "sqrt", 4)])
def test_the_other_tasks_default_matches_reference(task, name, mtry, n_trees=3):
    # at 16 columns each name draws a width other than the task's default
    X, y = _data(task)
    X = np.hstack([X, np.random.default_rng(8).standard_normal((X.shape[0], 9))])
    assert forest._resolve_mtry(name, 16, task == "classify") == mtry
    assert forest._resolve_mtry(None, 16, task == "classify") != mtry
    spec = ModelSpec("forest", task, {"n_trees": n_trees, "max_features": name}, seed=4)
    assert_matches_reference(train_forest(spec, X, y), X, y)


def test_wide_data_matches_reference(n_trees=3):
    # cs4's shape: 256 columns, of which each node reads 16, and six classes
    X, y = _data("classify", n_classes=6)
    wide = np.random.default_rng(8).standard_normal((X.shape[0], 249))
    wide[:, ::3] = np.round(wide[:, ::3] * 2)  # ties in a third of the columns
    X = np.hstack([X, wide])
    assert forest._resolve_mtry(None, X.shape[1], True) == 16
    spec = ModelSpec("forest", "classify", {"n_trees": n_trees}, seed=4)
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
    # split search in many small blocks, not one pass; routing one tree per
    # pass, a few per pass, and every (tree, row) pair in one pass
    monkeypatch.setattr(forest, "_SPLIT_BLOCK", 64)
    X, y = _data(task)
    spec = ModelSpec("forest", task, {"n_trees": n_trees, "max_features": "all"}, seed=3)
    model = train_forest(spec, X, y)
    few = X[:24]  # 64 pairs route two trees of these rows per pass
    routed = []
    for block in (1, 64, (X.shape[0] + 40) * n_trees + 1):  # the last above the probe's pairs
        monkeypatch.setattr(forest, "_ROUTE_BLOCK", block)
        assert_matches_reference(model, X, y)
        out = [np.stack(list(model._leaves(few))), model.predict(few)]
        if task == "classify":
            out.append(model.predict_proba(few))
        routed.append([a.tobytes() for a in out])
    assert routed[1] == routed[0] and routed[2] == routed[0]


@pytest.mark.parametrize("rows, n_trees", [(168, 30), (240, 20), (400, 15)],
                         ids=["cs1", "cs4", "cs6"])
def test_a_sweep_predict_routes_in_one_block(rows, n_trees, monkeypatch):
    # the stock sweeps' predicts: every (tree, row) pair descends in one pass
    X, y = _data("classify", n=rows)
    spec = ModelSpec("forest", "classify", {"n_trees": n_trees, "max_depth": 3}, seed=0)
    model = train_forest(spec, X, y)
    stacked, stack = [], forest._stack

    def counted(*args):
        stacked.append(1)
        return stack(*args)

    monkeypatch.setattr(forest, "_stack", counted)
    model.predict(X)
    assert len(stacked) == 1


@pytest.mark.parametrize("min_leaf", [1, 3])
@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("n_classes", [2, 3, 9])
def test_gini_kernel_matches_row_major_reference(n_classes, weights, min_leaf):
    # candidate blocks formed as the split search forms them, over random node rows;
    # at 9 classes numpy sums contiguous classes pairwise, strided ones in sequence
    rng = np.random.default_rng([n_classes, min_leaf])
    n = 180
    XT = rng.standard_normal((6, n))
    XT[1] = np.round(XT[1])                # heavy ties
    XT[2] = 0.5                            # constant: no cut
    XT[3, rng.random(n) < 0.2] = np.nan    # NaN sorts last and bounds no cut
    XT[4] = np.round(XT[4] * 2) / 2
    y = rng.integers(0, n_classes, n)
    w = np.ones(n) if weights == "none" else _weights(weights, n)
    grower = forest._Grower(XT, y, w, classify=True, n_classes=n_classes, max_depth=8,
                            min_split=2, min_leaf=min_leaf, mtry=6,
                            rng=np.random.default_rng(0))
    w_onehot = grower.onehot * w[:, None]  # row-major
    for size in (n, 41, 7):
        rows = np.sort(rng.choice(n, size, replace=False))
        block = rng.permutation(6)
        vs = XT[block[:, None], rows]
        idx = rows[vs.argsort(axis=1, kind="stable")]
        vs = XT[block[:, None], idx]
        valid = vs[:, 1:] > vs[:, :-1]
        valid[:, :min_leaf - 1] = False
        valid[:, size - min_leaf:] = False
        with np.errstate(divide="ignore", invalid="ignore"):  # a node may weigh 0
            got = grower._gini_scores(idx, valid)
            want = reference_gini_scores(w_onehot, idx, valid)
        assert got.tobytes() == want.tobytes()


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
    grower.grow()
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

    def recorded(self):
        pids.append(os.getpid())
        return grow(self)

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

    def grow_here_only(self):
        if os.getpid() != parent:
            fail()
        return grow(self)

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
