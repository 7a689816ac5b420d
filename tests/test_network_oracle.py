"""The network trainer, which prepares its data once and computes into reused
buffers, and the public loss-and-gradient match the reference network and
training loop bit for bit, in one process and with its epochs split across a
forked helper."""

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from network_oracle import reference_network

from mlsec5g import forkmap
from mlsec5g.models import network
from mlsec5g.models.base import ModelSpec
from mlsec5g.models.network import FeedforwardModel, train_network

TASKS = ["classify", "regress", "vector_regress"]

HYPERPARAMETERS = [
    {},
    {"hidden": [6, 4]},
]

MODEL_STATE = {"spec", "task", "schema", "fingerprint", "weights", "biases",
               "classes_", "x_mean", "x_std", "out_dim"}


def _data(task, n=30, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    X[:, 3] = 2.5                              # constant column: std clamps to 1e-8
    if task == "classify":
        return X, np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    if task == "regress":
        return X, X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.standard_normal(n)
    return X, np.abs(X[:, :3] @ rng.standard_normal((3, 3))) + 0.1


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(model, spec, X, y):
    ref = reference_network(spec, X, y)
    assert set(vars(model)) == MODEL_STATE     # no workspace left on the model
    assert _same(model.flat_params(), ref.flat_params())
    rng = np.random.default_rng(9)
    probe = np.vstack([X, X + 0.3 * rng.standard_normal(X.shape)])
    assert _same(model.predict(probe), ref.predict(probe))
    if model.task == "classify":
        assert _same(model.predict_proba(probe), ref.predict_proba(probe))
    return ref


def assert_loss_grad_matches(model, ref, X, y):
    loss, grad = model.loss_grad(X, y)
    ref_loss, ref_grad = ref.loss_grad(X, y)
    assert _same(loss, ref_loss) and _same(grad, ref_grad)
    return grad


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("hp", HYPERPARAMETERS, ids=lambda hp: ",".join(hp) or "default")
def test_training_matches_reference(task, hp):
    X, y = _data(task)
    spec = ModelSpec("feedforward", task, {"hidden": [5], "epochs": 25, "lr": 0.05, **hp},
                     seed=3)
    model = train_network(spec, X, y)
    ref = assert_matches_reference(model, spec, X, y)
    assert_loss_grad_matches(model, ref, X, y)
    assert_loss_grad_matches(model, ref, X[:7], y[:7])


@pytest.mark.parametrize("task", TASKS)
def test_one_row_matches_reference(task):
    X, y = _data(task, n=1)
    spec = ModelSpec("feedforward", task, {"hidden": [3], "epochs": 10}, seed=1)
    model = train_network(spec, X, y)
    assert_loss_grad_matches(model, assert_matches_reference(model, spec, X, y), X, y)


def test_softplus_head_at_extreme_and_signed_zero_preactivations():
    X, Y = _data("vector_regress", n=12, seed=4)
    spec = ModelSpec("feedforward", "vector_regress",
                     {"hidden": [4], "epochs": 3}, seed=2)
    model = train_network(spec, X, Y)
    ref = assert_matches_reference(model, spec, X, Y)
    rng = np.random.default_rng(6)
    centres = np.array([-800.0, -745.0, -36.0, -1e-300, 0.0, 1e-300, 36.0, 745.0, 800.0])
    for scale in (1e-9, 0.0):
        W0, b0, W1, b1 = (rng.standard_normal(p.shape) for p in
                          (model.weights[0], model.biases[0], model.weights[1], model.biases[1]))
        # output pre-activations = one centre per column plus a little row noise
        b1 = centres[rng.integers(0, centres.size, b1.size)]
        theta = np.concatenate([W0.ravel(), b0, scale * W1.ravel(), b1])
        model.set_flat_params(theta)
        ref.set_flat_params(theta)
        assert _same(model.predict(X), ref.predict(X))
        grad = assert_loss_grad_matches(model, ref, X, Y)
        assert np.all(np.isfinite(grad))


def test_loss_grad_results_are_not_reused_between_calls():
    X, y = _data("regress")
    spec = ModelSpec("feedforward", "regress", {"hidden": [5], "epochs": 2}, seed=0)
    model = train_network(spec, X, y)
    ref = reference_network(spec, X, y)
    first = assert_loss_grad_matches(model, ref, X, y)
    kept = first.copy()
    model.loss_grad(X[:5], y[:5])
    assert _same(first, kept)


def test_cs5_shape_matches_reference():
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 500.0, (2700, 40))
    Y = rng.uniform(0.0, 1.0, (2700, 20))
    spec = ModelSpec("feedforward", "vector_regress",
                     {"hidden": [64], "epochs": 5, "lr": 0.01}, seed=7)
    model = train_network(spec, X, Y)
    ref = assert_matches_reference(model, spec, X, Y)
    assert_loss_grad_matches(model, ref, X, Y)


def test_network_hooks_are_defined_on_the_class():
    # the benchmark's tracer patches these by name
    for name in ("loss_grad", "predict", "predict_proba"):
        assert name in FeedforwardModel.__dict__


# -- epochs split across a forked helper ---------------------------------------


@pytest.fixture
def split(monkeypatch):
    """Every fit splits its epochs with a forked helper where it may fork,
    even on one usable CPU or beside a threaded BLAS."""
    monkeypatch.setattr(network, "_SPLIT_MIN_EPOCH", 0)
    monkeypatch.setattr(network, "_SPLIT_MIN_FIT", 0)
    monkeypatch.setattr(forkmap, "_workers", 1)
    monkeypatch.setattr(forkmap, "blas_threads", lambda: 1)


def _one_process(monkeypatch, spec, X, y):
    with monkeypatch.context() as m:
        m.setattr(forkmap, "_workers", 0)
        return train_network(spec, X, y)


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("hidden", [[], [5], [6, 4]], ids=["0", "1", "2"])
@pytest.mark.parametrize("n", [1, 2, 7, 31])
def test_split_epochs_match_one_process_and_reference(task, hidden, n, split, started,
                                                      monkeypatch):
    X, y = _data(task, n=n)
    spec = ModelSpec("feedforward", task, {"hidden": hidden, "epochs": 12, "lr": 0.05},
                     seed=3)
    model = train_network(spec, X, y)
    assert len(started) == 1
    assert not any(p.is_alive() for p in started)
    assert_matches_reference(model, spec, X, y)
    assert _same(model.flat_params(), _one_process(monkeypatch, spec, X, y).flat_params())


def test_split_cs5_shape_matches_one_process(split, started, monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 500.0, (2701, 40))
    Y = rng.uniform(0.0, 1.0, (2701, 20))
    spec = ModelSpec("feedforward", "vector_regress",
                     {"hidden": [64], "epochs": 5, "lr": 0.01}, seed=7)
    model = train_network(spec, X, Y)
    assert len(started) == 1
    assert _same(model.flat_params(), _one_process(monkeypatch, spec, X, Y).flat_params())


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_split_on_one_shared_cpu_keeps_the_bits(split, started):
    # the helper inherits the caller's one CPU: each handoff waits for the
    # other side to be scheduled, so a round that read stale memory would show
    X, y = _data("vector_regress", n=31)
    spec = ModelSpec("feedforward", "vector_regress", {"hidden": [6, 4], "epochs": 300},
                     seed=3)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        model = train_network(spec, X, y)
    finally:
        os.sched_setaffinity(0, cpus)
    assert len(started) == 1
    assert_matches_reference(model, spec, X, y)


def test_halves_whose_bits_differ_from_the_whole_still_split_exactly(split, started,
                                                                    monkeypatch):
    # both placements run the same halves, so a half whose bits differ from
    # those rows of a whole-batch pass moves the split and unsplit fits alike
    rows_of = FeedforwardModel._rows

    def nudged(self, Xs, targets, ws, rows, with_loss=False):
        loss = rows_of(self, Xs, targets, ws, rows, with_loss)
        # one ulp off in the last row of either half
        ws.delta[0][rows][-1:] = np.nextafter(ws.delta[0][rows][-1:], np.inf)
        return loss

    monkeypatch.setattr(FeedforwardModel, "_rows", nudged)
    X, y = _data("vector_regress", n=31)
    spec = ModelSpec("feedforward", "vector_regress", {"hidden": [5], "epochs": 12}, seed=3)
    model = train_network(spec, X, y)
    assert len(started) == 1
    assert _same(model.flat_params(), _one_process(monkeypatch, spec, X, y).flat_params())
    assert not _same(model.flat_params(), reference_network(spec, X, y).flat_params())


@pytest.mark.parametrize("failure", ["raises", "exits"])
def test_a_helper_that_fails_fails_the_fit_and_is_reaped(failure, split, started,
                                                         monkeypatch):
    caller, reduce = os.getpid(), FeedforwardModel._reduce

    def fail_in_helper(self, *args):
        if os.getpid() != caller:
            if failure == "raises":  # a message longer than a pipe holds
                raise ValueError("reduction in the helper" + "!" * 100_000)
            os._exit(3)
        return reduce(self, *args)

    monkeypatch.setattr(FeedforwardModel, "_reduce", fail_in_helper)
    X, y = _data("classify", n=31)
    spec = ModelSpec("feedforward", "classify", {"hidden": [5], "epochs": 12}, seed=3)
    error, match = ((ValueError, "reduction in the helper") if failure == "raises"
                    else (RuntimeError, "helper exited with code 3"))
    with pytest.raises(error, match=match):
        train_network(spec, X, y)
    assert len(started) == 1 and not started[0].is_alive()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [2, None])  # None: no OpenBLAS to ask
def test_no_split_unless_the_blas_runs_one_thread(threads, split, started, monkeypatch):
    monkeypatch.setattr(forkmap, "blas_threads", lambda: threads)
    X, y = _data("regress", n=31)
    spec = ModelSpec("feedforward", "regress", {"hidden": [5], "epochs": 12}, seed=3)
    model = train_network(spec, X, y)
    assert started == []
    assert_matches_reference(model, spec, X, y)


def test_no_split_inside_a_fork_map_worker_or_beside_a_thread(split, started, monkeypatch):
    X, y = _data("regress", n=31)
    spec = ModelSpec("feedforward", "regress", {"hidden": [5], "epochs": 12}, seed=3)
    want = train_network(spec, X, y).flat_params()
    assert len(started) == 1

    def refuse(self, fn):
        raise AssertionError("a helper was forked")

    monkeypatch.setattr(forkmap.Lockstep, "__init__", refuse)
    fit = lambda _: train_network(spec, X, y).flat_params()  # noqa: E731
    got = forkmap.fork_map(fit, [0, 1])  # one worker runs both fits
    assert len(started) == 2
    with ThreadPoolExecutor(max_workers=1) as pool:
        got.append(pool.submit(fit, 2).result())
    assert len(started) == 2
    assert all(_same(params, want) for params in got)
