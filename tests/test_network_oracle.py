"""The network trainer, which prepares its data once and computes into reused
buffers, and the public loss-and-gradient match the reference network and
training loop bit for bit."""

import numpy as np
import pytest
from network_oracle import reference_network

from mlsec5g.models import FeedforwardModel, ModelSpec, train_network

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
