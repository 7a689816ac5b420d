"""Forest, feedforward, and online recurrent models: fit, gradients, persistence."""

import numpy as np
import pytest
from online_oracle import _sigmoid as masked_sigmoid

from mlsec5g import config
from mlsec5g.config import _ROWS
from mlsec5g.metrics import accuracy, rmse
from mlsec5g.models import (ModelSpec, distill_forest, init_online, load_model,
                            save_model, train_forest, train_network)
from mlsec5g.models.recurrent import _sigmoid


def blobs(n=150, seed=0, spread=0.4):
    """Three linearly separable-ish clusters in 4 dimensions."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0, 0, 0], [3, 3, 0, 0], [0, 3, 3, 0]], dtype=float)
    X, y = [], []
    for i, c in enumerate(centers):
        X.append(c + spread * rng.standard_normal((n // 3, 4)))
        y += [f"c{i}"] * (n // 3)
    return np.vstack(X), np.array(y)


def linear_data(n=200, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 3))
    y = 2.0 * X[:, 0] - 1.5 * X[:, 1] + 0.5 * X[:, 2]
    return X, y + 0.01 * rng.standard_normal(n)


class TestForest:
    def test_separable_classification_is_learned(self):
        X, y = blobs()
        model = train_forest(ModelSpec("forest", "classify", {"n_trees": 15}, seed=0), X, y)
        assert accuracy(y, model.predict(X)) >= 0.99

    def test_regression_beats_the_mean_predictor(self):
        X, y = linear_data()
        model = train_forest(ModelSpec("forest", "regress", {"n_trees": 20}, seed=0), X, y)
        assert rmse(y, model.predict(X)) < np.std(y) / 3

    def test_same_seed_same_model(self):
        X, y = blobs(seed=5, spread=1.2)
        spec = ModelSpec("forest", "classify", {"n_trees": 10}, seed=7)
        a = train_forest(spec, X, y)
        b = train_forest(spec, X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_different_seed_different_forest(self):
        X, y = blobs(seed=5, spread=1.2)
        a = train_forest(ModelSpec("forest", "classify", {"n_trees": 10}, seed=1), X, y)
        b = train_forest(ModelSpec("forest", "classify", {"n_trees": 10}, seed=2), X, y)
        assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_importance_finds_the_informative_feature(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((200, 6))
        y = np.where(X[:, 2] > 0, "pos", "neg")
        model = train_forest(ModelSpec("forest", "classify", {"n_trees": 15}, seed=0),
                             X, y, schema=[f"f{i}" for i in range(6)])
        imp = model.feature_importance()
        assert imp.top(1) == ["f2"]
        assert np.isclose(imp.scores.sum(), 1.0)

    def test_importance_top_bounds(self):
        X, y = blobs()
        model = train_forest(ModelSpec("forest", "classify", {}, seed=0), X, y)
        with pytest.raises(ValueError):
            model.feature_importance().top(0)
        with pytest.raises(ValueError):
            model.feature_importance().top(99)

    def test_zero_weight_class_is_never_predicted(self):
        X, y = blobs()
        w = np.where(y == "c1", 0.0, 1.0)
        model = train_forest(ModelSpec("forest", "classify", {"n_trees": 10}, seed=0),
                             X, y, sample_weight=w)
        assert "c1" not in set(model.predict(X))

    def test_width_mismatch_fails_loudly(self):
        X, y = blobs()
        model = train_forest(ModelSpec("forest", "classify", {}, seed=0), X, y)
        with pytest.raises(ValueError, match="width"):
            model.predict(X[:, :2])

    def test_save_load_round_trip(self, tmp_path):
        X, y = blobs()
        model = train_forest(ModelSpec("forest", "classify", {"n_trees": 8}, seed=0), X, y)
        path = str(tmp_path / "forest.npz")
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(model.predict(X), again.predict(X))
        assert again.fingerprint == model.fingerprint
        assert again.schema == model.schema

    def test_regression_save_load(self, tmp_path):
        X, y = linear_data()
        model = train_forest(ModelSpec("forest", "regress", {"n_trees": 8}, seed=0), X, y)
        path = str(tmp_path / "reg.npz")
        save_model(model, path)
        assert np.array_equal(model.predict(X), load_model(path).predict(X))


    @pytest.mark.parametrize("low,high", [
        (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51),  # adjacent doubles: the midpoint rounds up
        (0.0, np.inf),                          # the midpoint is inf
        (-np.inf, np.inf),                      # the midpoint is NaN
    ])
    def test_cut_between_values_without_a_midpoint_splits_them(self, low, high):
        X = np.array([[low], [low], [high], [high]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        spec = ModelSpec("forest", "regress",
                         {"n_trees": 1, "max_depth": 5, "bootstrap": False}, seed=0)
        model = train_forest(spec, X, y)
        tree = model.trees[0]
        # a threshold equal to the upper value sent every row left, again and again
        assert tree.feature.size == 3
        assert tree.threshold[0] == low
        assert tree.value[tree.left[0], 0] == 0.0 and tree.value[tree.right[0], 0] == 1.0
        assert np.array_equal(model.predict(X), y)


class TestDistillation:
    def test_student_mostly_agrees_with_teacher(self):
        X, y = blobs(spread=0.8)
        teacher = train_forest(ModelSpec("forest", "classify", {"n_trees": 15}, seed=0), X, y)
        student = distill_forest(teacher, X, seed=1)
        agree = np.mean(teacher.predict(X) == student.predict(X))
        assert agree >= 0.9

    def test_regression_teacher_is_rejected(self):
        X, y = linear_data()
        teacher = train_forest(ModelSpec("forest", "regress", {}, seed=0), X, y)
        with pytest.raises(ValueError):
            distill_forest(teacher, X)


def rel_error(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12))


def central_difference(model, X, y, h=1e-6):
    theta = model.flat_params()
    num = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        model.set_flat_params(up)
        hi = model.loss(X, y)
        model.set_flat_params(down)
        lo = model.loss(X, y)
        num[i] = (hi - lo) / (2 * h)
    model.set_flat_params(theta)
    return num


def probe_network(task, out_dim=2, seed=11):
    """Tiny 1-in, one hidden pair, 2-out network with randomized parameters:
    2 + 2 + 4 + 2 = 10 weights and biases."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((8, 1))
    if task == "classify":
        y = np.array(["a", "b"] * 4)
    elif task == "vector_regress":
        y = np.abs(rng.standard_normal((8, out_dim))) + 0.1
    else:
        y = rng.standard_normal(8)
    spec = ModelSpec("feedforward", task, {"hidden": [2], "epochs": 1}, seed=seed)
    model = train_network(spec, X, y)
    model.set_flat_params(0.5 * rng.standard_normal(model.n_params()))
    return model, X, y


class TestNetworkGradients:
    @pytest.mark.parametrize("task", ["classify", "regress", "vector_regress"])
    def test_analytic_matches_central_differences(self, task):
        model, X, y = probe_network(task)
        _, grad = model.loss_grad(X, y)
        assert rel_error(grad, central_difference(model, X, y)) <= 1e-4

    def test_two_hidden_layers_differentiate(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        spec = ModelSpec("feedforward", "regress", {"hidden": [4, 3], "epochs": 1}, seed=2)
        model = train_network(spec, X, y)
        model.set_flat_params(0.4 * rng.standard_normal(model.n_params()))
        _, grad = model.loss_grad(X, y)
        assert rel_error(grad, central_difference(model, X, y)) <= 1e-3


class TestNetworkTraining:
    def test_classification_fits_blobs(self):
        X, y = blobs()
        spec = ModelSpec("feedforward", "classify", {"hidden": [16], "epochs": 300}, seed=0)
        model = train_network(spec, X, y)
        assert accuracy(y, model.predict(X)) >= 0.95

    def test_regression_fits_linear_map(self):
        X, y = linear_data()
        spec = ModelSpec("feedforward", "regress", {"hidden": [16], "epochs": 400}, seed=0)
        model = train_network(spec, X, y)
        assert rmse(y, model.predict(X)) < np.std(y) / 4

    def test_vector_regression_output_is_nonnegative(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 3))
        Y = np.abs(X @ rng.standard_normal((3, 4))) + 0.5
        spec = ModelSpec("feedforward", "vector_regress", {"hidden": [8], "epochs": 50}, seed=0)
        model = train_network(spec, X, Y)
        pred = model.predict(X)
        assert pred.shape == (60, 4)
        assert np.all(pred >= 0.0)

    def test_same_seed_same_weights(self):
        X, y = linear_data(80)
        spec = ModelSpec("feedforward", "regress", {"hidden": [6], "epochs": 40}, seed=9)
        a = train_network(spec, X, y)
        b = train_network(spec, X, y)
        assert np.array_equal(a.flat_params(), b.flat_params())

    def test_flat_params_round_trip_and_length_check(self):
        # 1 input, one 2-wide hidden layer with bias, 2 outputs with bias:
        # 2 + 2 + 4 + 2 = 10 parameters
        model, _, _ = probe_network("classify")
        theta = model.flat_params()
        assert theta.size == model.n_params() == 10
        model.set_flat_params(theta)
        assert np.array_equal(model.flat_params(), theta)
        with pytest.raises(ValueError, match="length"):
            model.set_flat_params(theta[:-1])

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            ModelSpec("feedforward", "regress", {"activation": "swish", "epochs": 1})

    def test_labels_outside_trained_classes_rejected(self):
        X, y = blobs()
        spec = ModelSpec("feedforward", "classify", {"hidden": [4], "epochs": 1}, seed=0)
        model = train_network(spec, X, y)
        with pytest.raises(ValueError, match="classes"):
            model.loss(X, np.array(["zz"] * len(y)))

    def test_save_load_round_trip(self, tmp_path):
        X, y = blobs()
        spec = ModelSpec("feedforward", "classify", {"hidden": [8], "epochs": 60}, seed=0)
        model = train_network(spec, X, y)
        path = str(tmp_path / "net.npz")
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(model.predict_proba(X), again.predict_proba(X))


def warmed_model(seed=0, window=8, length=120):
    rng = np.random.default_rng(seed)
    series = 8.0 + np.cumsum(rng.uniform(-0.3, 0.3, size=length))
    spec = ModelSpec("recurrent", "regress",
                     {"window": window, "hidden_size": 6, "epochs": 40, "lr": 0.02},
                     seed=seed)
    return init_online(spec, series), series


class TestOnlineRecurrent:
    def test_warmup_must_exceed_window(self):
        spec = ModelSpec("recurrent", "regress", {"window": 30}, seed=0)
        with pytest.raises(ValueError, match="longer than the window"):
            init_online(spec, np.ones(30))

    def test_constant_series_is_predicted(self):
        spec = ModelSpec("recurrent", "regress",
                         {"window": 5, "hidden_size": 4, "epochs": 30}, seed=0)
        model = init_online(spec, np.full(40, 8.0))
        assert model.predict_next() == pytest.approx(8.0, abs=0.5)

    def test_step_updates_then_predicts(self):
        model, _ = warmed_model()
        before = model.predict_next()
        out = model.step(9.0)
        assert isinstance(out, float)
        assert model.history[-1] == 9.0
        assert out != before or True  # the update happened; value may coincide

    def test_state_round_trip_is_bit_exact_under_identical_inputs(self):
        model, _ = warmed_model()
        clone = type(model).from_state(*model.to_state())
        feed = [8.2, 8.4, 8.1, 7.9, 8.5, 8.6]
        a = [model.step(v) for v in feed]
        b = [clone.step(v) for v in feed]
        assert a == b

    def test_restored_model_does_not_alias_the_donor(self):
        model, _ = warmed_model()
        clone = type(model).from_state(*model.to_state())
        frozen = clone.predict_next()
        for v in (9.0, 9.5, 10.0):
            model.step(v)
        assert clone.predict_next() == frozen

    def test_save_load_round_trip(self, tmp_path):
        model, _ = warmed_model()
        path = str(tmp_path / "online.npz")
        save_model(model, path)
        again = load_model(path)
        assert again.predict_next() == model.predict_next()
        assert [again.step(v) for v in (8.0, 8.1)] == [model.step(v) for v in (8.0, 8.1)]


def test_sigmoid_matches_the_masked_form_bit_for_bit():
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-320, -1e-320,
             745.0, -745.0, 800.0, -800.0]
    z = np.concatenate([rng.standard_normal(20000) * scale for scale in (1, 10, 100, 800)]
                       + [np.array(edges * 2)])
    for shape in ((z.size,), (z.size // 8, 8)):
        got, want = z.reshape(shape).copy(), masked_sigmoid(z.reshape(shape))
        _sigmoid(got, np.empty(shape, dtype=bool), np.empty(shape))  # in place
        nan = np.isnan(want)  # a NaN passes through both, its sign bit need not
        assert np.array_equal(np.isnan(got), nan) and nan.sum() == 4
        assert got[~nan].tobytes() == want[~nan].tobytes()


class TestDispatcher:
    def test_spec_rejects_unknown_kind_and_task(self):
        with pytest.raises(ValueError, match="kind"):
            ModelSpec("svm", "classify")
        with pytest.raises(ValueError, match="task"):
            ModelSpec("forest", "rank")
        with pytest.raises(ValueError, match="does not support"):
            ModelSpec("recurrent", "classify")

    @pytest.mark.parametrize("kind, task, hp", [
        ("feedforward", "regress", {"bias": False, "output_bias": False, "l2": 0.3,
                                    "batch_size": 7, "standardize": False}),
        ("recurrent", "regress", {"online_lr": 0.01}),
        ("forest", "classify", {"lr": 0.1, "hidden": [4]}),
    ])
    def test_spec_refuses_names_its_kind_does_not_read(self, kind, task, hp):
        with pytest.raises(ValueError) as err:
            ModelSpec(kind, task, hp)
        assert str(err.value) == f"kind {kind!r} does not read hyperparameters {sorted(hp)}"

    @pytest.mark.parametrize("scenario, kind, key, value", [
        ("cs2", "forest", "bootstrap", "no"),
        ("cs2", "forest", "n_trees", 2.5),
        ("cs2", "forest", "max_features", "half"),
        ("cs2", "forest", "max_features", 3),
        ("cs2", "forest", "min_samples_leaf", 0),
        ("cs2", "forest", "min_samples_split", 1),
        ("cs2", "forest", "max_depth", 0),
        ("cs5", "feedforward", "lr", -0.05),
        ("cs3", "recurrent", "lr", 0.0),
    ])
    def test_spec_refuses_each_value_the_config_refuses(self, scenario, kind, key, value):
        what = _ROWS[kind][key][1]
        with pytest.raises(ValueError) as err:
            ModelSpec(kind, "regress", {key: value})
        assert str(err.value) == f"hyperparameter {key} must be {what}, got {value!r}"
        assert config.validate_config({"scenario": scenario, "model": {key: value}}) == [
            f"config.model.{key}: must be {what}, got {value!r}"]

    def test_spec_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError, match="n_trees"):
            ModelSpec("forest", "classify", {"n_trees": 0})

    @pytest.mark.parametrize("hp, bad", [
        ({"hidden": [0]}, r"hidden must be a list of integers >= 1, got \[0\]"),
        ({"hidden": [8, -1]}, r"hidden must be a list of integers >= 1, got \[8, -1\]"),
    ])
    def test_spec_rejects_bad_network_sizes(self, hp, bad):
        with pytest.raises(ValueError, match=bad):
            ModelSpec("feedforward", "regress", hp)

    def test_spec_lists_every_violation(self):
        with pytest.raises(ValueError) as err:
            ModelSpec("feedforward", "regress", {"epochs": 0, "window": 5, "hidden": [0]})
        assert all(key in str(err.value) for key in ("epochs", "window", "hidden"))

    def test_spec_accepts_no_hidden_layer(self):
        X, y = linear_data(20)
        spec = ModelSpec("feedforward", "regress", {"hidden": [], "epochs": 2}, seed=0)
        assert train_network(spec, X, y).predict(X).shape == (20,)

    def test_network_rejects_mismatched_target_rows(self):
        X, y = linear_data(20)
        spec = ModelSpec("feedforward", "regress", {"hidden": [3], "epochs": 1}, seed=0)
        with pytest.raises(ValueError, match="target rows"):
            train_network(spec, X, y[:1])
