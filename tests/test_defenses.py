"""Defense harness: schema projection, hardened retraining, cost accounting."""

import json

import numpy as np
import pytest

from mlsec5g.config import default_config
from mlsec5g.defenses import (adversarial_training, evaluate_defense,
                              feature_removal, project_columns)
from mlsec5g.perturb import ConstraintRule, PerturbationSpec
from mlsec5g.report import write_report
from mlsec5g.scenarios.runner import run_case_study


class ColumnModel:
    """Thresholds one named column of its own schema."""

    def __init__(self, schema, column, threshold=0.5):
        self.schema = tuple(schema)
        self.column = self.schema.index(column)
        self.threshold = threshold

    def predict(self, X):
        return (np.asarray(X)[:, self.column] > self.threshold).astype(int)


class TestProjectColumns:
    def test_selects_and_reorders(self):
        X = np.arange(12, dtype=float).reshape(3, 4)
        out = project_columns(X, ("a", "b", "c", "d"), ("d", "b"))
        assert out.tolist() == [[3.0, 1.0], [7.0, 5.0], [11.0, 9.0]]

    def test_missing_column_is_an_error(self):
        with pytest.raises(ValueError, match="missing columns"):
            project_columns(np.zeros((2, 2)), ("a", "b"), ("a", "z"))


def capture_trainer(calls):
    def trainer(X, y, schema, seed):
        calls.append((np.asarray(X), np.asarray(y), tuple(schema), seed))
        return ColumnModel(schema, schema[0])
    return trainer


def shift_spec(name="shift_a", action="clamp"):
    return PerturbationSpec(
        name, ("a",), "additive_std", (1.0, 2.0),
        constraints=(ConstraintRule("a", lo=0.0, hi=100.0, action=action),))


class TestAdversarialTraining:
    def make_records(self, n=20):
        rng = np.random.default_rng(5)
        records = [{"a": float(rng.uniform(1, 9)), "b": float(rng.uniform(0, 1))}
                   for _ in range(n)]
        y = np.array([i % 2 for i in range(n)])
        featurize = lambda recs: np.array([[r["a"], r["b"]] for r in recs])
        return records, y, featurize

    def test_no_specs_degenerates_to_plain_retrain(self):
        records, y, featurize = self.make_records()
        calls = []
        adversarial_training(capture_trainer(calls), records, y, [], featurize,
                             ("a", "b"), seed=7)
        X, y_got, schema, seed = calls[0]
        assert np.array_equal(X, featurize(records))
        assert np.array_equal(y_got, y)
        assert schema == ("a", "b") and seed == 7

    def test_augmented_rows_keep_their_labels(self):
        records, y, featurize = self.make_records(n=20)
        calls = []
        adversarial_training(capture_trainer(calls), records, y, [shift_spec()],
                             featurize, ("a", "b"), seed=7, aug_fraction=0.25)
        X, y_got, _, _ = calls[0]
        # 20 originals + ceil(0.25 * 20) = 5 variants at each of two levels
        assert X.shape == (30, 2)
        assert y_got.shape == (30,)
        assert np.array_equal(y_got[:20], y)

    def test_rejected_variants_drop_their_labels_too(self):
        records, y, featurize = self.make_records(n=20)
        # tight reject interval: high-intensity shifts fall outside and vanish
        spec = PerturbationSpec(
            "fragile", ("a",), "additive_std", (0.1, 50.0),
            constraints=(ConstraintRule("a", lo=0.0, hi=9.5, action="reject"),))
        calls = []
        adversarial_training(capture_trainer(calls), records, y, [spec],
                             featurize, ("a", "b"), seed=7, aug_fraction=0.25)
        X, y_got, _, _ = calls[0]
        assert X.shape[0] == y_got.shape[0]
        assert 20 <= X.shape[0] < 30

    def test_aug_fraction_bounds(self):
        records, y, featurize = self.make_records()
        for bad in (0.0, 1.5, -0.1, True):
            with pytest.raises(ValueError, match="aug_fraction"):
                adversarial_training(capture_trainer([]), records, y, [],
                                     featurize, ("a", "b"), seed=0,
                                     aug_fraction=bad)

    def test_misaligned_targets(self):
        records, y, featurize = self.make_records()
        with pytest.raises(ValueError, match="not aligned"):
            adversarial_training(capture_trainer([]), records, y[:-1], [],
                                 featurize, ("a", "b"), seed=0)


class TestFeatureRemoval:
    def test_trainer_sees_the_reduced_world(self):
        X = np.arange(12, dtype=float).reshape(3, 4)
        y = np.array([0, 1, 0])
        calls = []
        feature_removal(capture_trainer(calls), X, y, ("a", "b", "c", "d"),
                        removed=("b", "d"), seed=3)
        X_got, y_got, schema, seed = calls[0]
        assert schema == ("a", "c")
        assert X_got.tolist() == [[0.0, 2.0], [4.0, 6.0], [8.0, 10.0]]
        assert np.array_equal(y_got, y) and seed == 3

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown features"):
            feature_removal(capture_trainer([]), np.zeros((2, 2)),
                            np.zeros(2), ("a", "b"), removed=("z",), seed=0)

    def test_cannot_remove_everything(self):
        with pytest.raises(ValueError, match="at least one feature"):
            feature_removal(capture_trainer([]), np.zeros((2, 2)),
                            np.zeros(2), ("a", "b"), removed=("a", "b"), seed=0)


class TestEvaluateDefense:
    def make_validation(self, n=60):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(n, 2))
        y = (X[:, 0] > 0.5).astype(int)
        return X, y

    def test_tradeoff_is_baseline_over_hardened(self):
        X, y = self.make_validation()
        base = ColumnModel(("a", "b"), "a")
        # the hardened twin reads the wrong column, so it pays on clean data
        hardened = ColumnModel(("a", "b"), "b")
        ev = evaluate_defense(base, hardened, (X, y, ("a", "b")),
                              [(1.0, X.copy())], "Acc", defense="swap")
        assert ev.tradeoff.p_base == 1.0
        assert ev.tradeoff.tradeoff == pytest.approx(1.0 / ev.tradeoff.p_hardened)
        assert ev.defense == "swap"

    def test_the_hardened_model_scores_its_clean_rows_once(self):
        """One clean prediction, then one per variant: the residual's
        baseline is the tradeoff's p_hardened, not a second measurement."""
        X, y = self.make_validation()
        calls = []

        class Counting(ColumnModel):
            def predict(self, X):
                calls.append(len(X))
                return super().predict(X)

        hardened = Counting(("b", "a"), "a")
        variants = [X + 0.1, X - 0.1, X - 0.3]
        ev = evaluate_defense(ColumnModel(("a", "b"), "a"), hardened, (X, y, ("a", "b")),
                              [(1.0, variants[:2]), (2.0, variants[2])], "Acc")
        assert calls == [len(X)] * (1 + len(variants))
        assert ev.residual.baseline == ev.tradeoff.p_hardened == 1.0

    def test_residual_is_exactly_zero_outside_the_hardened_schema(self):
        X, y = self.make_validation()
        base = ColumnModel(("a", "b"), "a")
        hardened = ColumnModel(("b",), "b", threshold=-1.0)
        X_adv = X.copy()
        X_adv[:, 0] += 50.0
        ev = evaluate_defense(base, hardened, (X, y, ("a", "b")),
                              [(1.0, X_adv), (2.0, X_adv)], "Acc")
        assert all(p.degradation_mean == 0.0 for p in ev.residual.points)

    def test_residual_survives_when_the_attacked_column_remains(self):
        X, y = self.make_validation()
        base = ColumnModel(("a", "b"), "a")
        hardened = ColumnModel(("a",), "a")
        X_adv = X.copy()
        X_adv[:, 0] -= 50.0
        ev = evaluate_defense(base, hardened, (X, y, ("a", "b")),
                              [(1.0, X_adv)], "Acc")
        assert ev.residual.points[0].degradation_mean > 0.0
        assert ev.residual.name == "residual[defense]"

    def test_streamed_variants_give_the_listed_residual(self):
        X, y = self.make_validation()
        base = ColumnModel(("a", "b"), "a")
        hardened = ColumnModel(("b", "a"), "a")
        variants = []
        for shift in (0.1, 0.3):
            v = X.copy()
            v[:, 0] -= shift
            variants.append(v)
        listed = evaluate_defense(base, hardened, (X, y, ("a", "b")),
                                  [(1.0, variants), (2.0, variants[1])], "Acc")
        streamed = evaluate_defense(base, hardened, (X, y, ("a", "b")),
                                    iter([(1.0, iter(variants)), (2.0, variants[1])]), "Acc")
        assert streamed == listed
        assert [p.n_trials for p in streamed.residual.points] == [2, 1]
        assert streamed.residual.points[0].degradation_mean > 0.0

    def test_a_metric_name_outside_the_table_is_refused(self):
        """A name that metrics.ORIENTATION does not list is an error even with
        its own function, never a tradeoff labelled Acc."""
        X, y = self.make_validation()
        base = ColumnModel(("a", "b"), "a")
        with pytest.raises(ValueError, match="unknown metric_name 'Hits'"):
            evaluate_defense(base, base, (X, y, ("a", "b")), [(1.0, X.copy())], "Hits",
                             metric_fn=lambda t, p: 1.0)

    def test_unknown_metric_without_fn(self):
        X, y = self.make_validation()
        base = ColumnModel(("a", "b"), "a")
        with pytest.raises(ValueError, match="metric"):
            evaluate_defense(base, base, (X, y, ("a", "b")),
                             [(1.0, X.copy())], "Entropy")


@pytest.mark.parametrize("scenario", ["cs2", "cs6"])
def test_stock_defense_scores_are_the_tradeoffs(tmp_path, scenario):
    """report.json states each stock defense's clean scores once, as the
    tradeoff's, and the hardened one is its residual's baseline. The stock
    defenses at reduced data and forest sizes show the stock layout."""
    n = {"cs2": 300, "cs6": 400}[scenario]
    config = default_config(scenario, data={"synthetic": {"n": n}}, model={"n_trees": 3})
    write_report(run_case_study(scenario, config=config), str(tmp_path))
    defenses = json.loads((tmp_path / "report.json").read_text())["defenses"]
    assert [d["defense"] for d in defenses] == ["adversarial_training", "feature_removal"]
    for d in defenses:
        assert d["p_hardened"] == d["residual"]["baseline"]
        assert "baseline_clean" not in d and "hardened_clean" not in d
