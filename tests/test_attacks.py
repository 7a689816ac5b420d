"""Attack harnesses: curve math, poisoning loop, online twins, position lies."""

from types import SimpleNamespace

import numpy as np
import pytest

from mlsec5g.attacks import (resolve_metric, run_inference_attack, run_online_attack,
                             run_online_attacks, run_training_attack, spoof_positions,
                             spoof_value, summarize_curve)
from mlsec5g.models import ModelSpec, init_online
from views import degradations, xs


class ThresholdModel:
    """Labels rows by whether their first column exceeds a threshold."""

    def __init__(self, threshold=0.0):
        self.threshold = threshold

    def predict(self, X):
        return np.where(np.asarray(X)[:, 0] > self.threshold, "hot", "cold")


class TestCurveMath:
    def test_point_statistics(self):
        curve = summarize_curve("c", "Acc", "higher_better", "level", 0.9,
                                [(1.0, [0.8, 0.6])])
        p = curve.points[0]
        assert p.metric_mean == pytest.approx(0.7)
        assert p.metric_std == pytest.approx(0.1)
        assert p.degradation_mean == pytest.approx(0.2)
        assert p.n_trials == 2

    def test_lower_better_degrades_upward(self):
        curve = summarize_curve("c", "RMSE", "lower_better", "level", 0.2,
                                [(1.0, [0.5])])
        assert curve.points[0].degradation_mean == pytest.approx(0.3)

    def test_axis_helpers(self):
        curve = summarize_curve("c", "Acc", "higher_better", "level", 1.0,
                                [(0.1, [1.0]), (0.5, [0.9]), (2.0, [0.4])])
        assert xs(curve) == [0.1, 0.5, 2.0]
        assert degradations(curve) == pytest.approx([0.0, 0.1, 0.6])

    def test_resolve_metric_falls_back_to_registry(self):
        fn, orient = resolve_metric("Acc")
        assert orient == "higher_better"
        assert fn(np.array(["a"]), np.array(["a"])) == 1.0

    def test_resolve_metric_requires_known_name_or_fn(self):
        with pytest.raises(ValueError, match="metric"):
            resolve_metric("GiniIndex")
        fn, orient = resolve_metric("GiniIndex", metric_fn=lambda t, p: 0.5,
                                    orientation="lower_better")
        assert fn(None, None) == 0.5 and orient == "lower_better"


class TestInferenceAttack:
    def make_data(self, n=40):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, 3))
        y = np.where(X[:, 0] > 0, "hot", "cold")
        return X, y

    def test_exact_degradation_for_a_known_flip(self):
        X, y = self.make_data()
        model = ThresholdModel()
        # shifting column 0 down flips exactly the rows near the boundary
        X_adv = X.copy()
        X_adv[:, 0] -= 100.0
        res = run_inference_attack(model, (X, y), [(1.0, X_adv)], "Acc")
        assert res.aggregate.baseline == 1.0
        frac_hot = float(np.mean(y == "hot"))
        assert res.aggregate.points[0].metric_mean == pytest.approx(1.0 - frac_hot)

    def test_group_curves_cover_each_group(self):
        X, y = self.make_data()
        groups = np.array([i % 2 for i in range(len(y))])
        res = run_inference_attack(ThresholdModel(), (X, y), [(1.0, X.copy())],
                                   "Acc", group_by=groups, name="probe")
        assert set(res.per_group) == {0, 1}
        assert res.per_group[0].name == "probe[0]"
        # identity perturbation: every group keeps its baseline
        for curve in res.per_group.values():
            assert curve.points[0].degradation_mean == 0.0

    def test_multiple_variants_per_sweep_point(self):
        X, y = self.make_data()
        a, b = X.copy(), X.copy()
        b[:, 0] -= 100.0
        res = run_inference_attack(ThresholdModel(), (X, y), [(1.0, [a, b])], "Acc")
        p = res.aggregate.points[0]
        assert p.n_trials == 2
        assert p.metric_mean == pytest.approx((1.0 + float(np.mean(y == "cold"))) / 2)

    def test_misaligned_adversarial_rows_rejected(self):
        X, y = self.make_data()
        with pytest.raises(ValueError, match="row-aligned"):
            run_inference_attack(ThresholdModel(), (X, y), [(1.0, X[:-1])], "Acc")

    def test_misaligned_groups_rejected(self):
        X, y = self.make_data()
        with pytest.raises(ValueError, match="group_by"):
            run_inference_attack(ThresholdModel(), (X, y), [(1.0, X.copy())],
                                 "Acc", group_by=np.zeros(3))

    def test_empty_variant_list_rejected(self):
        X, y = self.make_data()
        with pytest.raises(ValueError, match="no adversarial variants"):
            run_inference_attack(ThresholdModel(), (X, y), [(1.0, [])], "Acc")

    def shifted_variants(self, X):
        out = []
        for shift in (0.0, 0.5, 100.0):
            v = X.copy()
            v[:, 0] -= shift
            out.append(v)
        return out

    def test_streamed_variants_match_a_list_and_are_drawn_once(self):
        X, y = self.make_data()
        groups = np.array([i % 3 for i in range(len(y))])
        listed = [(x, self.shifted_variants(X)) for x in (0.5, 2.0)]
        drawn = []

        def stream(x):
            for v in self.shifted_variants(X):
                drawn.append(x)
                yield v

        streams = [(x, stream(x)) for x in (0.5, 2.0)]
        want = run_inference_attack(ThresholdModel(), (X, y), listed, "Acc", group_by=groups)
        got = run_inference_attack(ThresholdModel(), (X, y), iter(streams), "Acc",
                                   group_by=groups)
        assert got == want
        assert [p.n_trials for p in got.aggregate.points] == [3, 3]
        assert drawn == [0.5] * 3 + [2.0] * 3
        assert all(next(variants, None) is None for _, variants in streams)

    def test_misaligned_variant_mid_stream_rejected(self):
        X, y = self.make_data()
        stream = (v for v in (X.copy(), X[:-1], X.copy()))
        with pytest.raises(ValueError, match=r"x=2\.0 is not row-aligned"):
            run_inference_attack(ThresholdModel(), (X, y), [(1.0, X.copy()), (2.0, stream)],
                                 "Acc")

    def test_empty_variant_generator_rejected(self):
        X, y = self.make_data()
        with pytest.raises(ValueError, match="no adversarial variants"):
            run_inference_attack(ThresholdModel(), (X, y), [(1.0, (v for v in []))], "Acc")


class TestTrainingAttack:
    """Abstract poisoning harness on a toy estimator: the 'model' is the mean
    of its training numbers, poisoning replaces numbers with a large constant,
    and the metric is the absolute error against the clean mean."""

    def run(self, trials=3, ratios=(0.5, 1.0), seed=42):
        T = list(np.linspace(0.0, 1.0, 20))
        V = 0.5

        def trainer(T_now, seed_now):
            # deterministic in its inputs; the seed perturbs the 7th decimal
            # so two trials are distinguishable without changing the story
            rng = np.random.default_rng(seed_now)
            return float(np.mean(T_now) + 1e-7 * rng.random())

        def poison_fn(T_now, adversarial, ratio, seed_now):
            k = int(np.ceil(ratio * len(T_now)))
            return [100.0] * k + T_now[k:]

        def evaluator(model, V_now):
            return abs(model - V_now)

        return run_training_attack(trainer, T, V, ratios, adversarial_flows=None,
                                   trials=trials, seed=seed, poison_fn=poison_fn,
                                   evaluator=evaluator, metric_name="RMSE", name="toy")

    def test_ratio_zero_control_is_always_included(self):
        curve = self.run(ratios=(0.5,))
        assert xs(curve) == [0.0, 0.5]

    def test_baseline_equals_the_ratio_zero_mean(self):
        curve = self.run()
        assert curve.baseline == pytest.approx(curve.points[0].metric_mean)

    def test_more_poison_more_damage(self):
        curve = self.run()
        degs = degradations(curve)
        # the trials' ratio-0 values differ, and each trial is its own control
        assert len(set(curve.points[0].values)) == 3
        assert degs[0] == curve.points[0].degradation_std == 0.0
        assert degs[1] < degs[2]
        assert degs[2] > 10.0

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            self.run(ratios=(1.5,))


class TestSpoofValue:
    def test_floor_zero_reports_zero(self):
        assert spoof_value("floor_zero", 12.0, 5, seed=0) == 0.0

    def test_jitter_stays_in_range_and_near_truth(self):
        for step in range(50):
            v = spoof_value("jitter", 14.0, step, seed=3)
            assert 0.0 <= v <= 15.0
            assert abs(v - 14.0) <= 3.0

    def test_jitter_is_deterministic_per_step(self):
        assert spoof_value("jitter", 8.0, 7, seed=1) == spoof_value("jitter", 8.0, 7, seed=1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="spoof mode"):
            spoof_value("negate", 8.0, 0, seed=0)


def online_factory(seed=0, window=6, warmup_len=80):
    rng = np.random.default_rng(seed)
    warmup = 8.0 + np.cumsum(rng.uniform(-0.2, 0.2, size=warmup_len))
    spec = ModelSpec("recurrent", "regress",
                     {"window": window, "hidden_size": 5, "epochs": 25, "lr": 0.02},
                     seed=seed)
    base = init_online(spec, warmup)
    meta, arrays = base.to_state()
    return lambda: type(base).from_state(meta, arrays)


class TestOnlineAttack:
    def test_no_spoof_control_differential_is_exactly_zero(self):
        factory = online_factory()
        series = 8.0 + np.sin(np.arange(150) / 10.0)
        res = run_online_attack(factory, series, spoof_mode=None, period_s=60.0)
        assert np.all(res.differential == 0.0)
        assert np.array_equal(res.pred_clean, res.pred_attacked)
        assert res.spoof_steps == ()

    def test_spoof_slots_follow_the_period(self):
        factory = online_factory()
        series = np.full(130, 9.0)
        res = run_online_attack(factory, series, "floor_zero", period_s=60.0, dt=1.0)
        assert res.spoof_steps == (0, 60, 120)

    def test_spoofing_changes_only_the_attacked_twin(self):
        factory = online_factory()
        series = np.full(90, 9.0)
        clean = run_online_attack(factory, series, None)
        spoofed = run_online_attack(factory, series, "floor_zero")
        assert np.array_equal(clean.pred_clean, spoofed.pred_clean)
        assert not np.array_equal(spoofed.pred_clean, spoofed.pred_attacked)

    def test_validation_errors(self):
        factory = online_factory()
        with pytest.raises(ValueError, match="spoof mode"):
            run_online_attack(factory, np.ones(100), "negate")
        with pytest.raises(ValueError, match="shorter than one spoof period"):
            run_online_attack(factory, np.ones(10), None, period_s=60.0)
        with pytest.raises(ValueError, match="positive"):
            run_online_attack(factory, np.ones(100), None, period_s=0.0)
        with pytest.raises(ValueError, match="1 seeds for 2 spoof modes"):
            run_online_attacks(factory, np.ones(100), [None, "jitter"], seeds=[1])


def square_topology():
    """Two cells side by side, one UE near each gNB plus one attacker."""
    return SimpleNamespace(
        ue_positions=np.array([[30.0, 50.0], [60.0, 50.0], [150.0, 50.0]]),
        gnb_positions=np.array([[50.0, 50.0], [150.0, 40.0]]),
        serving=np.array([0, 0, 1]),
        cell_bounds=np.array([[0.0, 0.0, 100.0, 100.0],
                              [100.0, 0.0, 200.0, 100.0]]),
    )


class TestSpoofPositions:
    def test_step_zero_is_the_truth(self):
        topo = square_topology()
        steps = spoof_positions(topo, [0], step_count=4, max_offset=40.0)
        assert len(steps) == 5
        assert np.array_equal(steps[0], topo.ue_positions)

    def test_only_attacker_rows_move(self):
        topo = square_topology()
        steps = spoof_positions(topo, [0], step_count=4, max_offset=40.0)
        for pos in steps:
            assert np.array_equal(pos[1:], topo.ue_positions[1:])

    def test_lie_moves_radially_away_from_the_serving_gnb(self):
        topo = square_topology()
        steps = spoof_positions(topo, [0], step_count=2, max_offset=10.0)
        # attacker sits 20 m left of its gNB; the radial lie pushes it left
        assert steps[1][0].tolist() == [25.0, 50.0]
        assert steps[2][0].tolist() == [20.0, 50.0]

    def test_lie_clamps_at_the_cell_edge(self):
        topo = square_topology()
        steps = spoof_positions(topo, [0], step_count=1, max_offset=500.0)
        x, y = steps[1][0]
        assert x == 0.0 and 0.0 <= y <= 100.0

    def test_attacker_on_the_gnb_is_an_error(self):
        topo = square_topology()
        topo.ue_positions[0] = topo.gnb_positions[0]
        with pytest.raises(ValueError, match="base station"):
            spoof_positions(topo, [0])

    def test_bad_ids_and_counts(self):
        topo = square_topology()
        with pytest.raises(ValueError, match="attacker id"):
            spoof_positions(topo, [99])
        with pytest.raises(ValueError, match="step_count"):
            spoof_positions(topo, [0], step_count=0)
        with pytest.raises(ValueError, match="max_offset"):
            spoof_positions(topo, [0], max_offset=-1.0)
