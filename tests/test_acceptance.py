"""Release gate: one numbered test per behavioral guarantee.

Criteria 1..10 run unconditionally on synthetic data. Criteria 11..14 need
real datasets and skip unless MLSEC5G_REPLICATION_DATA names a directory
with this layout:

    $MLSEC5G_REPLICATION_DATA/
        cs1/            packets.csv + sessions.csv (canonical packet format)
        cs2.csv         16 measurement columns + CQI
        cs4.csv         iq_000..iq_255 + label + snr
        cs6.csv         8 subscription columns + Slice

Run with -v for one pass/fail line per criterion.
"""

import math
import os

import numpy as np
import pytest

from flow_oracle import handwritten_packets, naive_aggregate, naive_features
from test_models import central_difference, probe_network, rel_error
from views import degradations, xs

from mlsec5g.attacks import run_online_attack, run_online_attacks, run_training_attack
from mlsec5g.config import build_config, default_config
from mlsec5g.flows import (FEATURE_NAMES, aggregate_flows,
                           extract_feature_matrix, pad_payloads)
from mlsec5g.metrics import accuracy
from mlsec5g.models import ModelSpec, init_online
from mlsec5g.models.forest import train_forest
from mlsec5g.perturb import (ConstraintRule, DependencyGraph, DerivedField,
                             PerturbationSpec, apply_rsp)
from mlsec5g.repro import derive_seed
from mlsec5g.scenarios import generators as G
from mlsec5g.scenarios.generators import records_to_matrix
from mlsec5g.scenarios.runner import INTERNAL_PREFIXES, run_case_study
from mlsec5g.threat import tradeoff

FLOW_FIELDS = ("src_ip", "src_port", "dst_ip", "dst_port", "protocol",
               "first_ts", "last_ts", "src_pkts", "dst_pkts", "src_bytes",
               "dst_bytes", "src_tos", "dst_tos", "state")

REPLICATION_DIR = os.environ.get("MLSEC5G_REPLICATION_DATA", "")
needs_real_data = pytest.mark.skipif(
    not REPLICATION_DIR, reason="MLSEC5G_REPLICATION_DATA not set")


def test_criterion_01_controls_reproduce_the_baseline_exactly():
    # (a) a zero-intensity perturbation leaves every field bit-identical,
    # including fields recomputed through the dependency graph
    data = G.generate_cqi_records(seed=5, n=200)
    records = data["records"]
    spec = PerturbationSpec(
        "null_shift", ("pktRx",), "additive_std", (0.0, 1.0),
        constraints=(ConstraintRule("pktRx", lo=1.0, action="clamp"),
                     ConstraintRule("pktRxAiat", lo=0.0, action="clamp")),
        derived=DependencyGraph({"pktRx": (DerivedField("pktRxAiat",
                                                        rule="inverse_scale"),)}))
    out, log = apply_rsp(records, spec, 0, derive_seed(5, "rsp"))
    assert out == records
    assert log.counts()["rejected"] == 0

    # (b) the ratio-0 poisoning control retrains into the same model the
    # baseline run produces, value for value across trials
    subs = G.generate_subscriptions(seed=3, n=400)
    X = records_to_matrix(subs["records"], subs["schema"])
    y = subs["labels"]
    T = [(i, y[i]) for i in range(300)]
    V = (X[300:], y[300:])

    def trainer(pairs, s):
        rows = np.array([i for i, _ in pairs])
        labels = np.array([lbl for _, lbl in pairs])
        return train_forest(ModelSpec("forest", "classify", {"n_trees": 5},
                                      seed=s), X[rows], labels, subs["schema"])

    def poison_fn(pairs, adv, ratio, s):
        k = math.ceil(ratio * len(pairs))
        pick = np.random.default_rng([s & 0x7FFFFFFFFFFFFFFF, 1]).choice(
            len(pairs), size=k, replace=False)
        flipped = list(pairs)
        for i in pick:
            row, lbl = flipped[i]
            flipped[i] = (row, "URLLC" if lbl != "URLLC" else "mMTC")
        return flipped

    def evaluator(model, V_):
        Xv, yv = V_
        return accuracy(yv, model.predict(Xv))

    curve = run_training_attack(trainer, T, V, [0.5], None, trials=2, seed=11,
                                poison_fn=poison_fn, evaluator=evaluator,
                                metric_name="Acc")
    control = curve.points[0]
    assert control.x == 0.0
    twins = tuple(evaluator(trainer(T, derive_seed(11, "train", t)), V)
                  for t in range(2))
    assert control.values == twins

    # (c) a no-spoof online run is indistinguishable from its clean twin
    series = G.generate_cqi_series(seed=4, length=400, profile="static")["series"]
    base = init_online(ModelSpec("recurrent", "regress",
                                 {"window": 10, "hidden_size": 6, "epochs": 20},
                                 seed=2), series[:200])
    meta, arrays = base.to_state()
    factory = lambda: type(base).from_state(meta, arrays)
    res = run_online_attack(factory, series[200:], None, period_s=60.0)
    assert np.all(res.differential == 0.0)
    assert np.array_equal(res.crmse_clean, res.crmse_attacked)
    assert np.array_equal(res.pred_clean, res.pred_attacked)


def test_criterion_02_aggregator_matches_an_independent_reference():
    packets = handwritten_packets()
    assert len(packets) <= 200
    flows = aggregate_flows(packets, idle_timeout=60.0, active_timeout=300.0)
    expected = naive_aggregate(packets, idle_timeout=60.0, active_timeout=300.0)
    assert len(flows) == len(expected)
    for got, want in zip(flows, expected):
        for f in FLOW_FIELDS:
            assert getattr(got, f) == want[f], f"field {f}"
    # byte and packet conservation, exact
    assert sum(f.tot_bytes for f in flows) == sum(p.payload_len for p in packets)
    assert sum(f.tot_pkts for f in flows) == len(packets)
    ours = extract_feature_matrix(flows, INTERNAL_PREFIXES)
    ref = np.array([naive_features(w, INTERNAL_PREFIXES) for w in expected])
    assert ours.tolist() == ref.tolist()


def test_criterion_03_padding_touches_only_volume_features():
    data = G.generate_traffic(seed=7, n_hosts=143, sessions_per_host=7,
                              sessions_per_attacker=7)
    packets = data["packets"]
    attackers = set(data["attacker_ips"])
    padded = pad_payloads(packets, data["attacker_ips"], 300,
                          derive_seed(7, "pad"))
    clean_flows = aggregate_flows(packets)
    adv_flows = aggregate_flows(padded)
    assert len(clean_flows) == len(adv_flows) >= 1000
    for a, b in zip(clean_flows, adv_flows):
        assert (a.src_ip, a.src_port, a.dst_ip, a.dst_port) == \
               (b.src_ip, b.src_port, b.dst_ip, b.dst_port)

    Xc = extract_feature_matrix(clean_flows, INTERNAL_PREFIXES)
    Xa = extract_feature_matrix(adv_flows, INTERNAL_PREFIXES)
    rows = np.random.default_rng(7).choice(len(clean_flows), size=1000,
                                           replace=False)
    allowed = {"dur", "src_bytes", "dst_bytes", "tot_bytes", "tot_pkts"}
    diff_cols = {FEATURE_NAMES[j]
                 for j in range(len(FEATURE_NAMES))
                 if np.any(Xc[rows, j] != Xa[rows, j])}
    assert diff_cols <= allowed
    assert diff_cols  # the attack must actually move something
    # and only attacker traffic moved at all
    moved = {i for i in rows if np.any(Xc[i] != Xa[i])}
    assert all(clean_flows[i].src_ip in attackers or
               clean_flows[i].dst_ip in attackers for i in moved)


def test_criterion_04_removing_every_affected_feature_zeroes_the_residual():
    cs2 = build_config({
        "scenario": "cs2",
        "data": {"synthetic": {"n": 600}},
        "model": {"n_trees": 8},
        "attack": {"multipliers": [0.5, 1.0], "scopes": ["pktrx_shift"],
                   "replace_levels": 2},
        "defense": {"adversarial_training": False, "feature_removal": True},
    })
    cs6 = build_config({
        "scenario": "cs6",
        "data": {"synthetic": {"n": 600}},
        "model": {"n_trees": 5},
        "attack": {"multipliers": [0.5, 1.0], "insider": True},
        "defense": {"adversarial_training": False, "feature_removal": True},
    })
    for cfg in (cs2, cs6):
        report = run_case_study(cfg.scenario, config=cfg, stage="all")
        removal = [d for d in report.defenses if d.defense == "feature_removal"]
        assert removal, f"{cfg.scenario}: feature_removal defense missing"
        for point in removal[0].residual.points:
            assert point.degradation_mean == 0.0, \
                f"{cfg.scenario}: residual {point.degradation_mean} at x={point.x}"


def test_criterion_05_outsider_day_hour_sweep_never_flips_a_prediction():
    report = run_case_study("cs6", stage="attack")
    assert report.extras["outsider_variants"] == 7 * 24
    assert report.extras["outsider_successes"] == 0
    assert report.baseline["Acc"] >= 0.99


def test_criterion_06_position_lies_steal_power_within_every_budget():
    report = run_case_study("cs5", stage="attack")
    powers = report.extras["attacker_power_w"]
    assert all(b >= a for a, b in zip(powers, powers[1:]))
    assert any(b > a for a, b in zip(powers, powers[1:]))

    victim_se = np.asarray(report.extras["victim_se"])
    assert victim_se.shape[1] >= 1
    assert np.any(victim_se[-1] < victim_se[0])

    budgets = np.asarray(report.extras["budget_per_cell"])
    assert np.all(budgets <= report.extras["power_budget"] + 1e-9)


def test_criterion_07_ten_spoofed_reports_hurt_and_floor_zero_hurts_most():
    finals = {"floor_zero": [], "jitter": []}
    for s in range(10):
        series = G.generate_cqi_series(
            seed=derive_seed(s, "data", "high"), length=1200,
            profile="high")["series"]
        warmup, live = series[:600], series[600:]
        base = init_online(
            ModelSpec("recurrent", "regress",
                      {"window": 16, "hidden_size": 10, "epochs": 50, "lr": 0.02},
                      seed=derive_seed(s, "warmup", "high")),
            warmup)
        meta, arrays = base.to_state()
        factory = lambda: type(base).from_state(meta, arrays)
        modes = list(finals)
        results = run_online_attacks(
            factory, live, modes, period_s=60.0,
            seeds=[derive_seed(s, "spoof", "high", mode) for mode in modes])
        for mode, res in zip(modes, results):
            assert len(res.spoof_steps) == 10
            assert res.t[-1] == 600.0
            finals[mode].append(float(res.differential[-1]))
    mean_floor = float(np.mean(finals["floor_zero"]))
    mean_jitter = float(np.mean(finals["jitter"]))
    assert mean_floor > 0.0
    assert mean_jitter > 0.0
    assert mean_floor >= mean_jitter


def test_criterion_08_analytic_gradients_match_central_differences():
    model, X, y = probe_network("classify")
    assert model.n_params() == 10
    _, grad = model.loss_grad(X, y)
    assert rel_error(grad, central_difference(model, X, y)) <= 1e-4


def test_criterion_09_tradeoff_identity_and_reference_pairs():
    rng = np.random.default_rng(9)
    for p in rng.uniform(0.05, 1.0, size=100):
        assert tradeoff(float(p), float(p)).tradeoff == 1.0
    pairs = (((0.95, 0.94), 1.01), ((0.95, 0.95), 1.00),
             ((1.00, 0.667), 1.50), ((1.00, 1.00), 1.00))
    for (pb, ph), expected in pairs:
        assert round(tradeoff(pb, ph).tradeoff, 2) == expected


def test_criterion_10_top_features_beat_random_features_from_mid_intensity():
    model = {"forest": {"n_trees": 20}, "network": {"hidden": [16], "epochs": 8}}
    top_by_seed, rand_by_seed = [], []
    multipliers = None
    for s in range(10):
        cfg = default_config("cs4", seed=s, model=model)
        report = run_case_study("cs4", config=cfg, stage="attack")
        curves = {c.name: c for c in report.curves}
        top_by_seed.append(degradations(curves["cs4/top25"]))
        rand_by_seed.append(degradations(curves["cs4/random25"]))
        multipliers = xs(curves["cs4/top25"])
    top_avg = np.mean(top_by_seed, axis=0)
    rand_avg = np.mean(rand_by_seed, axis=0)
    for i in range(2, len(multipliers)):
        assert top_avg[i] >= rand_avg[i], \
            f"guided {top_avg[i]:.4f} < random {rand_avg[i]:.4f} " \
            f"at multiplier {multipliers[i]}"


@needs_real_data
def test_criterion_11_real_cqi_regression_and_hardening_cost():
    cfg = build_config({"scenario": "cs2",
                        "data": {"path": os.path.join(REPLICATION_DIR, "cs2.csv")}})
    report = run_case_study("cs2", config=cfg, stage="all")
    assert abs(report.baseline["Acc"] - 0.95) <= 0.05
    assert abs(report.baseline["RMSE"] - 0.22) <= 0.05
    at = [d for d in report.defenses if d.defense == "adversarial_training"]
    assert at and abs(at[0].tradeoff.tradeoff - 1.01) <= 0.01


@needs_real_data
def test_criterion_12_real_traffic_classification_and_distillation_cost():
    cfg = build_config({"scenario": "cs1",
                        "data": {"path": os.path.join(REPLICATION_DIR, "cs1")}})
    report = run_case_study("cs1", config=cfg, stage="all")
    assert abs(report.baseline["Acc"] - 0.99) <= 0.03
    assert abs(report.baseline["F1"] - 0.81) <= 0.03
    dist = [d for d in report.defenses if d.defense == "distillation"]
    assert dist and abs(dist[0].tradeoff.tradeoff - 0.97) <= 0.02


@needs_real_data
def test_criterion_13_real_modulation_accuracy_at_snr_10():
    cfg = build_config({"scenario": "cs4",
                        "data": {"path": os.path.join(REPLICATION_DIR, "cs4.csv"),
                                 "format": {"snr": 10}}})
    report = run_case_study("cs4", config=cfg, stage="train")
    assert abs(report.baseline["Acc_forest"] - 0.82) <= 0.05
    assert abs(report.baseline["Acc_network"] - 0.72) <= 0.05


@needs_real_data
def test_criterion_14_real_slice_assignment_and_removal_cost():
    cfg = build_config({"scenario": "cs6",
                        "data": {"path": os.path.join(REPLICATION_DIR, "cs6.csv")}})
    report = run_case_study("cs6", config=cfg, stage="all")
    assert report.baseline["Acc"] == 1.0
    removal = [d for d in report.defenses if d.defense == "feature_removal"]
    assert removal and abs(removal[0].tradeoff.tradeoff - 1.50) <= 0.02
