"""Case-study drivers: wire data, perturbations, models, attacks, defenses.

Every driver follows the same arc: obtain data (synthetic or ingested), apply
raw-space perturbations where the scenario calls for them, push clean and
adversarial data through the one shared feature-extraction path, split,
train, measure the baseline, run the staged attacks, and score defenses.
The master seed fans out through derive_seed(seed, stage, ...) so any stage
can be reproduced in isolation.

The drivers share their common steps: _load_data (synthetic or ingested
data), _apply_levels (one row-aligned adversarial matrix per perturbation
level, with its provenance), _plot_rows (a curve's points as plot rows) and
_defend (adversarial training and feature removal against one perturbation,
each scored against the baseline).

Stage depths: "generate" stops after data, "train" after the baseline,
"attack" after degradation curves, "defend"/"report"/"all" run everything.

cs3's channel profiles share nothing, so each profile's warm-up and online
streams run through `fork_map`, in forked worker processes when there are
CPUs to spare, and the report is built from their results in profile order:
the same bits for any worker count. Its per-profile timings (`train[p]`,
`attack[p]` or `control[p]`) are measured inside the workers and overlap, so
they can sum to more than the wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .. import metrics as M
from ..attacks import (CurvePoint, DegradationCurve, run_inference_attack,
                       run_online_attacks, run_training_attack, spoof_positions,
                       summarize_curve)
from ..config import ExperimentConfig, STAGES, build_config, default_config
from ..defenses import adversarial_training, evaluate_defense, feature_removal
from ..flows import (FEATURE_NAMES, LabelRule, aggregate_flows,
                     extract_feature_matrix, label_flows, pad_payloads,
                     poison_training_set)
from ..forkmap import fork_map
from ..models import ModelSpec, train
from ..models.forest import distill_forest, train_forest
from ..models.network import train_network
from ..models.recurrent import OnlineRecurrentModel, init_online
from ..perturb import (ConstraintRule, DependencyGraph, DerivedField,
                       PerturbationSpec, apply_rsp)
from ..report import ExperimentReport
from ..repro import derive_seed, fingerprint
from ..threat import FeatureScope, validate_scope
from . import generators as G
from .adapters import ingest_real_dataset
from .generators import records_to_matrix
from .mimo import ground_truth_power, normalize_powers, spectral_efficiency

INTERNAL_PREFIXES = ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16")

_DEPTH = {"generate": 0, "train": 1, "attack": 2, "defend": 3,
          "report": 3, "all": 3}


@contextmanager
def _timed(timings: dict, name: str):
    t0 = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


def _split(n: int, train_frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled split; both halves keep ascending order."""
    perm = np.random.default_rng([seed & 0x7FFFFFFFFFFFFFFF, 0x5117]).permutation(n)
    k = int(round(train_frac * n))
    return np.sort(perm[:k]), np.sort(perm[k:])


def _scope_dict(scope: FeatureScope) -> dict:
    """The scope's four sets as lists, for the report; an invalid scope is fatal."""
    problems = validate_scope(scope)
    if problems:
        raise ValueError("invalid feature scope: " + "; ".join(problems))
    return {
        "full": list(scope.full_set),
        "known": list(scope.known),
        "conscious": list(scope.conscious),
        "affected": list(scope.affected),
    }


def run_case_study(scenario, config: ExperimentConfig | None = None,
                   seed: int | None = None, stage: str = "all") -> ExperimentReport:
    """Execute one scenario end to end and return its report.

    scenario accepts "cs1".."cs6" or the bare integer 1..6. config defaults
    to the scenario's stock configuration; seed, when given, overrides the
    config's. The report's artifacts are written by the caller.
    """
    if isinstance(scenario, int):
        scenario = f"cs{scenario}"
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    if config is None:
        config = default_config(scenario, seed=seed if seed is not None else 0)
    if config.scenario != scenario:
        raise ValueError(
            f"config is for {config.scenario!r}, requested {scenario!r}")
    if seed is not None and seed != config.seed:
        config = build_config({**config.to_dict(), "seed": seed})
    driver = {
        "cs1": _run_cs1, "cs2": _run_cs2, "cs3": _run_cs3,
        "cs4": _run_cs4, "cs5": _run_cs5, "cs6": _run_cs6,
    }[scenario]
    return driver(config, _DEPTH[stage], stage)


def _new_report(config: ExperimentConfig, stage: str) -> ExperimentReport:
    return ExperimentReport(scenario=config.scenario,
                            config_fingerprint=config.fingerprint(),
                            seed=config.seed, stage=stage)


def _load_data(config: ExperimentConfig, scenario: str, seed: int):
    if "path" in config.data:
        return ingest_real_dataset(scenario, config.data["path"],
                                   config.data.get("format"))
    params = dict(config.data.get("synthetic", {}))
    return G.generate_scenario_data(scenario, seed=seed, **params)


def _plot_rows(report: ExperimentReport, figure: str, series: str, curve,
               x_of=lambda x: x) -> None:
    """One plot row (figure, series, x, mean, std) per point of the curve."""
    for p in curve.points:
        report.plot_series.append(
            (figure, series, x_of(p.x), p.metric_mean, p.metric_std))


def _apply_levels(records, spec, schema, seed):
    """One adversarial matrix per level; alignment-breaking rejects are fatal."""
    sets = []
    logs = []
    for li, level in enumerate(spec.intensity_levels):
        out, plog = apply_rsp(records, spec, li, seed)
        if len(out) != len(records):
            raise RuntimeError(
                f"{spec.name}: {plog.n_rejected} records rejected; "
                "row-aligned evaluation impossible")
        sets.append((level, records_to_matrix(out, schema)))
        logs.append({"spec": spec.name, "level": level, **plog.counts()})
    return sets, logs


def _defend(report, config, data, tr, va, baseline, task, spec, removed,
            adv_sets, metric_fn) -> None:
    """Adversarial training against spec and removal of the features it
    affects, each scored against the baseline on the same adversarial sets.

    data is (records, X, y, schema); the forests train on config.model.
    """
    records, X, y, schema = data
    seed = config.seed

    def trainer(X_, y_, schema_, s):
        return train_forest(ModelSpec("forest", task, config.model, seed=s),
                            X_, y_, schema_)

    def scored(model, defense):
        report.defenses.append(evaluate_defense(
            baseline, model, (X[va], y[va], schema), adv_sets, "Acc",
            metric_fn=metric_fn, defense=defense))

    at_cfg = config.defense.get("adversarial_training")
    if at_cfg:
        frac = float(at_cfg.get("aug_fraction", 0.05)) \
            if isinstance(at_cfg, dict) else 0.05
        scored(adversarial_training(
            trainer, [records[i] for i in tr], y[tr], [spec],
            lambda recs: records_to_matrix(recs, schema), schema,
            derive_seed(seed, "advtrain"), aug_fraction=frac),
            "adversarial_training")
    if config.defense.get("feature_removal"):
        scored(feature_removal(trainer, X[tr], y[tr], schema, removed,
                               derive_seed(seed, "removal")),
               "feature_removal")


# ---------------------------------------------------------------------------
# cs1: flow classification under payload padding and poisoning


def _run_cs1(config: ExperimentConfig, depth: int, stage: str) -> ExperimentReport:
    report = _new_report(config, stage)
    seed = config.seed
    timings = report.timings

    with _timed(timings, "data"):
        data = _load_data(config, "cs1", derive_seed(seed, "data"))
        packets = data["packets"]
        session_labels = data["session_labels"]
        attackers = tuple(data["attacker_ips"])
        rule = LabelRule("session", lambda f: session_labels.get((f.src_ip, f.src_port)))

        flows = label_flows(aggregate_flows(packets), [rule])
        X = extract_feature_matrix(flows, INTERNAL_PREFIXES)
        y = np.array([f.label for f in flows])
        attacker_row = np.array([f.src_ip in set(attackers) for f in flows])

    extractor_fp = fingerprint({"extractor": "flow13",
                                "features": list(FEATURE_NAMES),
                                "internal": list(INTERNAL_PREFIXES)})
    report.extras.update({
        "n_packets": len(packets),
        "n_flows": len(flows),
        "attacker_flow_share": float(attacker_row.mean()),
        "classes": sorted(set(y.tolist())),
        "scope": _scope_dict(FeatureScope(
            full_set=FEATURE_NAMES,
            known=("src_ip_type", "dst_ip_type", "src_port_type", "dst_port_type",
                   "dur", "tot_bytes", "tot_pkts"),
            conscious=("tot_bytes", "tot_pkts"),
            affected=("dur", "src_bytes", "dst_bytes", "tot_bytes", "tot_pkts"))),
        "extractor_fingerprint": extractor_fp,
    })
    if depth < 1:
        return report

    with _timed(timings, "train"):
        tr, va = _split(len(flows), 0.8, derive_seed(seed, "split"))
        model_spec = ModelSpec("forest", "classify", config.model,
                               seed=derive_seed(seed, "model"))
        baseline = train_forest(model_spec, X[tr], y[tr], FEATURE_NAMES)
        pred_va = baseline.predict(X[va])
        counts = {c: int(np.sum(y[tr] == c)) for c in sorted(set(y[tr].tolist()))}
        positive = min(counts, key=lambda c: (counts[c], c))
        report.baseline.update({
            "Acc": M.accuracy(y[va], pred_va),
            "F1": M.f1_score(y[va], pred_va, positive),
        })
        report.extras["f1_positive_class"] = positive
    if depth < 2:
        return report

    attack_cfg = config.attack
    multipliers = [float(m) for m in attack_cfg["multipliers"]]
    with _timed(timings, "attack"):
        data_payloads = [p.payload_len for p in packets
                         if p.src_ip in set(attackers) and p.payload_len > 0]
        pay_std = float(np.std(np.asarray(data_payloads, dtype=float))) \
            if data_payloads else 0.0
        pad_seed = derive_seed(seed, "pad")
        bounds = [int(round(m * pay_std)) for m in multipliers]
        adv_flows_by_level = []
        adversarial_sets = []
        for m, bound in zip(multipliers, bounds):
            padded = pad_payloads(packets, attackers, bound, pad_seed)
            n_padded = sum(1 for a, b in zip(packets, padded)
                           if a.payload_len != b.payload_len)
            adv_flows = label_flows(aggregate_flows(padded), [rule])
            if len(adv_flows) != len(flows):
                raise RuntimeError("padding changed the flow count; twin pairing broken")
            X_adv = extract_feature_matrix(adv_flows, INTERNAL_PREFIXES)
            adv_flows_by_level.append(adv_flows)
            adversarial_sets.append((m, X_adv[va]))
            report.provenance.append({"operation": "pad_payload", "bound_bytes": bound,
                                      "packets_padded": n_padded})

        inference = run_inference_attack(
            baseline, (X[va], y[va]), adversarial_sets, "Acc",
            group_by=attacker_row[va], name="cs1/inference",
            x_label="pad_multiplier")
        report.curves.append(inference.aggregate)
        report.curves.extend(
            replace(curve, name=f"cs1/inference[{'attacker' if gid else 'other'}_rows]")
            for gid, curve in inference.per_group.items())
        for curve in report.curves:
            _plot_rows(report, "cs1_inference", curve.name.split("cs1/", 1)[1], curve)

        T_flows = [flows[i] for i in tr]
        poison_twins = adv_flows_by_level[attack_cfg["pad_level_index"]]

        def trainer(flow_list, train_seed):
            Xp = extract_feature_matrix(flow_list, INTERNAL_PREFIXES)
            yp = np.array([f.label for f in flow_list])
            return train_forest(ModelSpec("forest", "classify", config.model,
                                          seed=train_seed), Xp, yp, FEATURE_NAMES)

        def poison_fn(T, adversarial_flows, ratio, poison_seed):
            return poison_training_set(T, attackers, ratio, adversarial_flows,
                                       poison_seed)

        def evaluator(model, V):
            Xv, yv = V
            return M.accuracy(yv, model.predict(Xv))

        poison_curve = run_training_attack(
            trainer, T_flows, (X[va], y[va]), [float(r) for r in attack_cfg["ratios"]],
            poison_twins, int(attack_cfg["trials"]), derive_seed(seed, "poison-stage"),
            poison_fn, evaluator, "Acc", name="cs1/poisoning")
        report.curves.append(poison_curve)
        _plot_rows(report, "cs1_poisoning", "poisoned_acc", poison_curve,
                   x_of=lambda x: int(round(x * 100)))
    if depth < 3:
        return report

    with _timed(timings, "defend"):
        if config.defense.get("distillation"):
            student = distill_forest(baseline, X[tr], seed=derive_seed(seed, "distill"))
            ev = evaluate_defense(baseline, student, (X[va], y[va], FEATURE_NAMES),
                                  adversarial_sets, "Acc", defense="distillation")
            report.defenses.append(ev)
    return report


# ---------------------------------------------------------------------------
# cs2: channel-quality regression under measurement perturbations


def _cs2_specs(records, multipliers, replace_levels):
    """The four attacker scopes: what each one consciously touches."""
    rsrp_pool = tuple(float(r["RSRP"]) for r in records)
    rsrq_pool = tuple(float(r["RSRQ"]) for r in records)
    aiat_graph = DependencyGraph({
        "pktRx": (DerivedField("pktRxAiat", rule="inverse_scale"),),
    })
    known = ("RSRP", "RSRQ", "pktRx", "pktRxByt", "pktRxAiat", "PHR")
    base_specs = {
        "rsrp_replace": PerturbationSpec(
            "rsrp_replace", ("RSRP",), "replace_random",
            tuple(float(i) for i in range(1, replace_levels + 1)),
            params={"donor_pool": rsrp_pool, "linked": {"RSRQ": rsrq_pool}}),
        "pktrxbyt_shift": PerturbationSpec(
            "pktrxbyt_shift", ("pktRxByt",), "additive_std", tuple(multipliers),
            constraints=(ConstraintRule("pktRxByt", lo=0.0, action="clamp"),)),
        "pktrx_shift": PerturbationSpec(
            "pktrx_shift", ("pktRx",), "additive_std", tuple(multipliers),
            constraints=(ConstraintRule("pktRx", lo=1.0, action="clamp"),
                         ConstraintRule("pktRxAiat", lo=0.0, action="clamp")),
            derived=aiat_graph),
        "both_counters": PerturbationSpec(
            "both_counters", ("pktRx", "pktRxByt"), "additive_std",
            tuple(multipliers),
            constraints=(ConstraintRule("pktRx", lo=1.0, action="clamp"),
                         ConstraintRule("pktRxByt", lo=0.0, action="clamp"),
                         ConstraintRule("pktRxAiat", lo=0.0, action="clamp")),
            derived=aiat_graph),
    }
    scopes = {
        "rsrp_replace": FeatureScope(G.CQI_FEATURES, known=known,
                                     conscious=("RSRP",),
                                     affected=("RSRP", "RSRQ")),
        "pktrxbyt_shift": FeatureScope(G.CQI_FEATURES, known=known,
                                       conscious=("pktRxByt",),
                                       affected=("pktRxByt",)),
        "pktrx_shift": FeatureScope(G.CQI_FEATURES, known=known,
                                    conscious=("pktRx",),
                                    affected=("pktRx", "pktRxAiat")),
        "both_counters": FeatureScope(G.CQI_FEATURES, known=known,
                                      conscious=("pktRx", "pktRxByt"),
                                      affected=("pktRx", "pktRxByt", "pktRxAiat")),
    }
    return base_specs, scopes


def _run_cs2(config: ExperimentConfig, depth: int, stage: str) -> ExperimentReport:
    report = _new_report(config, stage)
    seed = config.seed
    timings = report.timings

    with _timed(timings, "data"):
        data = _load_data(config, "cs2", derive_seed(seed, "data"))
        records = data["records"]
        y = np.asarray(data["targets"], dtype=float)
        schema = tuple(data["schema"])
        X = records_to_matrix(records, schema)

    report.extras["extractor_fingerprint"] = fingerprint(
        {"extractor": "column_order", "features": list(schema)})
    report.extras["n_records"] = len(records)
    if depth < 1:
        return report

    with _timed(timings, "train"):
        tr, va = _split(len(records), 0.9, derive_seed(seed, "split"))
        spec = ModelSpec("forest", "regress", config.model,
                         seed=derive_seed(seed, "model"))
        baseline = train_forest(spec, X[tr], y[tr], schema)
        pred_va = baseline.predict(X[va])
        report.baseline.update({
            "RMSE": M.rmse(y[va], pred_va),
            "Acc": M.cqi_accuracy(y[va], pred_va),
        })
    if depth < 2:
        return report

    attack_cfg = config.attack
    multipliers = [float(m) for m in attack_cfg["multipliers"]]
    replace_levels = int(attack_cfg["replace_levels"])
    specs, scopes = _cs2_specs(records, multipliers, replace_levels)
    report.extras["scopes"] = {name: _scope_dict(s) for name, s in scopes.items()}

    v_records = [records[i] for i in va]
    sets_by_scope = {}
    with _timed(timings, "attack"):
        for name in attack_cfg["scopes"]:
            pspec = specs[name]
            sets, logs = _apply_levels(v_records, pspec, schema,
                                       derive_seed(seed, "rsp", name))
            sets_by_scope[name] = sets
            report.provenance.extend(logs)
            curve = run_inference_attack(
                baseline, (X[va], y[va]), sets, "RMSE",
                name=f"cs2/{name}",
                x_label="draw" if pspec.mode == "replace_random" else "multiplier"
            ).aggregate
            report.curves.append(curve)
            _plot_rows(report, "cs2_scopes", name, curve)
    if depth < 3:
        return report

    with _timed(timings, "defend"):
        canonical = "pktrx_shift"
        if canonical in sets_by_scope:
            _defend(report, config, (records, X, y, schema), tr, va, baseline,
                    "regress", specs[canonical], scopes[canonical].affected,
                    sets_by_scope[canonical], M.cqi_accuracy)
            for d in report.defenses:
                _plot_rows(report, "cs2_defenses", d.defense, d.residual)
    return report


# ---------------------------------------------------------------------------
# cs3: online channel-quality prediction under spoofed reports


def _run_cs3(config: ExperimentConfig, depth: int, stage: str) -> ExperimentReport:
    report = _new_report(config, stage)
    seed = config.seed
    timings = report.timings

    syn = dict(config.data.get("synthetic", {}))
    profiles = list(syn.pop("profiles", ["static", "driving"]))
    series_by_profile = {}
    with _timed(timings, "data"):
        if "path" in config.data:
            data = _load_data(config, "cs3", derive_seed(seed, "data"))
            series_by_profile[data.get("profile", "real")] = \
                np.asarray(data["series"], dtype=float)
        else:
            for profile in profiles:
                data = G.generate_cqi_series(seed=derive_seed(seed, "data", profile),
                                             profile=profile, **syn)
                series_by_profile[profile] = data["series"]
    report.extras["profiles"] = sorted(series_by_profile)
    report.extras["extractor_fingerprint"] = fingerprint(
        {"extractor": "sliding_window",
         "window": int(config.model.get("window", 30))})
    if depth < 1:
        return report

    spoof_modes = list(config.attack["spoof_modes"])
    period_s = float(config.attack["period_s"])
    # one clean stream shared by the no-spoof control and every spoof mode
    modes = [None, *spoof_modes] if depth >= 2 else [None]
    attack_key = "attack" if depth >= 2 else "control"

    def run_profile(profile):
        """One profile's warm-up and lockstep streams, with their timings."""
        series = series_by_profile[profile]
        half = series.size // 2
        warmup, live = series[:half], series[half:]
        profile_timings = {}
        with _timed(profile_timings, f"train[{profile}]"):
            mspec = ModelSpec("recurrent", "regress", config.model,
                              seed=derive_seed(seed, "warmup", profile))
            meta, arrays = init_online(mspec, warmup).to_state()

        def factory():
            return OnlineRecurrentModel.from_state(meta, arrays)

        seeds = [0] + [derive_seed(seed, "spoof", profile, mode) for mode in modes[1:]]
        with _timed(profile_timings, f"{attack_key}[{profile}]"):
            results = run_online_attacks(factory, live, modes, period_s=period_s, seeds=seeds)
        return results, profile_timings

    finals = {}
    profiles = sorted(series_by_profile)
    for profile, ((control, *attacked), profile_timings) in zip(
            profiles, fork_map(run_profile, profiles)):
        timings.update(profile_timings)
        report.baseline[f"CRMSE[{profile}]"] = float(control.crmse_clean[-1])
        report.extras[f"control_zero[{profile}]"] = bool(
            np.all(control.differential == 0.0))
        for mode, res in zip(spoof_modes, attacked):
            finals[(profile, mode)] = float(res.differential[-1])
            points = []
            stride = max(1, res.t.size // 60)
            idx = sorted(set(range(0, res.t.size, stride)) | {res.t.size - 1})
            for i in idx:
                points.append(CurvePoint(
                    x=float(res.t[i]),
                    metric_mean=float(res.crmse_attacked[i]), metric_std=0.0,
                    degradation_mean=float(res.differential[i]),
                    degradation_std=0.0, n_trials=1,
                    values=(float(res.crmse_attacked[i]),)))
            report.curves.append(DegradationCurve(
                name=f"cs3/{profile}/{mode}", metric_name="CRMSE",
                orientation="lower_better", x_label="t_s",
                baseline=float(res.crmse_clean[-1]), points=points))
            for i in idx:
                report.plot_series.append(
                    ("cs3_differential", f"{profile}/{mode}",
                     float(res.t[i]), float(res.differential[i]), 0.0))
            report.extras[f"spoof_count[{profile}/{mode}]"] = len(res.spoof_steps)
    report.extras["final_differential"] = {
        f"{p}/{m}": v for (p, m), v in sorted(finals.items())}
    return report


# ---------------------------------------------------------------------------
# cs4: modulation recognition and importance-guided perturbations


def _run_cs4(config: ExperimentConfig, depth: int, stage: str) -> ExperimentReport:
    report = _new_report(config, stage)
    seed = config.seed
    timings = report.timings

    with _timed(timings, "data"):
        data = _load_data(config, "cs4", derive_seed(seed, "data"))
        X = np.asarray(data["X"], dtype=float)
        y = np.asarray(data["y"])
        schema = tuple(data["schema"])
    report.extras["n_samples"] = int(X.shape[0])
    report.extras["extractor_fingerprint"] = fingerprint(
        {"extractor": "identity_iq", "features": len(schema)})
    report.reference_constants.update({
        "prior_reported_forest_acc_snr10": 0.82,
        "prior_reported_network_acc_snr10": 0.72,
    })
    if depth < 1:
        return report

    with _timed(timings, "train"):
        tr, va = _split(X.shape[0], 0.5, derive_seed(seed, "split"))
        forest = train_forest(
            ModelSpec("forest", "classify", config.model.get("forest", {}),
                      seed=derive_seed(seed, "model", "forest")),
            X[tr], y[tr], schema)
        network = train_network(
            ModelSpec("feedforward", "classify", config.model.get("network", {}),
                      seed=derive_seed(seed, "model", "network")),
            X[tr], y[tr], schema)
        report.baseline.update({
            "Acc_forest": M.accuracy(y[va], forest.predict(X[va])),
            "Acc_network": M.accuracy(y[va], network.predict(X[va])),
        })
    if depth < 2:
        return report

    attack_cfg = config.attack
    multipliers = [float(m) for m in attack_cfg["multipliers"]]
    top_k = int(attack_cfg["top_k"])
    random_trials = int(attack_cfg["random_trials"])
    with _timed(timings, "attack"):
        stds = X.std(axis=0)
        importance = forest.feature_importance()
        top_names = importance.top(top_k)
        name_to_col = {n: i for i, n in enumerate(schema)}
        top_idx = np.array([name_to_col[n] for n in top_names], dtype=int)

        def shifted(rows_X, cols, mult):
            out = rows_X.copy()
            out[:, cols] += mult * stds[cols]
            return out

        top_sets = [(m, shifted(X[va], top_idx, m)) for m in multipliers]
        top_curve = run_inference_attack(forest, (X[va], y[va]), top_sets, "Acc",
                                         name="cs4/top25",
                                         x_label="multiplier").aggregate
        report.curves.append(top_curve)

        rand_sets = []
        for m in multipliers:
            variants = []
            for t in range(random_trials):
                rng = np.random.default_rng(
                    [derive_seed(seed, "rand25", t) & 0x7FFFFFFFFFFFFFFF, 0x24])
                cols = rng.choice(X.shape[1], size=top_k, replace=False)
                variants.append(shifted(X[va], cols, m))
            rand_sets.append((m, variants))
        rand_curve = run_inference_attack(forest, (X[va], y[va]), rand_sets, "Acc",
                                          name="cs4/random25",
                                          x_label="multiplier").aggregate
        report.curves.append(rand_curve)

        net_curve = run_inference_attack(network, (X[va], y[va]), top_sets, "Acc",
                                         name="cs4/top25_network",
                                         x_label="multiplier").aggregate
        report.curves.append(net_curve)

        for curve, series in ((top_curve, "top25_forest"),
                              (rand_curve, "random25_forest"),
                              (net_curve, "top25_network")):
            _plot_rows(report, "cs4_importance", series, curve)
        informative = data.get("informative")
        report.extras["top_features"] = top_names
        if informative is not None:
            hit = len(set(top_idx.tolist()) & set(np.asarray(informative).tolist()))
            report.extras["top_k_informative_overlap"] = hit
    return report


# ---------------------------------------------------------------------------
# cs5: downlink power allocation under position spoofing


def _resolve_attackers(setting, topo) -> list[int]:
    """attacker_ids: explicit indices, or "closest" for the terminal with the
    most room to lie (nearest its own station, so the outward ray is longest)."""
    if setting == "closest" or setting == ["closest"]:
        d = np.linalg.norm(
            topo.ue_positions - topo.gnb_positions[topo.serving], axis=1)
        return [int(np.argmin(d))]
    return [int(a) for a in setting]


def _ray_headroom(topo, k: int) -> float:
    """Distance from terminal k to its cell boundary along the outward ray."""
    g = topo.gnb_positions[topo.serving[k]]
    p = topo.ue_positions[k]
    u = p - g
    norm = float(np.hypot(u[0], u[1]))
    if norm == 0.0:
        raise ValueError(f"terminal {k} sits exactly on its base station")
    u = u / norm
    xmin, ymin, xmax, ymax = topo.cell_bounds[topo.serving[k]]
    s = float("inf")
    for ui, lo, hi, pi in ((u[0], xmin, xmax, p[0]), (u[1], ymin, ymax, p[1])):
        if ui > 0:
            s = min(s, (hi - pi) / ui)
        elif ui < 0:
            s = min(s, (lo - pi) / ui)
    return s


def _run_cs5(config: ExperimentConfig, depth: int, stage: str) -> ExperimentReport:
    report = _new_report(config, stage)
    seed = config.seed
    timings = report.timings

    with _timed(timings, "data"):
        data = _load_data(config, "cs5", derive_seed(seed, "data"))
        X = np.asarray(data["X"], dtype=float)
        Y = np.asarray(data["Y"], dtype=float)
        schema = tuple(data["schema"])
        topo = data["topology"]
    report.extras["n_placements"] = int(X.shape[0])
    report.extras["n_ues"] = int(topo.n_ues)
    report.extras["extractor_fingerprint"] = fingerprint(
        {"extractor": "flatten_positions", "features": list(schema)})
    if depth < 1:
        return report

    with _timed(timings, "train"):
        tr, va = _split(X.shape[0], 0.9, derive_seed(seed, "split"))
        mspec = ModelSpec("feedforward", "vector_regress", config.model,
                          seed=derive_seed(seed, "model"))
        model = train(mspec, X[tr], Y[tr], schema)
        pred_va = model.predict(X[va])
        canonical = topo.ue_positions.ravel()[None, :]
        p_model = normalize_powers(topo, model.predict(canonical)[0])
        p_oracle = ground_truth_power(topo)
        se_model = spectral_efficiency(topo, p_model)
        se_oracle = spectral_efficiency(topo, p_oracle)
        report.baseline.update({
            "RMSE_power": M.rmse(Y[va].ravel(), np.asarray(pred_va).ravel()),
            "SE": float(se_model.mean()),
            "SE_oracle": float(se_oracle.mean()),
        })
    if depth < 2:
        return report

    attack_cfg = config.attack
    attacker_ids = _resolve_attackers(attack_cfg["attacker_ids"], topo)
    step_count = int(attack_cfg["step_count"])
    max_offset = float(attack_cfg["max_offset"])
    with _timed(timings, "attack"):
        # cap the lie at the serving cell's edge: beyond it the spoofed
        # position would clamp and consecutive steps would collapse together
        headroom = min(_ray_headroom(topo, a) for a in attacker_ids)
        max_offset = min(max_offset, 0.98 * headroom)
        sweep = spoof_positions(topo, attacker_ids, step_count, max_offset)
        offsets = [s / step_count * max_offset for s in range(step_count + 1)]
        powers_steps = []
        se_steps = []
        for pos in sweep:
            raw = model.predict(pos.ravel()[None, :])[0]
            p = normalize_powers(topo, raw)
            powers_steps.append(p)
            se_steps.append(spectral_efficiency(topo, p,
                                                true_positions=topo.ue_positions))
        powers_steps = np.asarray(powers_steps)
        se_steps = np.asarray(se_steps)

        attacker = attacker_ids[0]
        cell = int(topo.serving[attacker])
        victims = [int(k) for k in topo.cell_members(cell) if k != attacker]
        budgets = np.array([[powers_steps[s][topo.cell_members(c)].sum()
                             for c in range(topo.n_cells)]
                            for s in range(len(sweep))])

        report.curves.append(summarize_curve(
            "cs5/mean_se", "SE", "higher_better", "offset_m",
            float(se_steps[0].mean()),
            [(off, [float(se_steps[s].mean())]) for s, off in enumerate(offsets)]))

        for s, off in enumerate(offsets):
            report.plot_series.append(
                ("cs5_sweep", "attacker_power", off,
                 float(powers_steps[s][attacker]), 0.0))
            report.plot_series.append(
                ("cs5_sweep", "victim_se_min", off,
                 float(se_steps[s][victims].min()) if victims else 0.0, 0.0))
            report.plot_series.append(
                ("cs5_sweep", "mean_se", off, float(se_steps[s].mean()), 0.0))
        report.extras.update({
            "attacker": attacker,
            "attacker_cell": cell,
            "victims_same_cell": victims,
            "offsets_m": [float(o) for o in offsets],
            "attacker_power_w": powers_steps[:, attacker].tolist(),
            "victim_se": se_steps[:, victims].tolist() if victims else [],
            "se_mean_per_step": se_steps.mean(axis=1).tolist(),
            "budget_per_cell": budgets.tolist(),
            "power_budget": float(topo.power_budget),
        })
        report.provenance.append({
            "operation": "translate_position", "steps": len(sweep),
            "max_offset_m": max_offset, "attackers": attacker_ids,
        })
    return report


# ---------------------------------------------------------------------------
# cs6: slice assignment, outsider sweep and insider perturbations


def _run_cs6(config: ExperimentConfig, depth: int, stage: str) -> ExperimentReport:
    report = _new_report(config, stage)
    seed = config.seed
    timings = report.timings

    with _timed(timings, "data"):
        data = _load_data(config, "cs6", derive_seed(seed, "data"))
        records = data["records"]
        y = np.asarray(data["labels"])
        schema = tuple(data["schema"])
        X = records_to_matrix(records, schema)
    report.extras["n_records"] = len(records)
    report.extras["extractor_fingerprint"] = fingerprint(
        {"extractor": "column_order", "features": list(schema)})

    insider_fields = ("PacketDelayBudget", "PacketLossRate")
    report.extras["scopes"] = {
        "outsider": _scope_dict(FeatureScope(schema, known=schema, conscious=("Day", "Hour"),
                                             affected=("Day", "Hour"))),
        "insider": _scope_dict(FeatureScope(schema, known=schema, conscious=insider_fields,
                                            affected=insider_fields))}
    if depth < 1:
        return report

    with _timed(timings, "train"):
        tr, va = _split(len(records), 0.9, derive_seed(seed, "split"))
        spec = ModelSpec("forest", "classify", config.model,
                         seed=derive_seed(seed, "model"))
        baseline = train_forest(spec, X[tr], y[tr], schema)
        pred_clean = baseline.predict(X[va])
        report.baseline["Acc"] = M.accuracy(y[va], pred_clean)
    if depth < 2:
        return report

    with _timed(timings, "attack"):
        day_col = schema.index("Day")
        hour_col = schema.index("Hour")
        successes = 0
        for d in range(1, 8):
            for h in range(0, 24):
                Xa = X[va].copy()
                Xa[:, day_col] = float(d)
                Xa[:, hour_col] = float(h)
                flips = int(np.sum(baseline.predict(Xa) != pred_clean))
                successes += flips
                report.plot_series.append(("cs6_outsider", "prediction_flips",
                                           (d - 1) * 24 + h, float(flips), 0.0))
        report.extras["outsider_successes"] = successes
        report.extras["outsider_variants"] = 7 * 24
        report.extras["outsider_rows"] = int(len(va))

        insider_spec = None
        if config.attack.get("insider", True):
            insider_spec = PerturbationSpec(
                "insider_qos", insider_fields, "additive_std",
                tuple(config.attack["multipliers"]),
                constraints=(
                    ConstraintRule("PacketDelayBudget", lo=0.0, action="clamp"),
                    ConstraintRule("PacketLossRate", lo=0.0, action="clamp")))
            insider_sets, logs = _apply_levels(
                [records[i] for i in va], insider_spec, schema,
                derive_seed(seed, "rsp", "insider"))
            report.provenance.extend(logs)
            curve = run_inference_attack(baseline, (X[va], y[va]), insider_sets,
                                         "Acc", name="cs6/insider",
                                         x_label="multiplier").aggregate
            report.curves.append(curve)
            _plot_rows(report, "cs6_insider", "insider_acc", curve)
    if depth < 3:
        return report

    with _timed(timings, "defend"):
        if insider_spec is not None:
            _defend(report, config, (records, X, y, schema), tr, va, baseline,
                    "classify", insider_spec, insider_fields, insider_sets,
                    M.accuracy)
    return report
