"""Case-study drivers: wire data, perturbations, models, attacks, defenses.

Every driver follows the same arc: obtain data (synthetic or ingested), apply
raw-space perturbations where the scenario calls for them, push clean and
adversarial data through the one shared feature-extraction path, split,
train, measure the baseline, run the staged attacks, and score defenses.
The master seed fans out through derive_seed(seed, stage, ...) so any stage
can be reproduced in isolation.

The drivers share their common steps: _load_data (synthetic or ingested
data), _plot_rows (a curve's points as plot rows) and, for cs2 and cs6,
which perturb dict records, _load_records (records, feature matrix, truth and
schema), _rsp_sweep (one row-aligned adversarial matrix per perturbation
level, its provenance and the baseline's curve over them) and _defend
(adversarial training and removal of the features the perturbation affects,
each scored against the baseline).

run_case_study(scenario, config, stage) is the one way in and owns the only
stage loop. The config carries the seed, and config.STAGES says how far each
stage runs. Each driver is a generator that yields the stage it has just
finished ("data", "train", "attack", then "defend" where there are defenses);
the loop times each whole segment under that name and stops at the depth.

cs3 yields "data" only: at `train` it runs the no-spoof control stream alone,
and from `attack` on every mode in lockstep on one shared clean stream, so
its train and attack cannot be two segments. Its channel profiles share
nothing, so each profile's warm-up and online streams run through `fork_map`,
in forked worker processes when there are CPUs to spare, and the report is
built from their results in profile order: the same bits for any worker
count. Its per-profile timings (`train[p]`, `attack[p]` or `control[p]`) are
measured inside the workers and overlap, so they can sum to more than the
wall time. cs1's poisoning grid runs the same way, one (trial, ratio)
retrain per item (see `run_training_attack`).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .. import metrics as M
from ..attacks import (CurvePoint, DegradationCurve, run_inference_attack,
                       run_online_attacks, run_training_attack, spoof_positions,
                       summarize_curve)
from ..config import ExperimentConfig, STAGES, default_config
from ..defenses import adversarial_training, evaluate_defense, feature_removal
from ..flows import (FEATURE_NAMES, aggregate_flows,
                     extract_feature_matrix, label_flows, pad_payloads,
                     poison_training_set)
from ..forkmap import blas_threads, fork_map, one_blas_thread
from ..models.base import ModelSpec
from ..models.forest import distill_forest, train_forest
from ..models.network import train_network
from ..models.recurrent import OnlineRecurrentModel, init_online
from ..perturb import ConstraintRule, DependencyGraph, PerturbationSpec, apply_rsp
from ..report import ExperimentReport
from ..repro import derive_seed, fingerprint, seeded
from ..threat import FeatureScope, validate_scope
from . import generators as G
from .adapters import ingest_real_dataset
from .generators import records_to_matrix
from .mimo import ground_truth_power, normalize_powers, spectral_efficiency

INTERNAL_PREFIXES = ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16")


def _split(n: int, train_frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled split; both halves keep ascending order and
    neither may be empty."""
    k = int(round(train_frac * n))
    if not 0 < k < n:
        raise ValueError(f"a split needs a row on each side; {n} rows give {k} "
                         f"training and {n - k} validation rows")
    perm = seeded(seed, 0x5117).permutation(n)
    return np.sort(perm[:k]), np.sort(perm[k:])


def _affected(spec: PerturbationSpec) -> list[str]:
    """The fields a perturbation spec alters: its targets, its linked fields,
    then every field the derived graph reaches from those, in graph order."""
    affected = [*spec.target_fields, *spec.linked]
    for name in affected:  # the list grows as the loop reaches derived fields
        affected += [d for d in spec.derived.edges.get(name, ()) if d not in affected]
    return affected


def _spec_scope(spec: PerturbationSpec, full_set, known) -> FeatureScope:
    """The attacker scope a perturbation spec implies: it consciously touches
    its targets and alters what _affected says."""
    return FeatureScope(full_set, known=known, conscious=spec.target_fields,
                        affected=_affected(spec))


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


def run_case_study(scenario: str, config: ExperimentConfig | None = None,
                   stage: str = "all") -> ExperimentReport:
    """Execute one scenario to the depth of its stage and return its report.

    config defaults to the scenario's stock configuration at seed 0. The
    report's artifacts are written by the caller. The run holds numpy's
    OpenBLAS at one thread and gives the caller back its count.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {tuple(STAGES)}")
    if config is None:
        config = default_config(scenario)
    if config.scenario != scenario:
        raise ValueError(
            f"config is for {config.scenario!r}, requested {scenario!r}")
    driver = {
        "cs1": _run_cs1, "cs2": _run_cs2, "cs3": _run_cs3,
        "cs4": _run_cs4, "cs5": _run_cs5, "cs6": _run_cs6,
    }[scenario]
    report = ExperimentReport(scenario=scenario, config_fingerprint=config.fingerprint(),
                              seed=config.seed, stage=stage)
    with one_blas_thread():  # the network's sums depend on the count
        report.blas_threads = blas_threads()
        start = time.perf_counter()
        for depth, segment in enumerate(driver(config, report)):
            end = time.perf_counter()
            report.timings[segment], start = end - start, end
            if depth == STAGES[stage]:
                break
    return report


def _load_data(report: ExperimentReport, config: ExperimentConfig):
    """The scenario's data, generated or read from data.path; a file read
    leaves the adapter's provenance (path, row and skip counts) on the report."""
    if "path" in config.data:
        data = ingest_real_dataset(config.scenario, config.data["path"],
                                   config.data.get("format"))
        report.data_provenance = data["provenance"]
        return data
    return G.generate_scenario_data(config.scenario, seed=derive_seed(config.seed, "data"),
                                    **config.data.get("synthetic", {}))


def _plot_rows(report: ExperimentReport, figure: str, series: str, curve,
               x_of=lambda x: x) -> None:
    """One plot row (figure, series, x, mean, std) per point of the curve."""
    for p in curve.points:
        report.plot_series.append(
            (figure, series, x_of(p.x), p.metric_mean, p.metric_std))


def _load_records(report, config, truth, dtype=None):
    """The scenario's dict records as (records, X, y, schema): X holds the
    records' features in schema order and y the data's `truth` column."""
    data = _load_data(report, config)
    records = data["records"]
    schema = tuple(data["schema"])
    report.extras["n_records"] = len(records)
    report.extras["extractor_fingerprint"] = fingerprint(
        {"extractor": "column_order", "features": list(schema)})
    return (records, records_to_matrix(records, schema),
            np.asarray(data[truth], dtype=dtype), schema)


def _rsp_sweep(report, baseline, data, va, spec, label, metric, figure, series):
    """spec at each level on the validation records, seeded by label: one
    row-aligned matrix per level (a rejected record is fatal) and its
    provenance, then the baseline's curve and plot rows. Returns the sets."""
    records, X, y, schema = data
    v_records = [records[i] for i in va]
    seed = derive_seed(report.seed, "rsp", label)
    sets = []
    for li, level in enumerate(spec.intensity_levels):
        out, plog = apply_rsp(v_records, spec, li, seed)
        if len(out) != len(v_records):
            raise RuntimeError(
                f"{spec.name}: {plog.n_rejected} records rejected; "
                "row-aligned evaluation impossible")
        sets.append((level, records_to_matrix(out, schema)))
        report.provenance.append({"spec": spec.name, "level": level, **plog.counts()})
    curve = run_inference_attack(
        baseline, (X[va], y[va]), sets, metric, name=f"{report.scenario}/{label}",
        x_label="draw" if spec.mode == "replace_random" else "multiplier").aggregate
    report.curves.append(curve)
    _plot_rows(report, figure, series, curve)
    return sets


def _defend(report, config, data, tr, va, baseline, spec, adv_sets, metric_fn) -> None:
    """Adversarial training against spec and removal of the features it
    affects, each scored against the baseline on the same adversarial sets.

    data is (records, X, y, schema); the forests train on config.model.
    """
    records, X, y, schema = data
    seed = config.seed

    def trainer(X_, y_, schema_, s):
        return train_forest(ModelSpec("forest", baseline.task, config.model, seed=s),
                            X_, y_, schema_)

    def scored(model, defense):
        report.defenses.append(evaluate_defense(
            baseline, model, (X[va], y[va], schema), adv_sets, "Acc",
            metric_fn=metric_fn, defense=defense))

    at_cfg = config.defense["adversarial_training"]  # false or an object
    if at_cfg:
        scored(adversarial_training(
            trainer, [records[i] for i in tr], y[tr], [spec],
            lambda recs: records_to_matrix(recs, schema), schema,
            derive_seed(seed, "advtrain"), aug_fraction=float(at_cfg["aug_fraction"])),
            "adversarial_training")
    if config.defense["feature_removal"]:
        scored(feature_removal(trainer, X[tr], y[tr], schema, _affected(spec),
                               derive_seed(seed, "removal")),
               "feature_removal")


# ---------------------------------------------------------------------------
# cs1: flow classification under payload padding and poisoning


def _run_cs1(config: ExperimentConfig, report: ExperimentReport):
    seed = config.seed

    data = _load_data(report, config)
    packets = data["packets"]
    session_labels = data["session_labels"]
    attackers = tuple(data["attacker_ips"])

    def label_of(f):
        return session_labels.get((f.src_ip, f.src_port))

    flows = aggregate_flows(packets)
    y = label_flows(flows, label_of)
    X = extract_feature_matrix(flows, INTERNAL_PREFIXES)
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
    yield "data"

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
    yield "train"

    attack_cfg = config.attack
    multipliers = [float(m) for m in attack_cfg["multipliers"]]
    data_payloads = [p.payload_len for p in packets
                     if p.src_ip in set(attackers) and p.payload_len > 0]
    pay_std = float(np.std(np.asarray(data_payloads, dtype=float))) \
        if data_payloads else 0.0
    pad_seed = derive_seed(seed, "pad")
    bounds = [int(round(m * pay_std)) for m in multipliers]
    # the inference sweep and the poisoning pair row i of a padded matrix with
    # row i of X, so every level must give back the clean flows in order
    identities = [(f.key(), f.first_ts) for f in flows]
    adversarial_sets = []
    for level, (m, bound) in enumerate(zip(multipliers, bounds)):
        padded = pad_payloads(packets, attackers, bound, pad_seed)
        n_padded = sum(1 for a, b in zip(packets, padded)
                       if a.payload_len != b.payload_len)
        adv_flows = aggregate_flows(padded)
        if [(f.key(), f.first_ts) for f in adv_flows] != identities:
            raise RuntimeError(f"padding at {bound} bytes changed the flows; "
                               "twin pairing broken")
        X_adv = extract_feature_matrix(adv_flows, INTERNAL_PREFIXES)
        if level == attack_cfg["pad_level_index"]:
            poison_twins = X_adv[tr]  # the only padded rows the poisoning reuses
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

    def trainer(Xp, train_seed):
        return train_forest(ModelSpec("forest", "classify", config.model,
                                      seed=train_seed), Xp, y[tr], FEATURE_NAMES)

    def poison_fn(T, twins, ratio, poison_seed):
        return poison_training_set(T, twins, attacker_row[tr], ratio, poison_seed)

    def evaluator(model, V):
        Xv, yv = V
        return M.accuracy(yv, model.predict(Xv))

    poison_curve = run_training_attack(
        trainer, X[tr], (X[va], y[va]), [float(r) for r in attack_cfg["ratios"]],
        poison_twins, int(attack_cfg["trials"]), derive_seed(seed, "poison-stage"),
        poison_fn, evaluator, "Acc", name="cs1/poisoning")
    report.curves.append(poison_curve)
    _plot_rows(report, "cs1_poisoning", "poisoned_acc", poison_curve,
               x_of=lambda x: int(round(x * 100)))
    yield "attack"

    if config.defense.get("distillation"):
        student = distill_forest(baseline, X[tr], seed=derive_seed(seed, "distill"))
        ev = evaluate_defense(baseline, student, (X[va], y[va], FEATURE_NAMES),
                              adversarial_sets, "Acc", defense="distillation")
        report.defenses.append(ev)
    yield "defend"


# ---------------------------------------------------------------------------
# cs2: channel-quality regression under measurement perturbations

_CS2_DEFENDED = "pktrx_shift"  # the one scope the defenses harden against


def _cs2_specs(records, multipliers, replace_levels):
    """The four attacker perturbations, by name."""
    rsrp_pool = tuple(float(r["RSRP"]) for r in records)
    rsrq_pool = tuple(float(r["RSRQ"]) for r in records)
    aiat_graph = DependencyGraph({"pktRx": ("pktRxAiat",)})
    return {
        "rsrp_replace": PerturbationSpec(
            "rsrp_replace", ("RSRP",), "replace_random",
            tuple(float(i) for i in range(1, replace_levels + 1)),
            donor_pool=rsrp_pool, linked={"RSRQ": rsrq_pool}),
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


def _run_cs2(config: ExperimentConfig, report: ExperimentReport):
    seed = config.seed

    data = _load_records(report, config, "targets", float)
    records, X, y, schema = data
    yield "data"

    tr, va = _split(len(records), 0.9, derive_seed(seed, "split"))
    spec = ModelSpec("forest", "regress", config.model,
                     seed=derive_seed(seed, "model"))
    baseline = train_forest(spec, X[tr], y[tr], schema)
    pred_va = baseline.predict(X[va])
    report.baseline.update({
        "RMSE": M.rmse(y[va], pred_va),
        "Acc": M.cqi_accuracy(y[va], pred_va),
    })
    yield "train"

    attack_cfg = config.attack
    multipliers = [float(m) for m in attack_cfg["multipliers"]]
    replace_levels = int(attack_cfg["replace_levels"])
    specs = _cs2_specs(records, multipliers, replace_levels)
    known = ("RSRP", "RSRQ", "pktRx", "pktRxByt", "pktRxAiat", "PHR")
    report.extras["scopes"] = {name: _scope_dict(_spec_scope(s, schema, known))
                               for name, s in specs.items()}
    sets_by_scope = {name: _rsp_sweep(report, baseline, data, va, specs[name], name,
                                      "RMSE", "cs2_scopes", name)
                     for name in attack_cfg["scopes"]}
    yield "attack"

    if _CS2_DEFENDED in sets_by_scope:
        _defend(report, config, data, tr, va, baseline, specs[_CS2_DEFENDED],
                sets_by_scope[_CS2_DEFENDED], M.cqi_accuracy)
        for d in report.defenses:
            _plot_rows(report, "cs2_defenses", d.defense, d.residual)
    yield "defend"


# ---------------------------------------------------------------------------
# cs3: online channel-quality prediction under spoofed reports


def _run_cs3(config: ExperimentConfig, report: ExperimentReport):
    seed = config.seed

    series_by_profile = {}
    if "path" in config.data:
        data = _load_data(report, config)
        series_by_profile[data["profile"]] = data["series"]
    else:
        syn = dict(config.data["synthetic"])
        for profile in syn.pop("profiles"):
            data = G.generate_cqi_series(seed=derive_seed(seed, "data", profile),
                                         profile=profile, **syn)
            series_by_profile[profile] = data["series"]
    report.extras["profiles"] = sorted(series_by_profile)
    report.extras["extractor_fingerprint"] = fingerprint(
        {"extractor": "sliding_window",
         "window": int(config.model["window"])})
    yield "data"

    spoof_modes = list(config.attack["spoof_modes"])
    period_s = float(config.attack["period_s"])
    attacking = STAGES[report.stage] >= 2
    # one clean stream shared by the no-spoof control and every spoof mode
    modes = [None, *spoof_modes] if attacking else [None]
    attack_key = "attack" if attacking else "control"

    def run_profile(profile):
        """One profile's warm-up and lockstep streams, with their timings."""
        series = series_by_profile[profile]
        half = series.size // 2
        warmup, live = series[:half], series[half:]
        t0 = time.perf_counter()
        mspec = ModelSpec("recurrent", "regress", config.model,
                          seed=derive_seed(seed, "warmup", profile))
        meta, arrays = init_online(mspec, warmup).to_state()
        t1 = time.perf_counter()

        def factory():
            return OnlineRecurrentModel.from_state(meta, arrays)

        seeds = [0] + [derive_seed(seed, "spoof", profile, mode) for mode in modes[1:]]
        results = run_online_attacks(factory, live, modes, period_s=period_s, seeds=seeds)
        return results, {f"train[{profile}]": t1 - t0,
                         f"{attack_key}[{profile}]": time.perf_counter() - t1}

    finals = {}
    profiles = sorted(series_by_profile)
    for profile, ((control, *attacked), profile_timings) in zip(
            profiles, fork_map(run_profile, profiles)):
        report.timings.update(profile_timings)
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
                orientation=M.ORIENTATION["CRMSE"], x_label="t_s",
                baseline=float(res.crmse_clean[-1]), points=points))
            for i in idx:
                report.plot_series.append(
                    ("cs3_differential", f"{profile}/{mode}",
                     float(res.t[i]), float(res.differential[i]), 0.0))
            report.extras[f"spoof_count[{profile}/{mode}]"] = len(res.spoof_steps)
    report.extras["final_differential"] = {
        f"{p}/{m}": v for (p, m), v in sorted(finals.items())}


# ---------------------------------------------------------------------------
# cs4: modulation recognition and importance-guided perturbations


def _run_cs4(config: ExperimentConfig, report: ExperimentReport):
    seed = config.seed

    data = _load_data(report, config)
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
    yield "data"

    tr, va = _split(X.shape[0], 0.5, derive_seed(seed, "split"))
    X_va = X[va]
    forest = train_forest(
        ModelSpec("forest", "classify", config.model.get("forest", {}),
                  seed=derive_seed(seed, "model", "forest")),
        X[tr], y[tr], schema)
    network = train_network(
        ModelSpec("feedforward", "classify", config.model.get("network", {}),
                  seed=derive_seed(seed, "model", "network")),
        X[tr], y[tr], schema)
    report.baseline.update({
        "Acc_forest": M.accuracy(y[va], forest.predict(X_va)),
        "Acc_network": M.accuracy(y[va], network.predict(X_va)),
    })
    yield "train"

    attack_cfg = config.attack
    multipliers = [float(m) for m in attack_cfg["multipliers"]]
    top_k = int(attack_cfg["top_k"])
    random_trials = int(attack_cfg["random_trials"])
    stds = X.std(axis=0)
    importance = forest.feature_importance()
    top_names = importance.top(top_k)
    name_to_col = {n: i for i, n in enumerate(schema)}
    top_idx = np.array([name_to_col[n] for n in top_names], dtype=int)

    def shifted(cols, mult):
        out = X_va.copy()
        out[:, cols] += mult * stds[cols]
        return out

    def top_sets():
        """The top-k shifted copies, built as the sweep reaches each one."""
        return ((m, shifted(top_idx, m)) for m in multipliers)

    top_curve = run_inference_attack(forest, (X_va, y[va]), top_sets(), "Acc",
                                     name="cs4/top25",
                                     x_label="multiplier").aggregate
    report.curves.append(top_curve)

    def random_variants(m):
        """One shifted copy per trial, drawn as the sweep reaches it."""
        for t in range(random_trials):
            cols = seeded(derive_seed(seed, "rand25", t), 0x24).choice(
                X.shape[1], size=top_k, replace=False)
            yield shifted(cols, m)

    rand_curve = run_inference_attack(forest, (X_va, y[va]),
                                      ((m, random_variants(m)) for m in multipliers),
                                      "Acc", name="cs4/random25",
                                      x_label="multiplier").aggregate
    report.curves.append(rand_curve)

    net_curve = run_inference_attack(network, (X_va, y[va]), top_sets(), "Acc",
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
    yield "attack"


# ---------------------------------------------------------------------------
# cs5: downlink power allocation under position spoofing


def _resolve_attackers(setting, topo) -> list[int]:
    """attacker_ids: explicit indices, or "closest" for the terminal with the
    most room to lie (nearest its own station, so the outward ray is longest)."""
    if setting == "closest":
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


def _run_cs5(config: ExperimentConfig, report: ExperimentReport):
    seed = config.seed

    data = _load_data(report, config)
    X = np.asarray(data["X"], dtype=float)
    Y = np.asarray(data["Y"], dtype=float)
    schema = tuple(data["schema"])
    topo = data["topology"]
    report.extras["n_placements"] = int(X.shape[0])
    report.extras["n_ues"] = int(topo.n_ues)
    report.extras["extractor_fingerprint"] = fingerprint(
        {"extractor": "flatten_positions", "features": list(schema)})
    yield "data"

    tr, va = _split(X.shape[0], 0.9, derive_seed(seed, "split"))
    mspec = ModelSpec("feedforward", "vector_regress", config.model,
                      seed=derive_seed(seed, "model"))
    model = train_network(mspec, X[tr], Y[tr], schema)
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
    yield "train"

    attack_cfg = config.attack
    attacker_ids = _resolve_attackers(attack_cfg["attacker_ids"], topo)
    step_count = int(attack_cfg["step_count"])
    max_offset = float(attack_cfg["max_offset"])
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
        "cs5/mean_se", "SE", "offset_m", float(se_steps[0].mean()),
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
    yield "attack"


# ---------------------------------------------------------------------------
# cs6: slice assignment, outsider sweep and insider perturbations


def _run_cs6(config: ExperimentConfig, report: ExperimentReport):
    seed = config.seed

    data = _load_records(report, config, "labels")
    records, X, y, schema = data
    insider_spec = PerturbationSpec(
        "insider_qos", ("PacketDelayBudget", "PacketLossRate"), "additive_std",
        tuple(config.attack["multipliers"]),
        constraints=(
            ConstraintRule("PacketDelayBudget", lo=0.0, action="clamp"),
            ConstraintRule("PacketLossRate", lo=0.0, action="clamp")))
    report.extras["scopes"] = {
        "outsider": _scope_dict(FeatureScope(schema, known=schema, conscious=("Day", "Hour"),
                                             affected=("Day", "Hour"))),
        "insider": _scope_dict(_spec_scope(insider_spec, schema, schema))}
    yield "data"

    tr, va = _split(len(records), 0.9, derive_seed(seed, "split"))
    spec = ModelSpec("forest", "classify", config.model,
                     seed=derive_seed(seed, "model"))
    baseline = train_forest(spec, X[tr], y[tr], schema)
    pred_clean = baseline.predict(X[va])
    report.baseline["Acc"] = M.accuracy(y[va], pred_clean)
    yield "train"

    day_col = schema.index("Day")
    hour_col = schema.index("Hour")
    successes = 0
    for d in range(1, 8):
        for h in range(0, 24):
            Xa = X[va].copy()
            Xa[:, day_col] = float(d)
            Xa[:, hour_col] = float(h)
            # a changed prediction is a success whatever the truth: the attacker
            # never sees outputs, so a wrong label flipped to another counts
            flips = int(np.sum(baseline.predict(Xa) != pred_clean))
            successes += flips
            report.plot_series.append(("cs6_outsider", "prediction_flips",
                                       (d - 1) * 24 + h, float(flips), 0.0))
    report.extras["outsider_successes"] = successes
    report.extras["outsider_variants"] = 7 * 24
    report.extras["outsider_rows"] = int(len(va))

    if config.attack["insider"]:
        insider_sets = _rsp_sweep(report, baseline, data, va, insider_spec, "insider",
                                  "Acc", "cs6_insider", "insider_acc")
    yield "attack"

    if config.attack["insider"]:
        _defend(report, config, data, tr, va, baseline, insider_spec, insider_sets,
                M.accuracy)
    yield "defend"
