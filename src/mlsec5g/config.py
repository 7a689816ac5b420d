"""Experiment configuration: JSON schema, validation, defaults, fingerprint.

Configs are plain JSON. Unknown keys are hard errors, not warnings: a typoed
hyperparameter that silently falls back to a default would quietly change
what an experiment measures. Validation collects every violation before
failing so a config is fixed in one pass. The fingerprint hashes the fully
merged effective config (defaults included) except out_dir, which says where
the artifacts land, not what produced them: two runs share a fingerprint
exactly when they ran the same experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attacks import SPOOF_MODES
from .repro import fingerprint
from .scenarios.generators import CQI_PROFILES, SCENARIOS

FOREST_KEYS = ("n_trees", "max_depth", "min_samples_split",
               "min_samples_leaf", "bootstrap", "max_features")
NETWORK_KEYS = ("hidden", "activation", "epochs", "lr", "l2", "batch_size",
                "bias", "output_bias", "standardize")
RECURRENT_KEYS = ("window", "hidden_size", "epochs", "lr", "online_lr")

STAGES = ("generate", "train", "attack", "defend", "report", "all")

MULTIPLIERS = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]

# the cs2 attacker scopes the runner knows how to perturb
CS2_SCOPES = ("rsrp_replace", "pktrxbyt_shift", "pktrx_shift", "both_counters")

# allowed keys, per scenario and section; None means "any key" (never used)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "cs1": {
        "data": ("n_hosts", "sessions_per_host", "sessions_per_attacker"),
        "model": FOREST_KEYS,
        "attack": ("multipliers", "ratios", "trials", "pad_level_index"),
        "defense": ("distillation",),
    },
    "cs2": {
        "data": ("n",),
        "model": FOREST_KEYS,
        "attack": ("multipliers", "scopes", "replace_levels"),
        "defense": ("adversarial_training", "feature_removal"),
    },
    "cs3": {
        "data": ("length", "profiles"),
        "model": RECURRENT_KEYS,
        "attack": ("spoof_modes", "period_s"),
        "defense": (),
    },
    "cs4": {
        "data": ("n_per_class",),
        "model": ("forest", "network"),
        "attack": ("multipliers", "top_k", "random_trials"),
        "defense": (),
    },
    "cs5": {
        "data": ("n_samples", "cell_size", "ues_per_cell", "min_gnb_distance"),
        "model": NETWORK_KEYS,
        "attack": ("attacker_ids", "step_count", "max_offset"),
        "defense": (),
    },
    "cs6": {
        "data": ("n",),
        "model": FOREST_KEYS,
        "attack": ("multipliers", "insider"),
        "defense": ("adversarial_training", "feature_removal"),
    },
}

_TOP_KEYS = ("scenario", "seed", "out_dir", "data", "model", "attack", "defense")
_DATA_WRAPPER_KEYS = ("synthetic", "path", "format")

DEFAULTS: dict[str, dict] = {
    "cs1": {
        "data": {"synthetic": {"n_hosts": 114, "sessions_per_host": 7,
                               "sessions_per_attacker": 7}},
        "model": {"n_trees": 30},
        "attack": {"multipliers": MULTIPLIERS, "ratios": [0.25, 0.5, 0.75, 0.9],
                   "trials": 3, "pad_level_index": 6},
        "defense": {"distillation": True},
    },
    "cs2": {
        "data": {"synthetic": {"n": 3000}},
        "model": {"n_trees": 30},
        "attack": {"multipliers": MULTIPLIERS,
                   "scopes": list(CS2_SCOPES),
                   "replace_levels": 7},
        "defense": {"adversarial_training": {"aug_fraction": 0.05},
                    "feature_removal": True},
    },
    "cs3": {
        "data": {"synthetic": {"length": 1200, "profiles": ["static", "driving"]}},
        "model": {"window": 30, "hidden_size": 12, "epochs": 110, "lr": 0.02},
        "attack": {"spoof_modes": ["floor_zero", "jitter"], "period_s": 60.0},
        "defense": {},
    },
    "cs4": {
        "data": {"synthetic": {"n_per_class": 80}},
        "model": {"forest": {"n_trees": 20},
                  "network": {"hidden": [64], "epochs": 150}},
        "attack": {"multipliers": MULTIPLIERS, "top_k": 25, "random_trials": 20},
        "defense": {},
    },
    "cs5": {
        "data": {"synthetic": {"n_samples": 3000, "cell_size": 250.0,
                               "ues_per_cell": 5, "min_gnb_distance": 20.0}},
        "model": {"hidden": [64], "epochs": 2000, "lr": 0.01},
        "attack": {"attacker_ids": "closest", "step_count": 8,
                   "max_offset": 300.0},
        "defense": {},
    },
    "cs6": {
        "data": {"synthetic": {"n": 4000}},
        "model": {"n_trees": 15, "max_features": "all", "min_samples_split": 8},
        "attack": {"multipliers": MULTIPLIERS, "insider": True},
        "defense": {"adversarial_training": {"aug_fraction": 0.05},
                    "feature_removal": True},
    },
}


class ConfigError(ValueError):
    """Carries the complete list of validation failures."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {v}" for v in self.violations))


def _check_keys(section: dict, allowed, path: str, violations: list) -> None:
    for key in section:
        if key not in allowed:
            violations.append(f"{path}.{key}: unknown key "
                              f"(allowed: {', '.join(sorted(allowed)) or 'none'})")


def _check_names(section: dict, key: str, allowed: tuple, path: str, violations: list) -> None:
    """section[key], when given, must be a non-empty list of distinct names from allowed."""
    names = section.get(key)
    if names is not None and not (isinstance(names, list) and names and
                                  all(n in allowed for n in names) and
                                  len(set(names)) == len(names)):
        violations.append(f"{path}.{key}: must be a non-empty list of distinct names "
                          f"from {', '.join(allowed)}, got {names!r}")


def validate_config(raw: dict) -> list[str]:
    """All violations in one list; empty means the config is acceptable."""
    violations: list[str] = []
    if not isinstance(raw, dict):
        return ["top level must be a JSON object"]
    _check_keys(raw, _TOP_KEYS, "config", violations)

    scenario = raw.get("scenario")
    if scenario is None:
        violations.append("config.scenario: required")
        return violations
    if scenario not in SCENARIOS:
        violations.append(
            f"config.scenario: unknown scenario {scenario!r} (one of {', '.join(SCENARIOS)})")
        return violations
    schema = _SCHEMA[scenario]

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        violations.append(f"config.seed: must be a non-negative integer, got {seed!r}")
    out_dir = raw.get("out_dir", "runs")
    if not isinstance(out_dir, str) or not out_dir:
        violations.append("config.out_dir: must be a non-empty string")

    data = raw.get("data", {})
    if not isinstance(data, dict):
        violations.append("config.data: must be an object")
    else:
        _check_keys(data, _DATA_WRAPPER_KEYS, "config.data", violations)
        if "synthetic" in data and "path" in data:
            violations.append("config.data: synthetic and path are mutually exclusive")
        syn = data.get("synthetic", {})
        if not isinstance(syn, dict):
            violations.append("config.data.synthetic: must be an object")
        else:
            _check_keys(syn, schema["data"], "config.data.synthetic", violations)
            _check_names(syn, "profiles", tuple(CQI_PROFILES), "config.data.synthetic",
                         violations)
        if "path" in data and (not isinstance(data["path"], str) or not data["path"]):
            violations.append("config.data.path: must be a non-empty string")

    model = raw.get("model", {})
    if not isinstance(model, dict):
        violations.append("config.model: must be an object")
    else:
        _check_keys(model, schema["model"], "config.model", violations)
        if scenario == "cs4":
            for part, keys in (("forest", FOREST_KEYS), ("network", NETWORK_KEYS)):
                sub = model.get(part, {})
                if not isinstance(sub, dict):
                    violations.append(f"config.model.{part}: must be an object")
                else:
                    _check_keys(sub, keys, f"config.model.{part}", violations)

    attack = raw.get("attack", {})
    if not isinstance(attack, dict):
        violations.append("config.attack: must be an object")
    else:
        _check_keys(attack, schema["attack"], "config.attack", violations)
        mults = attack.get("multipliers")
        if mults is not None:
            ok = (isinstance(mults, list) and mults and
                  all(isinstance(m, (int, float)) and not isinstance(m, bool)
                      and m > 0 for m in mults) and
                  all(b > a for a, b in zip(mults, mults[1:])))
            if not ok:
                violations.append(
                    "config.attack.multipliers: must be a strictly increasing "
                    "list of positive numbers")
        ratios = attack.get("ratios")
        if ratios is not None:
            ok = (isinstance(ratios, list) and
                  all(isinstance(r, (int, float)) and not isinstance(r, bool)
                      and 0.0 <= r <= 1.0 for r in ratios))
            if not ok:
                violations.append("config.attack.ratios: must be numbers in [0, 1]")
        trials = attack.get("trials")
        if trials is not None and (not isinstance(trials, int) or
                                   isinstance(trials, bool) or trials < 1):
            violations.append("config.attack.trials: must be an integer >= 1")
        _check_names(attack, "scopes", CS2_SCOPES, "config.attack", violations)
        _check_names(attack, "spoof_modes", SPOOF_MODES, "config.attack", violations)
        period = attack.get("period_s")
        if period is not None and not (isinstance(period, (int, float))
                                       and not isinstance(period, bool)
                                       and 0 < period < math.inf):
            violations.append(f"config.attack.period_s: must be a positive number, got {period!r}")
        if scenario == "cs1":
            # against the merged list: a shorter one can strand the default index
            merged = {**DEFAULTS["cs1"]["attack"], **attack}
            pad, mults = merged["pad_level_index"], merged["multipliers"]
            if isinstance(mults, list) and not (isinstance(pad, int) and not isinstance(pad, bool)
                                                and 0 <= pad < len(mults)):
                violations.append("config.attack.pad_level_index: must be an integer "
                                  f"in [0, {len(mults)}), got {pad!r}")

    defense = raw.get("defense", {})
    if not isinstance(defense, dict):
        violations.append("config.defense: must be an object")
    else:
        _check_keys(defense, schema["defense"], "config.defense", violations)
        at = defense.get("adversarial_training")
        if isinstance(at, dict):
            _check_keys(at, ("aug_fraction",), "config.defense.adversarial_training",
                        violations)
            frac = at.get("aug_fraction")
            if frac is not None and not (isinstance(frac, (int, float))
                                         and 0.0 < frac <= 1.0):
                violations.append(
                    "config.defense.adversarial_training.aug_fraction: must be in (0, 1]")
    return violations


def _merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        out = dict(base)
        for k, v in override.items():
            out[k] = _merge(base.get(k), v) if k in base else v
        return out
    return override


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, defaults-merged configuration of one run."""

    scenario: str
    seed: int
    out_dir: str
    data: dict
    model: dict
    attack: dict
    defense: dict

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": int(self.seed),
            "out_dir": self.out_dir,
            "data": self.data,
            "model": self.model,
            "attack": self.attack,
            "defense": self.defense,
        }

    def fingerprint(self) -> str:
        return fingerprint({k: v for k, v in self.to_dict().items() if k != "out_dir"})


def build_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate raw + overrides, merge scenario defaults, freeze the result.

    overrides (e.g. from CLI flags) replace top-level scalar fields before
    validation, so the fingerprint always describes the effective run.
    """
    merged_raw = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged_raw[key] = value
    violations = validate_config(merged_raw)
    if violations:
        raise ConfigError(violations)
    scenario = merged_raw["scenario"]
    defaults = DEFAULTS[scenario]
    data = _merge(defaults["data"], merged_raw.get("data", {}))
    if "path" in data and "synthetic" in data:
        # an explicit real dataset displaces the synthetic defaults
        if "path" in merged_raw.get("data", {}):
            data = {k: v for k, v in data.items() if k != "synthetic"}
    return ExperimentConfig(
        scenario=scenario,
        seed=int(merged_raw.get("seed", 0)),
        out_dir=str(merged_raw.get("out_dir", "runs")),
        data=data,
        model=_merge(defaults["model"], merged_raw.get("model", {})),
        attack=_merge(defaults["attack"], merged_raw.get("attack", {})),
        defense=_merge(defaults["defense"], merged_raw.get("defense", {})),
    )


def default_config(scenario: str, seed: int = 0, out_dir: str = "runs",
                   **section_overrides) -> ExperimentConfig:
    """Programmatic config for a scenario at its defaults."""
    raw = {"scenario": scenario, "seed": seed, "out_dir": out_dir}
    raw.update(section_overrides)
    return build_config(raw)
