"""Experiment configuration: one typed table, defaults, fingerprint.

Configs are plain JSON. _TABLE says, per scenario, section and key, what a
value must be; a nested table is a subsection. Unknown keys are hard errors,
not warnings: a typoed hyperparameter that silently falls back to a default
would quietly change what an experiment measures. A few cross-key rules
(_RULES) then read the config merged with DEFAULTS, each one whenever the
keys it reads passed on their own, so validation collects every violation
before failing and a config is fixed in one pass. The fingerprint hashes the
fully merged effective config (defaults included) except out_dir, which says
where the artifacts land, not what produced them: two runs share a
fingerprint exactly when they ran the same experiment.

It imports only the standard library and owns the vocabulary it checks, the
models' hyperparameter rows included, so a bad config fails before numpy loads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce

SCENARIOS = ("cs1", "cs2", "cs3", "cs4", "cs5", "cs6")
SPOOF_MODES = ("floor_zero", "jitter")  # how attacks.spoof_value forges a report
# cs3 series profile -> (step sigma, floor, ceiling, start)
CQI_PROFILES = {
    "static": (0.35, 0.0, 15.0, 10.0),
    "driving": (1.0, 0.0, 15.0, 8.0),
    "high": (0.35, 7.0, 15.0, 12.0),
}
N_SIGNAL_FEATURES = 256  # cs4's I/Q samples per signal

# each stage and how far it runs: 0 stops after the data, 1 after the
# baseline, 2 after the attacks, 3 scores the defenses too
STAGES = {"generate": 0, "train": 1, "attack": 2, "all": 3}

MULTIPLIERS = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]

# the cs2 attacker scopes the runner knows how to perturb
CS2_SCOPES = ("rsrp_replace", "pktrxbyt_shift", "pktrx_shift", "both_counters")

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


# A row is (check, what the value must be); a dict of rows is a subsection.
# The model sections are the rows models.base checks a ModelSpec against.

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _int(lo: int, hi: int | None = None, null: bool = False):
    what = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    return (lambda v: (null and v is None) or
            (type(v) is int and lo <= v and (hi is None or v <= hi)),
            what + (" or null" if null else ""))


def _number(test, what: str):
    return lambda v: _is_number(v) and test(v), what


_COUNT = _int(1)
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_POSITIVE = _number(lambda v: 0 < v < math.inf, "a positive number")

# the one hyperparameter table: each name a model kind reads, and its row
_ROWS = {
    "forest": {
        "n_trees": _COUNT, "max_depth": _int(1, null=True), "min_samples_split": _int(2),
        "min_samples_leaf": _COUNT, "bootstrap": _BOOL,
        "max_features": (lambda v: v in ("sqrt", "third", "all"), '"sqrt", "third" or "all"'),
    },
    "feedforward": {
        "hidden": (lambda v: isinstance(v, list) and all(_COUNT[0](h) for h in v),
                   "a list of integers >= 1"),
        "epochs": _COUNT, "lr": _POSITIVE,
    },
    "recurrent": {"window": _COUNT, "hidden_size": _COUNT, "epochs": _COUNT, "lr": _POSITIVE},
}


def _names(allowed):
    allowed = tuple(allowed)
    return (lambda v: isinstance(v, list) and bool(v) and all(n in allowed for n in v)
            and len(set(v)) == len(v),
            f"a non-empty list of distinct names from {', '.join(allowed)}")


class _Switch(dict):
    """A subsection that may also be false, which switches it off."""


_ANY = (lambda v: True, "anything")
_INDEX = _int(0)
_TEXT = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
_NON_NEGATIVE = _number(lambda v: 0 <= v < math.inf, "a non-negative number")
_MULTIPLIERS = (lambda v: isinstance(v, list) and bool(v) and
                all(_POSITIVE[0](m) for m in v) and all(b > a for a, b in zip(v, v[1:])),
                "a strictly increasing list of positive numbers")

_DEFENSES = {"adversarial_training": _Switch(aug_fraction=_number(
                 lambda v: 0 < v <= 1, "a number in (0, 1]")),
             "feature_removal": _BOOL}


# the `format` keys of a real dataset that every adapter but cs1's reads
_RENAME = {"rename": (lambda v: isinstance(v, dict) and all(
    isinstance(k, str) and isinstance(n, str) and n for k, n in v.items()),
    "an object mapping a file's column names to the scenario's")}


def _scenario(data: dict, fmt: dict, model: dict, attack: dict,
              defense: dict | None = None) -> dict:
    return {"scenario": _ANY, "seed": _INDEX, "out_dir": _TEXT,
            "data": {"synthetic": data, "path": _TEXT, "format": fmt},
            "model": model, "attack": attack, "defense": defense or {}}


# n >= 10 leaves the 90/10 splits of cs2, cs5 and cs6 a validation row
_TABLE = {
    "cs1": _scenario(
        {"n_hosts": _COUNT, "sessions_per_host": _COUNT, "sessions_per_attacker": _COUNT},
        {"attacker_ips": (lambda v: isinstance(v, list) and all(_TEXT[0](a) for a in v),
                          "a list of non-empty strings")},
        _ROWS["forest"],
        {"multipliers": _MULTIPLIERS, "trials": _COUNT, "pad_level_index": _INDEX,
         "ratios": (lambda v: isinstance(v, list) and
                    all(_is_number(r) and 0 <= r <= 1 for r in v),
                    "a list of numbers in [0, 1]")},
        {"distillation": _BOOL}),
    "cs2": _scenario(
        {"n": _int(10)}, _RENAME, _ROWS["forest"],
        {"multipliers": _MULTIPLIERS, "scopes": _names(CS2_SCOPES),
         "replace_levels": _COUNT},
        _DEFENSES),
    "cs3": _scenario(
        {"length": _COUNT, "profiles": _names(CQI_PROFILES)}, _RENAME, _ROWS["recurrent"],
        {"spoof_modes": _names(SPOOF_MODES),
         "period_s": _number(lambda v: v < math.inf and round(v) >= 1,
                             "a number of seconds that rounds to at least 1")}),
    "cs4": _scenario(
        {"n_per_class": _COUNT},
        {**_RENAME, "snr": _number(math.isfinite, "a finite number")},
        {"forest": _ROWS["forest"], "network": _ROWS["feedforward"]},
        {"multipliers": _MULTIPLIERS, "top_k": _int(1, N_SIGNAL_FEATURES),
         "random_trials": _COUNT}),
    "cs5": _scenario(
        {"n_samples": _int(10), "cell_size": _POSITIVE, "ues_per_cell": _COUNT,
         "min_gnb_distance": _NON_NEGATIVE},
        {**_RENAME, "topology": _TEXT},
        _ROWS["feedforward"],
        {"step_count": _COUNT, "max_offset": _POSITIVE,
         "attacker_ids": (lambda v: v == "closest" or (
             isinstance(v, list) and bool(v) and all(_INDEX[0](a) for a in v)
             and len(set(v)) == len(v)),
             '"closest" or a non-empty list of distinct integers >= 0')}),
    "cs6": _scenario(
        {"n": _int(10)}, _RENAME, _ROWS["forest"], {"multipliers": _MULTIPLIERS, "insider": _BOOL},
        _DEFENSES),
}


def _walk(value, rows, path: str, violations: list) -> None:
    """Check value against its rows: a subsection, or one (check, what) row."""
    if not isinstance(rows, dict):
        if not rows[0](value):
            violations.append(f"{path}: must be {rows[1]}, got {value!r}")
    elif not isinstance(value, dict):
        if not (value is False and isinstance(rows, _Switch)):
            what = "false or an object" if isinstance(rows, _Switch) else "an object"
            violations.append(f"{path}: must be {what}, got {value!r}")
    else:
        for key, sub in value.items():
            if key in rows:
                _walk(sub, rows[key], f"{path}.{key}", violations)
            else:
                violations.append(f"{path}.{key}: unknown key "
                                  f"(allowed: {', '.join(sorted(rows)) or 'none'})")


def _pad_in_range(pad, multipliers):
    if pad >= len(multipliers):
        return ("config.attack.pad_level_index: must be an integer "
                f"in [0, {len(multipliers)}), got {pad!r}")


def _live_covers_period(length, period):
    live = length - length // 2  # the runner's series[half:], where the spoofs land
    if live < round(period):
        return (f"config.data.synthetic.length: the live half of a {length}-step series is "
                f"{live} steps, shorter than one spoof period of {round(period)} steps "
                f"(config.attack.period_s {period!r})")


def _warmup_beats_window(length, window):
    if length // 2 <= window:
        return (f"config.data.synthetic.length: the warm-up half of a {length}-step "
                f"series is {length // 2} steps, not longer than config.model.window "
                f"{window}")


def _placement_fits(distance, cell_size):
    if distance >= cell_size / 2:
        return ("config.data.synthetic.min_gnb_distance: must be below the inscribed radius "
                f"cell_size / 2 = {cell_size / 2:.6g}, got {distance!r}")


def _attackers_exist(ids, ues_per_cell):
    if ids != "closest" and max(ids) >= 4 * ues_per_cell:
        return ("config.attack.attacker_ids: must be below 4 * ues_per_cell = "
                f"{4 * ues_per_cell}, got {ids!r}")


# cross-key rules over the merged config: (the keys each one reads, the rule)
_RULES = {
    "cs1": [(("attack.pad_level_index", "attack.multipliers"), _pad_in_range)],
    "cs3": [(("data.synthetic.length", "attack.period_s"), _live_covers_period),
            (("data.synthetic.length", "model.window"), _warmup_beats_window)],
    "cs5": [(("data.synthetic.min_gnb_distance", "data.synthetic.cell_size"),
             _placement_fits),
            (("attack.attacker_ids", "data.synthetic.ues_per_cell"), _attackers_exist)],
}


def validate_config(raw: dict) -> list[str]:
    """All violations in one list; empty means the config is acceptable."""
    if not isinstance(raw, dict):
        return ["top level must be a JSON object"]
    violations: list[str] = []
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        _walk(raw, dict.fromkeys(_TABLE["cs1"], _ANY), "config", violations)
        return violations + ["config.scenario: required" if scenario is None else
                             f"config.scenario: unknown scenario {scenario!r} "
                             f"(one of {', '.join(SCENARIOS)})"]
    _walk(raw, _TABLE[scenario], "config", violations)
    data = raw.get("data")
    if isinstance(data, dict) and "synthetic" in data and "path" in data:
        violations.append("config.data: synthetic and path are mutually exclusive")
    failed = {v.split(": ", 1)[0] for v in violations}
    merged = _merged(raw)
    for paths, rule in _RULES.get(scenario, ()):
        try:
            values = [reduce(dict.__getitem__, p.split("."), merged) for p in paths]
        except (KeyError, TypeError):  # e.g. no synthetic block beside a real dataset
            continue
        if not failed & {f"config.{p}" for p in paths} and (violation := rule(*values)):
            violations.append(violation)
    return violations


def _merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        out = dict(base)
        for k, v in override.items():
            out[k] = _merge(base.get(k), v) if k in base else v
        return out
    return override


def _merged(raw: dict) -> dict:
    """raw's four sections over its scenario's DEFAULTS; an explicit real
    dataset displaces the synthetic defaults."""
    defaults = DEFAULTS[raw["scenario"]]
    sections = {name: _merge(base, raw.get(name, {})) for name, base in defaults.items()}
    if isinstance(sections["data"], dict) and "path" in sections["data"]:
        sections["data"] = {k: v for k, v in sections["data"].items() if k != "synthetic"}
    return sections


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

    def fingerprint(self) -> str:
        from .repro import fingerprint  # here, so that validating loads no numpy
        return fingerprint({k: v for k, v in asdict(self).items() if k != "out_dir"})


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
    return ExperimentConfig(scenario=merged_raw["scenario"],
                            seed=int(merged_raw.get("seed", 0)),
                            out_dir=str(merged_raw.get("out_dir", "runs")),
                            **_merged(merged_raw))


def default_config(scenario: str, seed: int = 0, out_dir: str = "runs",
                   **section_overrides) -> ExperimentConfig:
    """Programmatic config for a scenario at its defaults."""
    raw = {"scenario": scenario, "seed": seed, "out_dir": out_dir}
    raw.update(section_overrides)
    return build_config(raw)
