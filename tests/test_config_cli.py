"""Configuration contract and the command-line front end."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlsec5g.cli import build_parser, main, resolve
from mlsec5g.config import (CQI_PROFILES, CS2_SCOPES, SPOOF_MODES, STAGES, ConfigError,
                            build_config, default_config, validate_config)
from mlsec5g.forkmap import fork_map
from mlsec5g.scenarios.runner import run_case_study


class TestValidation:
    def test_every_violation_reported_at_once(self):
        raw = {
            "scenario": "cs2",
            "seed": -3,
            "out_dir": "",
            "attack": {"multipliers": [2.0, 1.0], "scopesx": []},
            "extra_section": {},
        }
        violations = validate_config(raw)
        joined = "\n".join(violations)
        assert len(violations) == 5
        assert "config.seed" in joined
        assert "config.out_dir" in joined
        assert "config.attack.multipliers" in joined
        assert "config.attack.scopesx: unknown key" in joined
        assert "config.extra_section: unknown key" in joined

    def test_missing_and_unknown_scenario_short_circuit(self):
        assert validate_config({}) == ["config.scenario: required"]
        v = validate_config({"scenario": "cs9"})
        assert len(v) == 1 and "unknown scenario" in v[0]

    def test_synthetic_and_path_are_mutually_exclusive(self):
        v = validate_config({"scenario": "cs2",
                             "data": {"synthetic": {"n": 5}, "path": "x.csv"}})
        assert any("mutually exclusive" in s for s in v)

    def test_every_cs3_violation_reported_at_once(self):
        v = validate_config({"scenario": "cs3",
                             "data": {"synthetic": {"profiles": ["static", "walking"]}},
                             "attack": {"spoof_modes": ["jitter", "jitter"],
                                        "period_s": -1.0}})
        assert [s.split(":")[0] for s in v] == ["config.data.synthetic.profiles",
                                                "config.attack.spoof_modes",
                                                "config.attack.period_s"]
        assert "'walking'" in v[0] and "static, driving, high" in v[0]
        assert "floor_zero, jitter" in v[1]

    def test_stock_cs3_names_pass(self):
        assert validate_config({"scenario": "cs3",
                                "data": {"synthetic": {"profiles": ["high", "static"]}},
                                "attack": {"spoof_modes": ["jitter"], "period_s": 30}}) == []

    def test_boolean_seed_is_not_an_integer(self):
        v = validate_config({"scenario": "cs2", "seed": True})
        assert any("config.seed" in s for s in v)

    def test_nested_model_sections_validated_for_the_signal_scenario(self):
        v = validate_config({"scenario": "cs4",
                             "model": {"forest": {"n_treez": 5}}})
        assert any("config.model.forest.n_treez" in s for s in v)

    def test_per_scenario_data_keys(self):
        assert validate_config({"scenario": "cs6",
                                "data": {"synthetic": {"n": 10}}}) == []
        v = validate_config({"scenario": "cs6",
                             "data": {"synthetic": {"n_hosts": 10}}})
        assert any("n_hosts: unknown key" in s for s in v)


class TestBuildConfig:
    def test_defaults_fill_in(self):
        cfg = build_config({"scenario": "cs2"})
        assert cfg.data["synthetic"]["n"] == 3000
        assert cfg.model["n_trees"] == 30
        assert cfg.seed == 0 and cfg.out_dir == "runs"

    def test_overrides_replace_only_what_they_name(self):
        cfg = build_config({"scenario": "cs1", "model": {"n_trees": 5}})
        assert cfg.model["n_trees"] == 5
        assert cfg.attack["trials"] == 3

    def test_cli_overrides_beat_the_file(self):
        cfg = build_config({"scenario": "cs2", "seed": 1},
                           {"seed": 9, "out_dir": "elsewhere"})
        assert cfg.seed == 9 and cfg.out_dir == "elsewhere"

    def test_a_real_dataset_displaces_synthetic_defaults(self):
        cfg = build_config({"scenario": "cs2", "data": {"path": "d.csv"}})
        assert "synthetic" not in cfg.data
        assert cfg.data["path"] == "d.csv"

    @pytest.mark.parametrize("scenario, fmt", [
        ("cs1", {"attacker_ips": ["10.0.0.1"]}),
        ("cs2", {"rename": {"cqi": "CQI"}}),
        ("cs3", {"rename": {"cqi": "CQI"}}),
        ("cs4", {"rename": {"modulation": "label"}, "snr": -4}),
        ("cs5", {"rename": {"P0": "p0"}, "topology": "t.json"}),
        ("cs6", {"rename": {"slice": "Slice"}}),
    ])
    def test_each_scenario_takes_its_format_keys(self, scenario, fmt):
        cfg = build_config({"scenario": scenario, "data": {"path": "d", "format": fmt}})
        assert cfg.data["format"] == fmt

    def test_invalid_config_raises_with_the_full_list(self):
        with pytest.raises(ConfigError) as err:
            build_config({"scenario": "cs2", "seed": -1, "bogus": 1})
        assert len(err.value.violations) == 2
        assert str(err.value).startswith("invalid configuration:")

    def test_default_config_covers_every_scenario(self):
        for s in ("cs1", "cs2", "cs3", "cs4", "cs5", "cs6"):
            assert default_config(s).scenario == s


class TestFingerprint:
    def test_stable_for_identical_configs(self):
        a = build_config({"scenario": "cs3", "seed": 4})
        b = build_config({"seed": 4, "scenario": "cs3"})
        assert a.fingerprint() == b.fingerprint()

    def test_any_effective_difference_changes_it(self):
        base = build_config({"scenario": "cs3", "seed": 4})
        for raw in ({"scenario": "cs3", "seed": 5},
                    {"scenario": "cs3", "seed": 4, "model": {"epochs": 111}}):
            assert build_config(raw).fingerprint() != base.fingerprint()

    def test_out_dir_leaves_it_unchanged(self):
        # where the artifacts land is not what produced them
        base = build_config({"scenario": "cs3", "seed": 4})
        moved = build_config({"scenario": "cs3", "seed": 4, "out_dir": "other"})
        assert moved.out_dir == "other"
        assert moved.fingerprint() == base.fingerprint()

    def test_spelling_out_a_default_is_not_a_different_experiment(self):
        implicit = build_config({"scenario": "cs3"})
        explicit = build_config({"scenario": "cs3",
                                 "model": {"window": 30, "hidden_size": 12,
                                           "epochs": 110, "lr": 0.02}})
        assert implicit.fingerprint() == explicit.fingerprint()


def tiny_cs6(tmp_path, **extra):
    raw = {
        "scenario": "cs6",
        "data": {"synthetic": {"n": 300}},
        "model": {"n_trees": 4},
        "attack": {"multipliers": [0.5, 1.0], "insider": True},
        "defense": {"feature_removal": True},
    }
    raw.update(extra)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestCli:
    def test_full_run_exits_zero_and_writes_artifacts(self, tmp_path, capsys):
        cfg = tiny_cs6(tmp_path)
        out = str(tmp_path / "runs")
        code = main(["all", "--config", cfg, "--out", out, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "cs6 stage=all seed=1 fingerprint=" in captured.out
        run_dir = os.path.join(out, "cs6")
        assert os.path.exists(os.path.join(run_dir, "report.json"))
        assert os.path.exists(os.path.join(run_dir, "curves.csv"))
        assert os.path.exists(os.path.join(run_dir, "run_meta.json"))

    def test_metric_artifacts_are_byte_identical_across_reruns(self, tmp_path):
        cfg = tiny_cs6(tmp_path)
        out = str(tmp_path / "runs")
        assert main(["all", "--config", cfg, "--out", out]) == 0
        run_dir = os.path.join(out, "cs6")
        first = {}
        for name in ("report.json", "curves.csv", "defenses.csv"):
            first[name] = open(os.path.join(run_dir, name), "rb").read()
        assert main(["all", "--config", cfg, "--out", out]) == 0
        for name, blob in first.items():
            assert open(os.path.join(run_dir, name), "rb").read() == blob

    def test_config_errors_exit_2_and_enumerate(self, tmp_path, capsys):
        cfg = tiny_cs6(tmp_path, bogus_section={}, seed=-1)
        code = main(["all", "--config", cfg, "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 2
        assert "config.bogus_section: unknown key" in captured.err
        assert "config.seed" in captured.err

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["train", "--config", missing]) == 2
        assert f"config file not found: {missing}" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["train", "--config", str(bad)]) == 2
        assert "config is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, attack, key", [
        ("cs2", {"scopes": ["bogus"]}, "config.attack.scopes"),
        ("cs2", {"scopes": []}, "config.attack.scopes"),
        ("cs1", {"pad_level_index": 9}, "config.attack.pad_level_index"),
        ("cs1", {"multipliers": [1.0, 2.0]}, "config.attack.pad_level_index"),
        ("cs1", {"pad_level_index": -1}, "config.attack.pad_level_index"),
        ("cs2", {"scopes": ["pktrx_shift", "pktrx_shift"]}, "config.attack.scopes"),
    ])
    def test_attack_settings_are_checked_before_any_stage(self, tmp_path, capsys,
                                                          scenario, attack, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": scenario, "seed": -1, "attack": attack}))
        out = tmp_path / "r"
        code = main(["train", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{key}: must be" in err and "config.seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("profiles", ["static", "walking"]),
        ("profiles", ["driving", "driving"]),
        ("profiles", []),
        ("spoof_modes", ["floor_zero", "blackout"]),
        ("spoof_modes", ["floor_zero", "floor_zero"]),
        ("spoof_modes", "jitter"),
        ("period_s", 0),
        ("period_s", -60.0),
        ("period_s", "60"),
    ])
    def test_cs3_settings_are_checked_at_every_stage(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        section = ({"data": {"synthetic": {key: value}}} if key == "profiles"
                   else {"attack": {key: value}})
        path.write_text(json.dumps({"scenario": "cs3", "seed": -1, **section}))
        out = tmp_path / "r"
        prefix = "config.data.synthetic" if key == "profiles" else "config.attack"
        for stage in STAGES:
            code = main([stage, "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2
            assert f"{prefix}.{key}: must be" in err and "config.seed" in err
        assert not out.exists()

    def test_cs3_horizon_shorter_than_a_spoof_period_fails_before_generate(self, tmp_path,
                                                                           capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "cs3",
                                    "data": {"synthetic": {"length": 100}}}))
        out = tmp_path / "r"
        code = main(["generate", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert ("config.data.synthetic.length: the live half of a 100-step series is "
                "50 steps, shorter than one spoof period of 60 steps") in err
        assert not out.exists()
        # against the merged config: a longer period strands the stock length
        assert [v.split(":")[0] for v in validate_config(
            {"scenario": "cs3", "attack": {"period_s": 601}})] == [
            "config.data.synthetic.length"]
        assert validate_config({"scenario": "cs3",
                                "data": {"synthetic": {"length": 119}}}) == []

    def test_missing_scenario_is_a_config_error(self, tmp_path, capsys):
        assert main(["all"]) == 2
        assert "config.scenario: required" in capsys.readouterr().err
        # listed beside the config file's own violations
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert main(["all", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config.scenario: required" in err
        assert "config.bogus: unknown key" in err

    def test_runtime_failures_exit_3(self, tmp_path, capsys):
        cfg = tiny_cs6(tmp_path, data={"path": str(tmp_path / "nope.csv")})
        code = main(["all", "--config", cfg, "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 3
        assert "error:" in captured.err

    def test_env_fills_gaps_but_flags_win(self, tmp_path, capsys, monkeypatch):
        cfg = tiny_cs6(tmp_path)
        monkeypatch.setenv("MLSEC5G_CONFIG", cfg)
        monkeypatch.setenv("MLSEC5G_SEED", "3")
        monkeypatch.setenv("MLSEC5G_OUT", str(tmp_path / "env_runs"))
        code = main(["train", "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "stage=train seed=5" in captured.out
        assert os.path.exists(os.path.join(str(tmp_path / "env_runs"), "cs6"))

    def test_bad_env_integer_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MLSEC5G_SEED", "three")
        monkeypatch.setenv("MLSEC5G_SCENARIO", "cs6")
        assert main(["train"]) == 2
        assert "MLSEC5G_SEED" in capsys.readouterr().err
        # listed beside the config file's own violations
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"model": {"n_tree": 3}}))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "MLSEC5G_SEED: must be an integer, got 'three'" in err
        assert "config.model.n_tree: unknown key" in err

    def test_there_is_no_stage_flag(self, tmp_path, capsys):
        cfg = tiny_cs6(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["all", "--config", cfg, "--stage", "generate",
                  "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "--stage" in capsys.readouterr().err

    @pytest.mark.parametrize("alias", ["defend", "report"])
    def test_there_is_one_name_for_the_full_run(self, tmp_path, capsys, alias):
        with pytest.raises(SystemExit) as exc:
            main([alias, "--config", tiny_cs6(tmp_path), "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_the_subcommand_is_the_stage_whatever_the_environment(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MLSEC5G_STAGE", "generate")
        code = main(["all", "--config", tiny_cs6(tmp_path),
                     "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 0
        assert "stage=all" in captured.out

    def test_scenario_flag_alone_suffices(self, tmp_path, capsys):
        code = main(["generate", "--scenario", "cs6",
                     "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("cs6 stage=generate")


ROOT = Path(__file__).resolve().parent.parent


# one bad value per case, each to be named once: (scenario, sections, the key)
BAD_VALUES = [
    ("cs1", {"data": {"synthetic": {"n_hosts": -5}}}, "config.data.synthetic.n_hosts"),
    ("cs3", {"model": {"lr": -1}}, "config.model.lr"),
    ("cs6", {"attack": {"insider": "yes"}}, "config.attack.insider"),
    ("cs6", {"defense": {"adversarial_training": 5}}, "config.defense.adversarial_training"),
    ("cs5", {"attack": {"attacker_ids": "bogus"}}, "config.attack.attacker_ids"),
    ("cs4", {"attack": {"top_k": 0}}, "config.attack.top_k"),
    ("cs2", {"model": {"n_trees": 0}}, "config.model.n_trees"),
    ("cs4", {"model": {"forest": {"n_trees": 0}}}, "config.model.forest.n_trees"),
    ("cs6", {"defense": {"adversarial_training": {"aug_fraction": True}}},
     "config.defense.adversarial_training.aug_fraction"),
    ("cs2", {"attack": {"replace_levels": -1}}, "config.attack.replace_levels"),
    ("cs5", {"model": {"lr": 0}}, "config.model.lr"),
    ("cs6", {"defense": {"feature_removal": "no"}}, "config.defense.feature_removal"),
    # cross-key rules: warm-up half of the stock 1200 steps not longer than the
    # window, no point of a 250 m cell 200 m from its center, terminal 20 of 20
    ("cs3", {"model": {"window": 600}}, "config.data.synthetic.length"),
    ("cs5", {"data": {"synthetic": {"min_gnb_distance": 200}}},
     "config.data.synthetic.min_gnb_distance"),
    ("cs5", {"attack": {"attacker_ids": [3, 20]}}, "config.attack.attacker_ids"),
    # a type error for each kind of check
    ("cs2", {"data": {"synthetic": {"n": "3000"}}}, "config.data.synthetic.n"),
    ("cs6", {"model": {"max_depth": 2.5}}, "config.model.max_depth"),
    ("cs5", {"model": {"lr": "fast"}}, "config.model.lr"),
    ("cs5", {"model": {"l2": -0.1}}, "config.model.l2"),
    ("cs3", {"attack": {"period_s": 0.4}}, "config.attack.period_s"),
    ("cs1", {"defense": {"distillation": 1}}, "config.defense.distillation"),
    ("cs2", {"data": {"path": ""}}, "config.data.path"),
    ("cs2", {"data": {"path": "d.csv", "format": "csv"}}, "config.data.format"),
    ("cs2", {"attack": {"scopes": "pktrx_shift"}}, "config.attack.scopes"),
    ("cs4", {"attack": {"multipliers": [1.0, "2"]}}, "config.attack.multipliers"),
    ("cs1", {"attack": {"ratios": [0.5, 1.5]}}, "config.attack.ratios"),
    ("cs5", {"model": {"hidden": [64, 0]}}, "config.model.hidden"),
    ("cs4", {"model": {"network": {"activation": "sigmoid"}}},
     "config.model.network.activation"),
    ("cs6", {"model": {"max_features": 0}}, "config.model.max_features"),
    ("cs4", {"model": {"network": [64]}}, "config.model.network"),
    ("cs2", {"defense": {"adversarial_training": True}}, "config.defense.adversarial_training"),
    # past the inscribed radius of a 250 m cell placement slows without bound
    ("cs5", {"data": {"synthetic": {"min_gnb_distance": 150}}},
     "config.data.synthetic.min_gnb_distance"),
    # settings the models no longer have are unknown keys, like l2 and activation above
    ("cs5", {"model": {"bias": False}}, "config.model.bias"),
    ("cs5", {"model": {"output_bias": False}}, "config.model.output_bias"),
    ("cs5", {"model": {"batch_size": 64}}, "config.model.batch_size"),
    ("cs4", {"model": {"network": {"standardize": False}}}, "config.model.network.standardize"),
    ("cs3", {"model": {"online_lr": 0.01}}, "config.model.online_lr"),
    # each scenario takes only the format keys its adapter reads
    ("cs2", {"data": {"path": "d.csv", "format": {"lable_column": "CQI"}}},
     "config.data.format.lable_column"),
    ("cs6", {"data": {"path": "d.csv", "format": {"label_column": "Slice"}}},
     "config.data.format.label_column"),
    ("cs3", {"data": {"path": "d.csv", "format": {"profile": "real"}}},
     "config.data.format.profile"),
    ("cs1", {"data": {"path": "d", "format": {"rename": {"ip": "src_ip"}}}},
     "config.data.format.rename"),
    ("cs2", {"data": {"path": "d.csv", "format": {"snr": 10.0}}}, "config.data.format.snr"),
    ("cs4", {"data": {"path": "d.csv", "format": {"snr": "10"}}}, "config.data.format.snr"),
    ("cs6", {"data": {"path": "d.csv", "format": {"rename": {"slice": 3}}}},
     "config.data.format.rename"),
    ("cs1", {"data": {"path": "d", "format": {"attacker_ips": "10.0.0.1"}}},
     "config.data.format.attacker_ips"),
    ("cs5", {"data": {"path": "d.csv", "format": {"topology": ""}}},
     "config.data.format.topology"),
    # max_features is one of its three names: no integer width, no fraction
    ("cs1", {"model": {"max_features": 3}}, "config.model.max_features"),
    ("cs2", {"model": {"max_features": 0.5}}, "config.model.max_features"),
    ("cs6", {"model": {"max_features": 3}}, "config.model.max_features"),
    ("cs4", {"model": {"forest": {"max_features": 3}}}, "config.model.forest.max_features"),
    ("cs4", {"model": {"forest": {"max_features": 0.5}}}, "config.model.forest.max_features"),
]


@pytest.mark.parametrize("scenario, sections, key", BAD_VALUES)
def test_every_bad_value_exits_2_at_every_stage(tmp_path, capsys, scenario, sections, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": scenario, "seed": -1, **sections}))
    out = tmp_path / "r"
    for stage in STAGES:
        assert main([stage, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"{key}:") == 1 and "config.seed" in err
    assert not out.exists()


STOCK_FINGERPRINTS = {
    "cs1": "07eff46c511f56bd0adc48d3bb52fe68c1e41e30bc9a6adf33b456f2021d0a38",
    "cs2": "fe020c4116effe3e2d5417f7fe1ad67e5e8d51d4560cc6b35329e4b83ec9c9d8",
    "cs3": "926c33620e870fa258625e11838c98ba0de33aa12de3666d0fe89eccc7bab7bb",
    "cs4": "c9d48b9a911b786414f43c49b03c51a5500ecc352c16b8b6002f75f64078033d",
    "cs5": "73e62a3506bece9f0d52f221198ad4c68eda7c296aae6d841eceeec7541551a3",
    "cs6": "07014bd26365e76a70f6c6af03fbaa5d07d8ed45f4286128ddefb49cda19fb4d",
}


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_stock_configs_validate_with_unchanged_fingerprints(path):
    raw = json.loads(path.read_text())
    assert validate_config(raw) == []
    pinned = STOCK_FINGERPRINTS[raw["scenario"]]
    assert build_config(raw).fingerprint() == pinned
    assert default_config(raw["scenario"]).fingerprint() == pinned


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _subset(rng, names):
    return [str(n) for n in rng.permutation(list(names))[:int(rng.integers(1, len(names) + 1))]]


def _forest(rng):
    return {"n_trees": int(rng.integers(1, 4)), "max_depth": _pick(rng, [None, 1, 3, 8]),
            "min_samples_split": int(rng.integers(2, 6)),
            "min_samples_leaf": int(rng.integers(1, 4)), "bootstrap": bool(rng.integers(2)),
            "max_features": _pick(rng, ["sqrt", "third", "all"])}


def _network(rng):
    return {"hidden": [int(h) for h in rng.integers(1, 8, size=int(rng.integers(3)))],
            "epochs": int(rng.integers(1, 6)), "lr": float(rng.uniform(1e-3, 0.1))}


def _multipliers(rng):
    return sorted({_pick(rng, [0.1, 0.5, 1.0, 2.0, 10.0]) for _ in range(int(rng.integers(1, 4)))})


def _defenses(rng):
    return {"adversarial_training": _pick(rng, [False, {"aug_fraction":
                                                         float(rng.uniform(0.01, 1.0))}]),
            "feature_removal": bool(rng.integers(2))}


def _reduced_config(scenario, rng):
    """A valid config of the scenario at small sizes, every other key drawn."""
    if scenario == "cs1":
        mults = _multipliers(rng)
        return {"data": {"synthetic": {"n_hosts": int(rng.integers(2, 10)),
                                       "sessions_per_host": int(rng.integers(1, 3)),
                                       "sessions_per_attacker": int(rng.integers(1, 3))}},
                "model": _forest(rng),
                "attack": {"multipliers": mults, "trials": int(rng.integers(1, 3)),
                           "ratios": [float(r) for r in rng.uniform(size=int(rng.integers(3)))],
                           "pad_level_index": int(rng.integers(len(mults)))},
                "defense": {"distillation": bool(rng.integers(2))}}
    if scenario in ("cs2", "cs6"):
        attack = ({"scopes": _subset(rng, CS2_SCOPES), "replace_levels": int(rng.integers(1, 4))}
                  if scenario == "cs2" else {"insider": bool(rng.integers(2))})
        return {"data": {"synthetic": {"n": int(rng.integers(10, 80))}}, "model": _forest(rng),
                "attack": {"multipliers": _multipliers(rng), **attack},
                "defense": _defenses(rng)}
    if scenario == "cs3":
        window = int(rng.integers(1, 6))
        period = float(rng.uniform(0.6, 12.0))
        length = max(int(rng.integers(2 * window + 2, 2 * window + 30)), 2 * round(period))
        return {"data": {"synthetic": {"length": length,
                                       "profiles": _subset(rng, CQI_PROFILES)}},
                "model": {"window": window, "hidden_size": int(rng.integers(1, 4)),
                          "epochs": int(rng.integers(1, 4)), "lr": float(rng.uniform(1e-3, 0.1))},
                "attack": {"spoof_modes": _subset(rng, SPOOF_MODES), "period_s": period}}
    if scenario == "cs4":
        return {"data": {"synthetic": {"n_per_class": int(rng.integers(2, 6))}},
                "model": {"forest": _forest(rng), "network": _network(rng)},
                "attack": {"multipliers": _multipliers(rng), "top_k": int(rng.integers(1, 257)),
                           "random_trials": int(rng.integers(1, 3))}}
    cell_size = float(rng.uniform(20.0, 400.0))
    ues = int(rng.integers(1, 4))
    return {"data": {"synthetic": {"n_samples": int(rng.integers(10, 40)), "cell_size": cell_size,
                                   "ues_per_cell": ues,
                                   "min_gnb_distance": float(rng.uniform(0.0, 0.45 * cell_size))}},
            "model": _network(rng),
            "attack": {"attacker_ids": _pick(rng, ["closest", [int(a) for a in rng.choice(
                           4 * ues, size=int(rng.integers(1, 3)), replace=False)]]),
                       "step_count": int(rng.integers(1, 5)),
                       "max_offset": float(rng.uniform(1.0, 500.0))}}


def test_valid_reduced_configs_run_through_every_stage():
    """No drawn config that passes the table fails at run time. On a
    validation split of a few rows a hardened model can score 0 on clean
    data; its tradeoff is then null with a reason, not an error (this seed
    draws 10 such defenses, in cs1, cs2 and cs6)."""
    rng = np.random.default_rng(7)
    raws = []
    for i in range(300):
        scenario = f"cs{i % 6 + 1}"
        raws.append({"scenario": scenario, "seed": int(rng.integers(1000)),
                     **_reduced_config(scenario, rng)})
        assert validate_config(raws[-1]) == [], raws[-1]

    def undefined_tradeoffs(raw):
        report = run_case_study(raw["scenario"], build_config(raw), stage="all")
        return [(raw["scenario"], d.tradeoff.reason) for d in report.defenses
                if d.tradeoff.tradeoff is None]

    # the configs are independent, so they run side by side, in draw order
    undefined = [u for found in fork_map(undefined_tradeoffs, raws) for u in found]
    assert undefined
    assert all("is 0 on clean data" in reason for _, reason in undefined)


def test_a_hardened_model_that_scores_zero_exits_zero_with_a_null_tradeoff(tmp_path):
    raw = {"scenario": "cs2", "seed": 346, "data": {"synthetic": {"n": 49}},
           "model": {"n_trees": 3, "max_depth": 1, "min_samples_split": 3,
                     "min_samples_leaf": 1, "bootstrap": False, "max_features": "third"},
           "attack": {"multipliers": [0.1, 1.0, 2.0],
                      "scopes": ["pktrx_shift", "pktrxbyt_shift"], "replace_levels": 3},
           "defense": {"adversarial_training": {"aug_fraction": 0.7498753691312113},
                       "feature_removal": True}}
    path = tmp_path / "cs2.json"
    path.write_text(json.dumps(raw))
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    defenses = json.loads((tmp_path / "out" / "cs2" / "report.json").read_text())["defenses"]
    null = [d for d in defenses if d["tradeoff"] is None]
    assert [d["defense"] for d in null] == ["adversarial_training"]
    assert null[0]["p_hardened"] == 0.0 and "undefined" in null[0]["tradeoff_reason"]
    assert all("tradeoff_reason" not in d for d in defenses if d["tradeoff"] is not None)
    rows = (tmp_path / "out" / "cs2" / "defenses.csv").read_text().splitlines()
    assert rows[0].endswith(",tradeoff")
    assert [row.split(",")[-1] for row in rows[1:]] == ["", "0.0"]


def readme_commands() -> list[str]:
    """The `mlsec5g ...` lines of the README's "Command line" block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("mlsec5g ")]


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 3


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_resolves(line, monkeypatch):
    for name in list(os.environ):
        if name.startswith("MLSEC5G_"):
            monkeypatch.delenv(name)
    monkeypatch.chdir(ROOT)
    resolve(build_parser().parse_args(shlex.split(line)[1:]))  # raises ConfigError if broken


_FRONT_END = """
import json, sys
from mlsec5g.cli import main
from mlsec5g.config import build_config
for n in range(1, 7):
    build_config(json.load(open(f"configs/cs{n}.json")))
codes = [main(["all", "--config", sys.argv[1]])]
try:
    main(["--help"])
except SystemExit as exc:
    codes.append(exc.code)
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m == "numpy" or m.split(".")[0] == "mlsec5g")]))
"""


def test_config_errors_and_help_answer_before_numpy_loads(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "cs2", "model": {"n_tree": 3},
                               "attack": {"replace_levels": 0}}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _FRONT_END, str(bad)], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [2, 0]
    assert proc.stderr.splitlines() == [
        "invalid configuration:",
        "  - config.model.n_tree: unknown key (allowed: bootstrap, max_depth, max_features, "
        "min_samples_leaf, min_samples_split, n_trees)",
        "  - config.attack.replace_levels: must be an integer >= 1, got 0"]
    assert modules == ["mlsec5g", "mlsec5g.cli", "mlsec5g.config"]
