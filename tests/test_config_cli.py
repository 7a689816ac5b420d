"""Configuration contract and the command-line front end."""

import json
import os
import shlex
from pathlib import Path

import pytest

from mlsec5g.cli import build_parser, main, resolve
from mlsec5g.config import (STAGES, ConfigError, build_config, default_config,
                            validate_config)


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

    def test_missing_scenario_is_a_config_error(self, capsys):
        code = main(["all"])
        captured = capsys.readouterr()
        assert code == 2
        assert "config.scenario: required" in captured.err

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

    def test_bad_env_integer_is_a_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MLSEC5G_SEED", "three")
        monkeypatch.setenv("MLSEC5G_SCENARIO", "cs6")
        code = main(["train"])
        captured = capsys.readouterr()
        assert code == 2
        assert "MLSEC5G_SEED" in captured.err

    def test_stage_flag_overrides_the_subcommand(self, tmp_path, capsys):
        cfg = tiny_cs6(tmp_path)
        code = main(["all", "--config", cfg, "--stage", "generate",
                     "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 0
        assert "stage=generate" in captured.out

    def test_scenario_flag_alone_suffices(self, tmp_path, capsys):
        code = main(["generate", "--scenario", "cs6",
                     "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("cs6 stage=generate")


ROOT = Path(__file__).resolve().parent.parent


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
