"""Stage prefixes and the determinism contract, at reduced sizes.

Any stage can be reproduced in isolation, so `train` must report exactly
what `all` reports about data and the baseline, `attack` exactly its curves,
and so on. Dict sections keep every value they had; list sections (curves,
defenses, provenance, plot rows) only grow at the end. The artifacts are a
function of config and seed alone: not of the output directory, nor of the
BLAS thread count.
"""

import json
import os
import shlex
import subprocess
import sys
import weakref

import numpy as np
import pytest

import mlsec5g
from mlsec5g.config import SCENARIOS, STAGES, build_config
from mlsec5g.report import report_to_dict, write_report
from mlsec5g.repro import canonical_json, derive_seed, seeded
from mlsec5g.scenarios.adapters import ingest_real_dataset
from mlsec5g.scenarios.generators import generate_cqi_series, generate_scenario_data
from mlsec5g.scenarios import runner
from mlsec5g.scenarios.runner import run_case_study
from views import artifact_digest, export, write_rows

STAGE_ORDER = ("generate", "train", "attack", "all")
LIST_SECTIONS = ("curves", "defenses", "provenance", "plot_series")

REDUCED = {
    "cs1": {"data": {"synthetic": {"n_hosts": 20, "sessions_per_host": 3}},
            "model": {"n_trees": 3}, "attack": {"trials": 2}},
    "cs2": {"data": {"synthetic": {"n": 300}}, "model": {"n_trees": 3}},
    "cs3": {"data": {"synthetic": {"length": 240}}, "model": {"epochs": 5}},
    "cs4": {"data": {"synthetic": {"n_per_class": 10}},
            "model": {"forest": {"n_trees": 3}, "network": {"epochs": 5}},
            "attack": {"random_trials": 2}},
    "cs5": {"data": {"synthetic": {"n_samples": 200}}, "model": {"epochs": 20}},
    "cs6": {"data": {"synthetic": {"n": 400}}, "model": {"n_trees": 3}},
}


def same(a, b) -> bool:
    # through canonical JSON, so NaN equals NaN
    return canonical_json(a) == canonical_json(b)


def assert_prefix(earlier, later, where: str) -> None:
    """Dicts keep every key's value (recursively); list sections keep their head."""
    if not isinstance(earlier, dict):
        assert same(later, earlier), f"{where} changed"
        return
    for key, value in earlier.items():
        assert key in later, f"{where}.{key} is gone"
        if key in LIST_SECTIONS:
            assert same(later[key][:len(value)], value), f"{where}.{key} is not a prefix"
        else:
            assert_prefix(value, later[key], f"{where}.{key}")


def stage_timings(scenario: str, stage: str, profiles) -> list[str]:
    """The sorted timings_s keys of a run: one per stage run (cs4 and cs5
    have no defend stage), but cs3 times only its data, beside a warm-up and a
    stream per profile."""
    if scenario == "cs3":
        streams = {"generate": (), "train": ("train", "control")}.get(
            stage, ("train", "attack"))
        return sorted(["data", *(f"{s}[{p}]" for p in profiles for s in streams)])
    last = 2 if scenario in ("cs4", "cs5") else 3
    return sorted(("data", "train", "attack", "defend")[:min(STAGES[stage], last) + 1])


@pytest.mark.parametrize("scenario", sorted(REDUCED))
def test_each_stage_is_a_prefix_of_the_next(scenario):
    config = build_config({"scenario": scenario, "seed": 3, **REDUCED[scenario]})
    views = []
    for stage in STAGE_ORDER:
        report = run_case_study(scenario, config=config, stage=stage)
        assert sorted(report.timings) == stage_timings(
            scenario, stage, report.extras.get("profiles", ()))
        view = report_to_dict(report)
        assert view.pop("stage") == stage
        view["plot_series"] = [list(row) for row in report.plot_series]
        views.append(view)
    for (s0, v0), (s1, v1) in zip(zip(STAGE_ORDER, views), zip(STAGE_ORDER[1:], views[1:])):
        assert_prefix(v0, v1, f"{scenario} {s0} -> {s1}")
    # the full run adds something at every stage boundary
    assert views[-1]["baseline"] and views[-1]["curves"] and views[-1]["plot_series"]


@pytest.mark.parametrize("scenario", sorted(REDUCED))
def test_generate_trains_nothing(scenario, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("a model was trained")

    for name in ("train_forest", "train_network", "init_online"):
        monkeypatch.setattr(runner, name, refuse)
    config = build_config({"scenario": scenario, "seed": 3, **REDUCED[scenario]})
    report = run_case_study(scenario, config=config, stage="generate")
    assert list(report.timings) == ["data"] and not report.baseline
    with pytest.raises(RuntimeError, match="a model was trained"):
        run_case_study(scenario, config=config, stage="train")


@pytest.mark.parametrize("seed", [0, -1, 2 ** 63 + 5, derive_seed(9, "data")])
def test_a_seeded_stream_is_the_folded_seed_and_its_tag(seed):
    """Every stream of a run is seeded(seed, tag): the Generator of the seed
    folded to 63 bits, paired with the tag."""
    want = np.random.default_rng([seed & (2 ** 63 - 1), 0x5117])
    got = seeded(seed, 0x5117)
    assert got.integers(0, 2 ** 62, 8).tolist() == want.integers(0, 2 ** 62, 8).tolist()
    assert got.random() == want.random()


def test_cs1_ratio_zero_control_is_exact_for_every_seed():
    raw = {"scenario": "cs1", **REDUCED["cs1"], "attack": {"trials": 3}}
    for seed in range(10):
        report = run_case_study("cs1", config=build_config({**raw, "seed": seed}),
                                stage="attack")
        curve = next(c for c in report.curves if c.name == "cs1/poisoning")
        zero = curve.points[0]
        assert zero.x == 0.0 and zero.n_trials == 3
        assert (zero.degradation_mean, zero.degradation_std) == (0.0, 0.0), f"seed {seed}"


def test_cs4_sweeps_hold_at_most_two_perturbed_copies(monkeypatch):
    """Every cs4 sweep streams its shifted copies: when the attack draws
    variant k, variants up to k-2 are gone (its loop may still hold k-1)."""
    inner = runner.run_inference_attack
    drawn: dict[str, int] = {}
    alive: dict[str, list[int]] = {}

    def note(name, refs, v):
        refs.append(weakref.ref(v))
        alive[name] += [k for k, r in enumerate(refs[:-2]) if r() is not None]

    def watched(model, clean_eval, adversarial_sets, *args, name, **kwargs):
        refs = []
        alive[name] = []

        def variants_of(variants):
            for v in variants:
                note(name, refs, v)
                yield v

        def sets():
            for x, variants in adversarial_sets:
                if isinstance(variants, np.ndarray):
                    note(name, refs, variants)
                else:
                    variants = variants_of(variants)
                yield x, variants

        result = inner(model, clean_eval, sets(), *args, name=name, **kwargs)
        drawn[name] = len(refs)
        return result

    monkeypatch.setattr(runner, "run_inference_attack", watched)
    config = build_config({"scenario": "cs4", "seed": 3, **REDUCED["cs4"]})
    run_case_study("cs4", config=config, stage="attack")
    n = len(config.attack["multipliers"])
    assert drawn == {"cs4/top25": n, "cs4/random25": 2 * n, "cs4/top25_network": n}
    assert alive == {name: [] for name in drawn}


@pytest.mark.parametrize("scenario", ["cs1", "cs2", "cs4", "cs5", "cs6"])
def test_synthetic_data_read_back_from_files_gives_the_synthetic_run(tmp_path, scenario):
    """The real-data path end to end: the same rows through the adapter and
    the whole pipeline give the same report, all but the fingerprint (the
    config now names a path) and cs4's overlap with the generator's
    informative features, which a file does not know, and the same plot rows."""
    synthetic = build_config({"scenario": scenario, "seed": 0, **REDUCED[scenario]})
    data = generate_scenario_data(scenario, seed=derive_seed(0, "data"),
                                  **synthetic.data["synthetic"])
    real = build_config({"scenario": scenario, "seed": 0, **REDUCED[scenario],
                         "data": export(scenario, data, tmp_path / scenario)})
    want, got = (run_case_study(scenario, config=c) for c in (synthetic, real))
    assert want.config_fingerprint != got.config_fingerprint
    want_view, got_view = report_to_dict(want), report_to_dict(got)
    del want_view["config_fingerprint"], got_view["config_fingerprint"]
    if scenario == "cs4":
        assert "top_k_informative_overlap" not in got_view["extras"]
        del want_view["extras"]["top_k_informative_overlap"]
    assert same(got_view, want_view)
    assert got.plot_series == want.plot_series


# what each scenario's generator returns; its adapter adds "provenance"
DATA_KEYS = {"cs1": {"packets", "session_labels", "attacker_ips"},
             "cs2": {"records", "targets", "schema"},
             "cs3": {"series", "profile"},
             "cs4": {"X", "y", "schema", "informative"},
             "cs5": {"X", "Y", "schema", "topology"},
             "cs6": {"records", "labels", "schema"}}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_an_adapter_returns_its_generators_keys_and_provenance(tmp_path, scenario):
    """The data contract: a file read gives exactly the synthetic data's keys
    plus the adapter's provenance."""
    data = generate_scenario_data(scenario, seed=1, **REDUCED[scenario]["data"]["synthetic"])
    block = export(scenario, data, tmp_path / scenario)
    read = ingest_real_dataset(scenario, block["path"], block.get("format"))
    assert set(data) == DATA_KEYS[scenario]
    assert set(read) == DATA_KEYS[scenario] | {"provenance"}


def test_a_cqi_series_read_from_a_file_runs_through_every_stage(tmp_path):
    """cs3's data.path: one generated series written as a CQI column is the
    one "real" profile, with an exact control, a differential per spoof mode,
    one warm-up and one stream, and the file named in run_meta.json."""
    synthetic = build_config({"scenario": "cs3", "seed": 0, **REDUCED["cs3"]})
    syn = dict(synthetic.data["synthetic"])
    profile = syn.pop("profiles")[0]
    series = generate_cqi_series(seed=derive_seed(0, "data", profile), profile=profile,
                                 **syn)["series"]
    path = tmp_path / "cqi.csv"
    write_rows(path, ("CQI",), [[float(v)] for v in series])
    real = build_config({"scenario": "cs3", "seed": 0, **REDUCED["cs3"],
                         "data": {"path": str(path)}})
    report = run_case_study("cs3", config=real)
    assert report.extras["profiles"] == ["real"]
    assert report.extras["control_zero[real]"] is True
    assert sorted(report.extras["final_differential"]) == sorted(
        f"real/{mode}" for mode in real.attack["spoof_modes"])
    write_report(report, str(tmp_path / "out" / "cs3"))
    meta = json.loads((tmp_path / "out" / "cs3" / "run_meta.json").read_text())
    assert sorted(meta["timings_s"]) == ["attack[real]", "data", "train[real]"]
    assert meta["data"] == {"path": os.path.abspath(path), "scenario": "cs3",
                            "rows": len(series), "skipped": 0}


@pytest.mark.parametrize("scenario", ["cs2", "cs6"])
def test_a_split_with_an_empty_side_fails_before_any_fit(tmp_path, monkeypatch, scenario):
    """Three rows split 90/10 leave no validation row. `generate` still reads
    them; `train` names the counts before a model is fit."""
    synthetic = build_config({"scenario": scenario, "seed": 0, **REDUCED[scenario]})
    data = generate_scenario_data(scenario, seed=derive_seed(0, "data"),
                                  **synthetic.data["synthetic"])
    data["records"] = data["records"][:3]
    config = build_config({"scenario": scenario, "seed": 0, **REDUCED[scenario],
                           "data": export(scenario, data, tmp_path / scenario)})

    def refuse(*args, **kwargs):
        raise RuntimeError("a model was trained")

    monkeypatch.setattr(runner, "train_forest", refuse)
    assert run_case_study(scenario, config=config, stage="generate").extras["n_records"] == 3
    with pytest.raises(ValueError, match="3 rows give 3 training and 0 validation rows"):
        run_case_study(scenario, config=config, stage="train")


def test_a_real_data_run_names_its_file_in_run_meta(tmp_path):
    """A data.path run's run_meta.json names the file, its rows and the rows
    skipped; its report.json does not, and a synthetic run's run_meta.json
    has no data block. cs1 reads a directory and counts packets.csv and
    sessions.csv apart, so a skipped row says which file it was in."""
    for scenario, short_row_file in (("cs6", "data.csv"), ("cs1", "sessions.csv")):
        synthetic = build_config({"scenario": scenario, "seed": 0, **REDUCED[scenario]})
        data = generate_scenario_data(scenario, seed=derive_seed(0, "data"),
                                      **synthetic.data["synthetic"])
        block = export(scenario, data, tmp_path / scenario)
        with open(tmp_path / scenario / short_row_file, "a") as fh:
            fh.write("1.0,2.0\n")  # one short row
        real = build_config({"scenario": scenario, "seed": 0, **REDUCED[scenario],
                             "data": block})
        for name, config in (("synthetic", synthetic), ("real", real)):
            write_report(run_case_study(scenario, config=config, stage="generate"),
                         str(tmp_path / name / scenario))
        counts = ({"packets": {"rows": len(data["packets"]), "skipped": 0},
                   "sessions": {"rows": len(data["session_labels"]) + 1, "skipped": 1}}
                  if scenario == "cs1" else {"rows": len(data["records"]) + 1, "skipped": 1})
        meta = json.loads((tmp_path / "real" / scenario / "run_meta.json").read_text())
        assert meta["data"] == {"path": os.path.abspath(block["path"]),
                                "scenario": scenario, **counts}
        assert block["path"] not in (tmp_path / "real" / scenario / "report.json").read_text()
        assert "data" not in json.loads(
            (tmp_path / "synthetic" / scenario / "run_meta.json").read_text())


def test_cli_artifacts_ignore_out_dir_and_blas_threads(tmp_path):
    """Every scenario through the CLI, with BLAS threads unset, pinned to 1
    and at 2, each into its own --out; the three chains run side by side."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mlsec5g.__file__))
    for scenario, sizes in REDUCED.items():
        (tmp_path / f"{scenario}.json").write_text(
            json.dumps({"scenario": scenario, "seed": 2, **sizes}))
    chains = {}
    for threads in (None, "1", "2"):
        out = tmp_path / f"out-{threads}"
        chain = " && ".join(
            shlex.join([sys.executable, "-m", "mlsec5g.cli", "all", "--config",
                        str(tmp_path / f"{scenario}.json"), "--out", str(out)])
            for scenario in sorted(REDUCED))
        chains[out] = subprocess.Popen(
            chain, shell=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads})
    digests: dict[str, set[str]] = {}
    for out, proc in chains.items():
        _, err = proc.communicate()
        assert proc.returncode == 0, err
        for scenario in REDUCED:
            digests.setdefault(scenario, set()).add(artifact_digest(out / scenario))
    assert {s: len(d) for s, d in digests.items()} == dict.fromkeys(REDUCED, 1)
