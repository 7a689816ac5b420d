"""cs3's profiles and cs1's poisoning grid through the ordered fork map: the
same report and artifacts for any worker count, failures that reach the
caller, no process where forking is not safe or cannot pay, and no worker
that forks again."""

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

import test_attacks

from mlsec5g import forkmap
from mlsec5g.config import build_config
from mlsec5g.models import forest
from mlsec5g.report import report_to_dict, write_report
from mlsec5g.repro import canonical_json
from mlsec5g.scenarios import runner
from mlsec5g.scenarios.runner import run_case_study

PROFILES = ["static", "driving", "high"]  # run as sorted: driving, high, static


def _config(profiles=PROFILES):
    return build_config({"scenario": "cs3", "seed": 5,
                         "data": {"synthetic": {"length": 240, "profiles": profiles}},
                         "model": {"window": 12, "hidden_size": 6, "epochs": 4}})


def _digest(report, out_dir) -> str:
    """sha256 over every artifact but run_meta.json, which holds timings."""
    write_report(report, str(out_dir))
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name != "run_meta.json":
            h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("stage", ["train", "all"])
def test_profiles_have_the_same_bits_for_any_worker_count(stage, started, monkeypatch,
                                                          tmp_path):
    views, digests = [], []
    for workers in (0, 1, 2, 3):  # 0: in this process
        monkeypatch.setattr(forkmap, "_workers", workers)
        report = run_case_study("cs3", config=_config(), stage=stage)
        assert len(started) == sum(range(workers + 1))
        views.append(canonical_json(report_to_dict(report)))
        digests.append(_digest(report, tmp_path / str(workers)))
        streams = "attack" if stage == "all" else "control"
        assert sorted(report.timings) == sorted(
            ["data", *(f"{s}[{p}]" for p in PROFILES for s in ("train", streams))])
        assert all(report.extras[f"control_zero[{p}]"] for p in PROFILES)
    assert len(set(views)) == 1 and len(set(digests)) == 1
    assert not any(p.is_alive() for p in started)


def _fail_in_workers(monkeypatch, fail):
    parent, init_online = os.getpid(), runner.init_online

    def init_here_only(spec, series):
        if os.getpid() != parent:
            fail()
        return init_online(spec, series)

    monkeypatch.setattr(runner, "init_online", init_here_only)


def test_a_profile_that_raises_in_a_worker_raises_here(monkeypatch, started):
    monkeypatch.setattr(forkmap, "_workers", 2)

    def fail():
        raise ValueError("warm-up in a worker")

    _fail_in_workers(monkeypatch, fail)
    with pytest.raises(ValueError, match="warm-up in a worker"):
        run_case_study("cs3", config=_config(), stage="train")
    assert len(started) == 2 and not any(p.is_alive() for p in started)


def test_a_worker_that_dies_fails_the_run(monkeypatch, started):
    monkeypatch.setattr(forkmap, "_workers", 2)
    _fail_in_workers(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited before sending the result for 'driving'"):
        run_case_study("cs3", config=_config(), stage="all")
    assert len(started) == 2 and not any(p.is_alive() for p in started)


def test_profiles_beside_other_threads_run_here(monkeypatch, started):
    monkeypatch.setattr(forkmap, "_workers", 0)
    want = report_to_dict(run_case_study("cs3", config=_config(), stage="all"))
    monkeypatch.setattr(forkmap, "_workers", 2)
    with ThreadPoolExecutor(max_workers=1) as pool:
        report = pool.submit(run_case_study, "cs3", config=_config(), stage="all").result()
    assert started == []
    assert canonical_json(report_to_dict(report)) == canonical_json(want)


def test_a_single_profile_runs_here(monkeypatch, started):
    monkeypatch.setattr(forkmap, "_workers", 2)
    report = run_case_study("cs3", config=_config(["high"]), stage="all")
    assert started == []
    assert report.extras["control_zero[high]"]


@pytest.mark.parametrize("setting", ["one usable CPU", "no os.fork"])
def test_nothing_forks_without_a_second_cpu_or_os_fork(setting, monkeypatch, started):
    if setting == "one usable CPU":
        monkeypatch.setattr(forkmap, "usable_cpus", lambda: 1)
    else:
        monkeypatch.setattr(forkmap, "_workers", 2)
        monkeypatch.delattr(forkmap.os, "fork")
    assert forkmap.fork_map(lambda item: (item, os.getpid()), [0, 1]) == [
        (0, os.getpid()), (1, os.getpid())]
    assert started == []


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(forkmap.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(forkmap.os, "cpu_count", lambda: 3)
    assert forkmap.usable_cpus() == 3
    monkeypatch.setattr(forkmap.os, "cpu_count", lambda: None)
    assert forkmap.usable_cpus() == 1


def test_a_worker_never_forks_again(monkeypatch, started):
    def nested(i):
        return forkmap.fork_map(lambda k: (i, k, os.getpid()), [1, 2, 3])

    monkeypatch.setattr(forkmap, "_workers", 2)
    got = forkmap.fork_map(nested, [1, 2])
    # each nested map ran inside its own worker: no grandchild took an item
    assert [[(i, k) for i, k, _ in rows] for rows in got] == [
        [(i, k) for k in (1, 2, 3)] for i in (1, 2)]
    assert [{pid for *_, pid in rows} for rows in got] == [{p.pid} for p in started]
    assert os.getpid() not in {rows[0][2] for rows in got}


def test_poisoning_cells_have_the_same_bits_for_any_worker_count(monkeypatch, started):
    curves = []
    for workers in (0, 2):
        monkeypatch.setattr(forkmap, "_workers", workers)
        curves.append(test_attacks.TestTrainingAttack().run())
    assert len(started) == 2
    assert curves[0] == curves[1]
    assert len(set(curves[0].points[0].values)) == 3  # each trial its own control


def test_cs1_poisoning_has_the_same_bits_for_any_worker_count(monkeypatch, started):
    # every forest with a second tree would fork where it may: the baseline in
    # this process does, the poisoning retrains inside workers must not
    monkeypatch.setattr(forest, "_FORK_MIN_WORK", 0)
    config = build_config({"scenario": "cs1", "seed": 3,
                           "data": {"synthetic": {"n_hosts": 20, "sessions_per_host": 3}},
                           "model": {"n_trees": 3}, "attack": {"trials": 2}})
    views = []
    for workers in (0, 2):
        monkeypatch.setattr(forkmap, "_workers", workers)
        views.append(canonical_json(report_to_dict(
            run_case_study("cs1", config=config, stage="attack"))))
    assert len(started) == 4  # two for the baseline's trees, two for the grid
    assert views[0] == views[1]
    assert not any(p.is_alive() for p in started)
