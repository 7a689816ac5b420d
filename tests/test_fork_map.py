"""cs3's profiles through the ordered fork map: the same report and artifacts
for any worker count, failures that reach the caller, and no process where
forking is not safe or cannot pay."""

import hashlib
import multiprocessing.process
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from mlsec5g import forkmap
from mlsec5g.config import build_config
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


@pytest.fixture
def started(monkeypatch):
    """The processes started while the test runs."""
    processes = []
    start = multiprocessing.process.BaseProcess.start

    def counted(self):
        processes.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return processes


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
