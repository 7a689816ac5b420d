"""Report artifacts: deterministic serialization, plot data, file layout."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mlsec5g
from mlsec5g.attacks import summarize_curve
from mlsec5g.defenses import DefenseEvaluation
from mlsec5g.report import (ExperimentReport, curves_csv_text,
                            defenses_csv_text, emit_plot_data,
                            report_to_dict, write_report)
from mlsec5g.repro import canonical_json, fingerprint_arrays
from mlsec5g.threat import tradeoff


def make_report():
    curve = summarize_curve("sweep", "Acc", "intensity",
                            0.95, [(0.5, [0.9, 0.8]), (1.0, [0.7])])
    residual = summarize_curve("residual[drop]", "Acc",
                               "intensity", 0.9, [(0.5, [0.9])])
    defense = DefenseEvaluation("drop", tradeoff(0.95, 0.90, "Acc"), residual)
    return ExperimentReport(
        scenario="cs2", config_fingerprint="abc123", seed=7, stage="all",
        baseline={"Acc": 0.95, "RMSE": 0.2},
        curves=[curve], defenses=[defense],
        extras={"note": np.float64(1.5), "ids": np.array([1, 2])},
        timings={"train_s": 3.2},
        plot_series=[("fig_deg", "s1", 0.5, 0.1, 0.01),
                     ("fig_deg", "s1", 1.0, 0.2, 0.02),
                     ("fig_aux", "s2", 0.0, 5.0, 0.0)])


class TestSerialization:
    def test_timings_never_reach_the_metric_view(self):
        d = report_to_dict(make_report())
        assert "timings" not in d and "timings_s" not in d
        assert d["scenario"] == "cs2" and d["seed"] == 7

    def test_numpy_values_become_plain_json(self):
        d = report_to_dict(make_report())
        text = canonical_json(d)
        back = json.loads(text)
        assert back["extras"]["note"] == 1.5
        assert back["extras"]["ids"] == [1, 2]

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_an_array_fingerprint_hashes_the_c_ordered_bytes(self):
        X = np.arange(24, dtype=float).reshape(4, 6) / 7
        for a in (X, np.asfortranarray(X), X[::2, 1:5]):
            want = hashlib.sha256(f"{a.dtype}{a.shape}".encode()
                                  + np.ascontiguousarray(a).tobytes() + b"ctx")
            assert fingerprint_arrays(a, extra="ctx") == want.hexdigest()

    def test_curve_points_survive_the_round_trip(self):
        d = report_to_dict(make_report())
        pts = d["curves"][0]["points"]
        assert [p["x"] for p in pts] == [0.5, 1.0]
        assert pts[0]["values"] == [0.9, 0.8]
        assert pts[0]["n_trials"] == 2

    def test_csv_shapes(self):
        rep = make_report()
        curves = curves_csv_text(rep).splitlines()
        assert curves[0].startswith("fingerprint,scenario,curve,")
        assert len(curves) == 1 + 2  # two sweep points
        assert all(line.split(",")[0] == "abc123" for line in curves[1:])
        defenses = defenses_csv_text(rep).splitlines()
        assert len(defenses) == 2
        assert defenses[1].split(",")[2] == "drop"

    def test_an_undefined_tradeoff_is_null_with_its_reason(self):
        rep = make_report()
        residual = rep.defenses[0].residual
        rep.defenses.append(DefenseEvaluation("zeroed", tradeoff(0.95, 0.0, "Acc"),
                                              residual))
        kept, null = report_to_dict(rep)["defenses"]
        assert "tradeoff_reason" not in kept
        assert null["tradeoff"] is None
        assert null["tradeoff_reason"] == tradeoff(0.95, 0.0, "Acc").reason
        assert '"tradeoff":null,"tradeoff_reason":"hardened Acc is 0' in canonical_json(null)
        header, _, row = defenses_csv_text(rep).splitlines()
        assert len(row.split(",")) == len(header.split(",")) and row.endswith(",0.0,")


class TestArtifacts:
    def test_write_report_layout(self, tmp_path):
        rep = make_report()
        paths = write_report(rep, str(tmp_path))
        assert set(paths) == {"report", "curves", "defenses", "run_meta",
                              "plot:fig_deg.csv", "plot:fig_aux.csv"}
        for p in paths.values():
            assert os.path.exists(p)
        meta = json.loads(open(paths["run_meta"]).read())
        assert meta["timings_s"] == {"train_s": 3.2}
        assert meta["nproc"] >= 1
        assert meta["blas_threads"] is None or meta["blas_threads"] >= 1
        report = json.loads(open(paths["report"]).read())
        assert report["config_fingerprint"] == "abc123"

    def test_metric_artifacts_are_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pa = write_report(make_report(), str(a))
        pb = write_report(make_report(), str(b))
        for key in pa:
            if key == "run_meta":
                continue
            assert open(pa[key], "rb").read() == open(pb[key], "rb").read()

    def test_plot_files_keep_emission_order(self, tmp_path):
        written = emit_plot_data(make_report(), str(tmp_path))
        names = [os.path.basename(p) for p in written]
        assert names == ["fig_aux.csv", "fig_deg.csv"]
        lines = open(os.path.join(str(tmp_path), "fig_deg.csv")).read().splitlines()
        assert lines[0] == "series,x,mean,std"
        assert lines[1].startswith("s1,0.5,") and lines[2].startswith("s1,1.0,")

    def test_no_plot_rows_no_plot_files(self, tmp_path):
        rep = make_report()
        rep.plot_series = []
        assert emit_plot_data(rep, str(tmp_path)) == []
        assert os.listdir(str(tmp_path)) == []

    def test_single_row_figure_has_header_and_row(self, tmp_path):
        rep = make_report()
        rep.plot_series = [("lonely", "s", 0.25, 1.0, 0.0)]
        written = emit_plot_data(rep, str(tmp_path))
        lines = open(written[0]).read().splitlines()
        assert lines == ["series,x,mean,std", "s,0.25,1.0,0.0"]


def _python(code: str, threads: str | None) -> subprocess.Popen:
    """`python -c code`, started with OPENBLAS_NUM_THREADS unset or at threads."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mlsec5g.__file__))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                            text=True)


def _stdout(proc: subprocess.Popen) -> str:
    out, _ = proc.communicate()
    assert proc.returncode == 0
    return out


# stock cs5 data at 20 epochs, where a 2-thread BLAS changes the network's last bits
_CS5_DIGEST = """
import hashlib, sys
import mlsec5g
print('numpy' in sys.modules)
from mlsec5g.config import default_config
from mlsec5g.report import report_to_dict
from mlsec5g.repro import canonical_json
from mlsec5g.scenarios.runner import run_case_study
report = run_case_study("cs5", default_config("cs5", model={"epochs": 20}), stage="train")
print(hashlib.sha256(canonical_json(report_to_dict(report)).encode()).hexdigest())
"""


def test_cs5_numbers_do_not_depend_on_the_callers_blas_threads():
    procs = [_python(_CS5_DIGEST, threads) for threads in (None, "1", "2")]
    outs = {_stdout(p) for p in procs}
    assert len(outs) == 1
    assert outs.pop().startswith("False")  # importing the package loads no numpy


def test_a_run_after_a_bare_numpy_import_gives_the_one_thread_digest():
    # OpenBLAS then starts at its own count, as under a caller that imported numpy first
    procs = [_python("import numpy" + _CS5_DIGEST, None), _python(_CS5_DIGEST, "1")]
    first, pinned = (_stdout(p).split()[1] for p in procs)
    assert first == pinned


def test_the_openblas_lookup_reads_the_maps_once_per_verb():
    # numpy's OpenBLAS stays once loaded, and forked workers inherit the lookup
    code = """
import builtins, json
from mlsec5g import forkmap
reads, real_open = [], builtins.open
def counted(path, *args, **kwargs):
    reads.append(path == "/proc/self/maps")
    return real_open(path, *args, **kwargs)
builtins.open = counted
seen = [forkmap.blas_threads()]
for _ in range(2):
    with forkmap.one_blas_thread():
        seen.append(forkmap.blas_threads())
    seen.append(forkmap.blas_threads())
forkmap._workers = 2
workers = forkmap.fork_map(lambda _: (forkmap.blas_threads(), sum(reads)), [0, 1])
print(json.dumps([seen, sum(reads), workers]))
"""
    seen, reads, workers = json.loads(_stdout(_python(code, "2")))
    assert reads == 2  # get and set
    assert workers == [[seen[0], 2]] * 2
    if seen[0] is not None:  # before, inside, after, inside, after
        assert seen == [seen[0], 1, seen[0], 1, seen[0]]


def test_a_run_gives_the_caller_back_its_blas_count():
    code = """
import json
from mlsec5g.forkmap import blas_threads
from mlsec5g.scenarios import runner
seen = [blas_threads()]
def driver(config, report):
    seen.append(blas_threads())
    yield "data"
    raise RuntimeError("stage failed")
runner._run_cs4 = driver
seen.append(runner.run_case_study("cs4", stage="generate").blas_threads)
seen.append(blas_threads())
try:
    runner.run_case_study("cs4", stage="train")
except RuntimeError:
    seen.append(blas_threads())
print(json.dumps(seen))
"""
    seen = json.loads(_stdout(_python(code, "2")))
    if seen[0] in (None, 1):
        pytest.skip(f"OpenBLAS started at {seen[0]} threads, not 2")
    # inside the run, in run_meta.json, after it, inside a run that raises, after it
    assert seen == [2, 1, 1, 2, 1, 2]
