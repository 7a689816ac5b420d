"""Report artifacts: deterministic serialization, plot data, file layout."""

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
from mlsec5g.repro import canonical_json
from mlsec5g.threat import tradeoff


def make_report():
    curve = summarize_curve("sweep", "Acc", "higher_better", "intensity",
                            0.95, [(0.5, [0.9, 0.8]), (1.0, [0.7])])
    residual = summarize_curve("residual[drop]", "Acc", "higher_better",
                               "intensity", 0.9, [(0.5, [0.9])])
    defense = DefenseEvaluation("drop", tradeoff(0.95, 0.90, "Acc"),
                                residual, 0.95, 0.90)
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


@pytest.mark.parametrize("chosen", [None, "2"])
def test_importing_the_package_pins_blas_unless_the_caller_chose(chosen):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if chosen is not None:
        env["OPENBLAS_NUM_THREADS"] = chosen
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mlsec5g.__file__))
    code = ("import os, mlsec5g; from mlsec5g.forkmap import blas_threads; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], blas_threads())")
    variable, threads = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout.split()
    assert variable == (chosen or "1")
    if chosen is None:
        assert threads in ("1", "None")  # None: numpy links no OpenBLAS
