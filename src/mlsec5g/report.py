"""Experiment reports and their on-disk form.

A report is the complete quantitative outcome of one run: baseline metrics,
degradation curves, defense evaluations, perturbation provenance summaries,
and scenario extras. Metric artifacts (report.json, curves.csv, defenses.csv,
plots/*.csv) are byte-identical across runs of the same config and seed;
wall-clock timings and the BLAS thread and CPU counts go to run_meta.json,
the one file allowed to differ.
Every artifact carries the config fingerprint so any number can be traced
back to the exact configuration that produced it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .attacks import DegradationCurve
from .defenses import DefenseEvaluation
from .forkmap import blas_threads, usable_cpus
from .repro import _jsonable, atomic_write_text, canonical_json


@dataclass
class ExperimentReport:
    scenario: str
    config_fingerprint: str
    seed: int
    stage: str
    baseline: dict = field(default_factory=dict)
    curves: list = field(default_factory=list)
    defenses: list = field(default_factory=list)
    provenance: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    reference_constants: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    # rows (figure, series, x, mean, std) collected by the scenario driver
    plot_series: list = field(default_factory=list)


def _num(x) -> float:
    return float(x)


def curve_to_dict(curve: DegradationCurve) -> dict:
    return {
        "name": curve.name,
        "metric": curve.metric_name,
        "orientation": curve.orientation,
        "x_label": curve.x_label,
        "baseline": _num(curve.baseline),
        "points": [
            {
                "x": _num(p.x),
                "metric_mean": _num(p.metric_mean),
                "metric_std": _num(p.metric_std),
                "degradation_mean": _num(p.degradation_mean),
                "degradation_std": _num(p.degradation_std),
                "n_trials": int(p.n_trials),
                "values": [_num(v) for v in p.values],
            }
            for p in curve.points
        ],
    }


def defense_to_dict(ev: DefenseEvaluation) -> dict:
    return {
        "defense": ev.defense,
        "metric": ev.tradeoff.metric_name,
        "p_base": _num(ev.tradeoff.p_base),
        "p_hardened": _num(ev.tradeoff.p_hardened),
        "tradeoff": _num(ev.tradeoff.tradeoff),
        "baseline_clean": _num(ev.baseline_clean),
        "hardened_clean": _num(ev.hardened_clean),
        "residual": curve_to_dict(ev.residual),
    }


def report_to_dict(report: ExperimentReport) -> dict:
    """Deterministic JSON-safe view; timings deliberately excluded."""
    return {
        "scenario": report.scenario,
        "config_fingerprint": report.config_fingerprint,
        "seed": int(report.seed),
        "stage": report.stage,
        "baseline": {k: _num(v) for k, v in sorted(report.baseline.items())},
        "curves": [curve_to_dict(c) for c in report.curves],
        "defenses": [defense_to_dict(d) for d in report.defenses],
        "provenance": _jsonable(report.provenance),
        "extras": _jsonable(report.extras),
        "reference_constants": _jsonable(report.reference_constants),
    }


def _fmt(x: float) -> str:
    # repr keeps full precision and is stable across runs
    return repr(float(x))


def curves_csv_text(report: ExperimentReport) -> str:
    lines = ["fingerprint,scenario,curve,metric,orientation,x_label,baseline,"
             "x,metric_mean,metric_std,degradation_mean,degradation_std,n_trials"]
    for c in report.curves:
        for p in c.points:
            lines.append(",".join([
                report.config_fingerprint, report.scenario, c.name,
                c.metric_name, c.orientation, c.x_label, _fmt(c.baseline),
                _fmt(p.x), _fmt(p.metric_mean), _fmt(p.metric_std),
                _fmt(p.degradation_mean), _fmt(p.degradation_std),
                str(int(p.n_trials)),
            ]))
    return "\n".join(lines) + "\n"


def defenses_csv_text(report: ExperimentReport) -> str:
    lines = ["fingerprint,scenario,defense,metric,p_base,p_hardened,tradeoff"]
    for d in report.defenses:
        lines.append(",".join([
            report.config_fingerprint, report.scenario, d.defense,
            d.tradeoff.metric_name, _fmt(d.tradeoff.p_base),
            _fmt(d.tradeoff.p_hardened), _fmt(d.tradeoff.tradeoff),
        ]))
    return "\n".join(lines) + "\n"


def emit_plot_data(report: ExperimentReport, out_dir: str) -> list[str]:
    """One delimited file per figure with columns (series, x, mean, std).

    Rows keep the order the scenario driver emitted them (stable); an empty
    figure still gets its header so downstream tooling never special-cases.
    """
    os.makedirs(out_dir, exist_ok=True)
    figures: dict[str, list] = {}
    for figure, series, x, mean, std in report.plot_series:
        figures.setdefault(str(figure), []).append((str(series), x, mean, std))
    written = []
    for figure in sorted(figures):
        lines = ["series,x,mean,std"]
        for series, x, mean, std in figures[figure]:
            lines.append(f"{series},{_fmt(x)},{_fmt(mean)},{_fmt(std)}")
        path = os.path.join(out_dir, f"{figure}.csv")
        atomic_write_text(path, "\n".join(lines) + "\n")
        written.append(path)
    return written


def write_report(report: ExperimentReport, out_dir: str) -> dict:
    """Write all artifacts atomically; returns {artifact: path}.

    report.json, curves.csv, defenses.csv and plots/ are pure functions of
    (config, seed); run_meta.json carries wall-clock timings and the BLAS
    thread and CPU counts, and is expected to differ between runs.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    report_path = os.path.join(out_dir, "report.json")
    atomic_write_text(report_path, canonical_json(report_to_dict(report)) + "\n")
    paths["report"] = report_path

    curves_path = os.path.join(out_dir, "curves.csv")
    atomic_write_text(curves_path, curves_csv_text(report))
    paths["curves"] = curves_path

    defenses_path = os.path.join(out_dir, "defenses.csv")
    atomic_write_text(defenses_path, defenses_csv_text(report))
    paths["defenses"] = defenses_path

    for p in emit_plot_data(report, os.path.join(out_dir, "plots")):
        paths[f"plot:{os.path.basename(p)}"] = p

    meta_path = os.path.join(out_dir, "run_meta.json")
    atomic_write_text(meta_path, canonical_json({
        "scenario": report.scenario,
        "config_fingerprint": report.config_fingerprint,
        "seed": int(report.seed),
        "stage": report.stage,
        "timings_s": {k: float(v) for k, v in sorted(report.timings.items())},
        "blas_threads": blas_threads(),
        "nproc": usable_cpus(),
    }) + "\n")
    paths["run_meta"] = meta_path
    return paths
