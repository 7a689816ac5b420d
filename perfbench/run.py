"""Benchmark of mlsec5g: case-study workloads end to end, or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forest-cqi --seed 1 --seconds 20 --trace 0

Each repetition runs every case study of the workload with
`run_case_study(..., stage="all")` and writes its artifacts with
`write_report`, one process, one BLAS thread, `jobs` 1. The lines before the
last describe the environment, every repetition and the artifact digest; the
last line is the result as one JSON object. See README.md for the metrics.
"""

from __future__ import annotations

import os

# OpenBLAS reads this once, when numpy loads, and cs5 output depends on it
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ".perfbench"  # generated outputs and the digest ledger, under ROOT

# workload -> [(scenario, override merged into configs/<scenario>.json)]
WORKLOADS = {
    "forest-cqi": [("cs2", {})],
    # half the stock series length, so that a run fits the benchmark's budget
    "online-cqi": [("cs3", {"data": {"synthetic": {"length": 600}}})],
    "dense-power": [("cs5", {})],
    "classify-mix": [("cs1", {}), ("cs4", {}), ("cs6", {})],
}

SETUP_PROBES = 5

# what the CLI pays before a stage starts: its imports and config validation
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import mlsec5g.cli
from mlsec5g.config import build_config
for raw in json.loads(sys.argv[2]):
    build_config(raw)
"""


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        out[key] = _merge(base.get(key, {}), value) if isinstance(value, dict) else value
    return out


def out_dir(workload: str) -> str:
    return f"{STATE}/out/{workload}"


def raw_configs(workload: str, seed: int) -> list[dict]:
    """Stock configs of the workload at this seed, writing under one fixed
    out_dir string: the config fingerprint hashes out_dir."""
    raws = []
    for scenario, override in WORKLOADS[workload]:
        raw = json.loads((ROOT / "configs" / f"{scenario}.json").read_text())
        raws.append(_merge(raw, {**override, "seed": seed, "out_dir": out_dir(workload)}))
    return raws


def measure_setup(raws: list[dict]) -> float:
    """Median wall time of a fresh interpreter that imports and validates."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(raws)],
                       check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": blas_threads(),
            "nproc": os.cpu_count()}


def source_hash(raws: list[dict]) -> str:
    """Identifies the program and inputs whose outputs must repeat exactly."""
    h = hashlib.sha256(json.dumps(raws, sort_keys=True).encode())
    for path in sorted((SRC / "mlsec5g").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def artifact_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over every deterministic artifact; run_meta.json holds timings."""
    h = hashlib.sha256()
    files = sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != "run_meta.json")
    for path in files:
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest(), len(files)


def control_problems(reports) -> list[str]:
    """Controls that must hold exactly on every run."""
    problems = []
    for rep in reports:
        if rep.scenario == "cs3":
            flags = {k: v for k, v in rep.extras.items() if k.startswith("control_zero[")}
            if not flags or not all(flags.values()):
                problems.append(f"cs3 no-spoof control not exact: {flags}")
        if rep.scenario == "cs1":
            curve = next(c for c in rep.curves if c.name == "cs1/poisoning")
            zero = [p for p in curve.points if p.x == 0.0]
            if len(zero) != 1 or zero[0].degradation_mean != 0.0 \
                    or zero[0].degradation_std != 0.0:
                problems.append("cs1 poisoning ratio-0 point has nonzero degradation")
    return problems


class Ledger:
    """Digests and work counters per (workload, seed, program), kept across
    runs in the checkout, so a value that drifts between runs is caught."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key

    def check(self, field: str, value) -> str | None:
        """Record the first value seen; describe any later one that differs."""
        data = json.loads(self.path.read_text()) if self.path.exists() else {}
        entry = data.setdefault(self.key, {})
        if field not in entry:
            entry[field] = value
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        elif entry[field] != value:
            return f"{field} drifted from an earlier run of {self.key}: {entry[field]} != {value}"
        return None


class Session:
    """Checked repetitions of one workload and seed, with their tally."""

    def __init__(self, mods, workload: str, seed: int):
        self.mods, self.workload, self.seed = mods, workload, seed
        self.raws = raw_configs(workload, seed)
        self.out_dir = ROOT / out_dir(workload)
        self.ledger = Ledger(ROOT / STATE / "ledger.json",
                             f"{workload}/seed{seed}/{source_hash(self.raws)}")
        self.digests: set[str] = set()
        self.attempted = self.failed = 0

    def _run(self, tracer):
        """Configs are built before the clock starts: that cost is setup_s."""
        config, runner, report = self.mods
        configs = [config.build_config(raw) for raw in self.raws]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        reports = []
        with tracer.span("workload") if tracer else nullcontext():
            t0 = perf_counter()
            for cfg in configs:
                rep = runner.run_case_study(cfg.scenario, config=cfg, stage="all")
                report.write_report(rep, os.path.join(cfg.out_dir, cfg.scenario))
                reports.append(rep)
            wall = perf_counter() - t0
        for cfg in configs:
            written = json.loads((self.out_dir / cfg.scenario / "report.json").read_text())
            if written["config_fingerprint"] != cfg.fingerprint():
                raise RuntimeError(f"{cfg.scenario}: report.json carries another fingerprint")
        return wall, reports

    def repeat(self, tracer=None):
        """One repetition; (wall seconds, reports), or None if it failed."""
        self.attempted += 1
        try:
            wall, reports = self._run(tracer)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        digest, n_files = artifact_digest(self.out_dir)
        self.digests.add(digest)
        problems = control_problems(reports)
        if len(self.digests) > 1:
            problems.append("artifact digest differs from another run of this seed")
        problems.append(self.ledger.check("digest", digest))
        if tracer:
            problems.append(self.ledger.check("counters", dict(sorted(tracer.counts.items()))))
        problems = [p for p in problems if p]
        print(f"rep {self.attempted} workload={self.workload} seed={self.seed} "
              f"traced={int(bool(tracer))} wall_s={wall:.4f} files={n_files} "
              f"digest=sha256:{digest}", flush=True)
        for p in problems:
            print(f"FAILED {self.workload} seed={self.seed}: {p}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        return wall, reports


def runner_timings(reports) -> dict:
    """report.timings summed by stage; cs3 control runs count as attack."""
    out = {f"runner.{stage}_s": 0.0 for stage in ("data", "train", "attack", "defend")}
    for rep in reports:
        for key, seconds in rep.timings.items():
            stage = key.split("[")[0]
            out[f"runner.{'attack' if stage == 'control' else stage}_s"] += seconds
    return out


def layer_values(tracer, wall: float, plain_wall: float, reports) -> dict:
    from spans import COUNTERS, LAYERS
    values = {f"{name}_{suffix}": 0 for _, _, name, _ in LAYERS if name
              for suffix in ("s", "calls")}
    values.update(dict.fromkeys(COUNTERS, 0))
    selfs = tracer.self_times()
    values.update({f"{name}_s": t for name, t in selfs.items() if name != "workload"})
    values.update(tracer.counts)
    values.update(runner_timings(reports))
    root = next(s for s in tracer.spans if s[0] == "workload")
    records_in = values.get("perturb.records_in", 0)
    values["perturb.accept_ratio"] = (
        (records_in - values.get("perturb.records_rejected", 0)) / records_in
        if records_in else 1.0)
    values["trace.coverage"] = 1.0 - selfs["workload"] / (root[2] - root[1])
    values["trace.overhead_s"] = wall - plain_wall
    values["trace.spans"] = len(tracer.spans)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "mlsec5g" / "__init__.py").is_file():
        print(f"error: no mlsec5g sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import mlsec5g
    from mlsec5g import config, report
    from mlsec5g.scenarios import runner
    if Path(mlsec5g.__file__).resolve().parent != SRC / "mlsec5g":
        print(f"error: imported mlsec5g from {mlsec5g.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    (ROOT / STATE).mkdir(exist_ok=True)
    session = Session((config, runner, report), args.workload, args.seed)
    print("env " + json.dumps(environment(), sort_keys=True))

    values = {}
    if args.trace:
        from spans import Tracer
        plain = session.repeat()
        tracer = Tracer()
        try:
            tracer.install()
            traced = plain and session.repeat(tracer)
        finally:
            tracer.uninstall()
        if traced:
            values = layer_values(tracer, traced[0], plain[0], traced[1])
    else:
        values["setup_s"] = measure_setup(session.raws)
        walls = []
        start = perf_counter()
        while done := session.repeat():
            walls.append(done[0])
            if perf_counter() - start + statistics.median(walls) > args.seconds:
                break
        if walls:
            values["wall_s"] = statistics.median(walls)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"wall_s median of n={len(walls)}: {values['wall_s']:.4f}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    correct = session.failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
