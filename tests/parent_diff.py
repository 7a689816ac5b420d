"""Check that the artifacts keep their bytes: across runs of this tree, and
against another revision.

    python tests/parent_diff.py [<rev>]

The script runs the six stock configs at seed 0 at `generate`, `train` and
`all`, and at seed 1 at `all`, from the tree that holds it: one
`python -m mlsec5g.cli` process per run, with `PYTHONPATH` set to the tree's
`src` and BLAS at one thread. It compares `report.json`, `curves.csv`,
`defenses.csv`, `plots/*.csv` and the `timings_s` keys of `run_meta.json`,
and prints each differing file with its first differing line, after the
name of the check that found it. Two more runs of this tree must match the
seed-0 `all` artifacts:

- one CPU: the six configs again, each process bound to one usable CPU, so
  nothing forks;
- CSV: cs2's and cs6's stock synthetic data written to a CSV file and read
  back through `data.path`. The config now names a path, so the run's config
  fingerprint is replaced with the synthetic run's before the comparison.

With `<rev>` (an empty argument counts as none), read from the git
repository of the current directory and extracted with `git archive`, the
six configs also run at the same seeds and stages from that tree, and a
change that means to move numbers lists the files it moves in
`parent_diff_expected.txt`, beside this script, one path per line as printed
after the check's name, seed first (`seed1/all/cs1/report.json`). The exit
status is 1 when the one-CPU or CSV run differs, or when the files that
differ from `<rev>` are not exactly that list, and 0 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
# the CSV check writes its data with this tree's generators
sys.path.insert(0, str(HERE / "src"))

from mlsec5g.config import build_config
from mlsec5g.repro import derive_seed
from mlsec5g.scenarios.generators import generate_scenario_data
from views import export

EXPECTED = Path(__file__).with_name("parent_diff_expected.txt")
SCENARIOS = [f"cs{i}" for i in range(1, 7)]
# (seed, stage): every stage at seed 0, and `all` at a second seed
RUNS = [(0, "generate"), (0, "train"), (0, "all"), (1, "all")]
STOCK_ALL = [(0, "all")]
CSV_SCENARIOS = ["cs2", "cs6"]
ARTIFACTS = ["report.json", "curves.csv", "defenses.csv", "plots/*.csv"]


def extract(rev: str, dest: Path) -> Path:
    done = subprocess.run(["git", "archive", rev], capture_output=True)
    if done.returncode != 0:
        sys.exit(f"git archive {rev}: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run(tree: Path, out: Path, runs: list[tuple[int, str]], configs: dict[str, Path],
        preexec_fn=None) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    for seed, stage in runs:
        for scenario, config in configs.items():
            cmd = [sys.executable, "-m", "mlsec5g.cli", stage, "--config", str(config),
                   "--seed", str(seed), "--out", str(out / f"seed{seed}" / stage)]
            done = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True,
                                  preexec_fn=preexec_fn)
            if done.returncode != 0:
                sys.exit(f"{tree}: seed {seed} {stage} {scenario} exited "
                         f"{done.returncode}\n{done.stderr}")


def stock(tree: Path) -> dict[str, Path]:
    return {s: tree / "configs" / f"{s}.json" for s in SCENARIOS}


def csv_configs(tmp: Path) -> dict[str, Path]:
    """cs2's and cs6's stock configs with their synthetic data written to a
    CSV file, the configs pointing at it."""
    tmp.mkdir()
    configs = {}
    for scenario in CSV_SCENARIOS:
        raw = json.loads((HERE / "configs" / f"{scenario}.json").read_text())
        config = build_config(raw, {"seed": 0})
        data = generate_scenario_data(scenario, seed=derive_seed(config.seed, "data"),
                                      **config.data["synthetic"])
        raw["data"] = export(scenario, data, tmp / scenario)
        configs[scenario] = tmp / f"{scenario}.json"
        configs[scenario].write_text(json.dumps(raw))
    return configs


def take_fingerprint(run_dir: Path, synthetic_dir: Path) -> None:
    """Put the synthetic run's config fingerprint in place of this run's."""
    ours, theirs = (json.loads((d / "report.json").read_text())["config_fingerprint"].encode()
                    for d in (run_dir, synthetic_dir))
    for path in run_dir.rglob("*"):
        if path.is_file():
            path.write_bytes(path.read_bytes().replace(ours, theirs))


def first_difference(a: list[str], b: list[str]) -> str:
    """The first differing line of a and b, from a little before its first
    differing character (report.json is one long line)."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            j = next((k for k, (u, v) in enumerate(zip(x, y)) if u != v), min(len(x), len(y)))
            lo = max(0, j - 60)
            return f"line {i + 1}, column {j + 1}:\n  - {x[lo:j + 100]}\n  + {y[lo:j + 100]}"
    i = min(len(a), len(b))
    return f"line {i + 1}: only in {'the reference' if len(a) > i else 'this run'}"


def compare(check: str, ref: Path, new: Path, runs: list[tuple[int, str]],
            scenarios: list[str]) -> list[str]:
    """The paths under which new's artifacts differ from ref's, each printed
    after the check's name with its first differing line."""
    dirs = [f"seed{seed}/{stage}/{scenario}" for seed, stage in runs for scenario in scenarios]

    def artifacts(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix()
                for d in dirs for pattern in ARTIFACTS for p in (root / d).glob(pattern)}

    differing = []
    for rel in sorted(artifacts(ref) | artifacts(new)):
        a, b = ref / rel, new / rel
        if not (a.exists() and b.exists()):
            print(f"{check}: {rel}: only in {'the reference' if a.exists() else 'this run'}")
        elif a.read_bytes() != b.read_bytes():
            print(f"{check}: {rel}: "
                  f"{first_difference(a.read_text().splitlines(), b.read_text().splitlines())}")
        else:
            continue
        differing.append(rel)
    for d in dirs:
        rel = f"{d}/run_meta.json"
        keys = [list(json.loads((root / rel).read_text())["timings_s"]) for root in (ref, new)]
        if keys[0] != keys[1]:
            print(f"{check}: {rel}: timings_s keys\n  - {keys[0]}\n  + {keys[1]}")
            differing.append(rel)
    return differing


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0] if argv else ""
    cpu = min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="parent-diff-") as tmp:
        tmp = Path(tmp)
        if rev:
            run(extract(rev, tmp / "tree"), tmp / "base", RUNS, stock(tmp / "tree"))
        run(HERE, tmp / "head", RUNS, stock(HERE))
        run(HERE, tmp / "one-cpu", STOCK_ALL, stock(HERE),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        run(HERE, tmp / "csv", STOCK_ALL, csv_configs(tmp / "csv-data"))
        for scenario in CSV_SCENARIOS:
            take_fingerprint(tmp / "csv" / "seed0" / "all" / scenario,
                             tmp / "head" / "seed0" / "all" / scenario)
        failed = bool(compare("one CPU", tmp / "head", tmp / "one-cpu", STOCK_ALL, SCENARIOS)
                      + compare("CSV", tmp / "head", tmp / "csv", STOCK_ALL, CSV_SCENARIOS))
        if rev:
            differing = set(compare(f"base {rev}", tmp / "base", tmp / "head",
                                    RUNS, SCENARIOS))
    print(f"one CPU and CSV: {'differ' if failed else 'the same bits as the stock run'}")
    if not rev:
        return int(failed)
    expected = {line.strip() for line in EXPECTED.read_text().splitlines() if line.strip()}
    for rel in sorted(expected - differing):
        print(f"base {rev}: {rel}: listed in {EXPECTED.name} but identical")
    print(f"base {rev}: {len(differing)} files differ; {EXPECTED.name} lists {len(expected)}"
          + (", the same set" if differing == expected else ", and the sets are not equal"))
    return int(failed or differing != expected)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
