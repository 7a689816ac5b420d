"""Compare this tree's artifacts with those of another revision, byte for byte.

    python tests/parent_diff.py <rev>

`<rev>` is read from the git repository of the current directory and
extracted with `git archive`. Both trees, the one that holds this script and
`<rev>`'s, run the six stock configs at seed 0 at `generate`, `train` and
`all`: one `python -m mlsec5g.cli` process per run, with `PYTHONPATH` set to
that tree's `src` and BLAS at one thread. The script compares `report.json`,
`curves.csv`, `defenses.csv`, `plots/*.csv` and the `timings_s` keys of
`run_meta.json`, and prints each differing file with its first differing
line.

A change that means to move numbers lists the files it moves in
`parent_diff_expected.txt`, beside this script, one path per line as printed
here (`all/cs1/report.json`). The exit status is 1 when the differing files
are not exactly that list, and 0 when they are.
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
EXPECTED = Path(__file__).with_name("parent_diff_expected.txt")
SCENARIOS = [f"cs{i}" for i in range(1, 7)]
STAGES = ["generate", "train", "all"]
ARTIFACTS = ["report.json", "curves.csv", "defenses.csv", "plots/*.csv"]


def extract(rev: str, dest: Path) -> Path:
    done = subprocess.run(["git", "archive", rev], capture_output=True)
    if done.returncode != 0:
        sys.exit(f"git archive {rev}: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_all(tree: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    for stage in STAGES:
        for scenario in SCENARIOS:
            cmd = [sys.executable, "-m", "mlsec5g.cli", stage,
                   "--config", str(tree / "configs" / f"{scenario}.json"),
                   "--seed", "0", "--out", str(out / stage)]
            done = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{tree}: {stage} {scenario} exited {done.returncode}\n{done.stderr}")


def artifacts(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix()
            for stage in STAGES for scenario in SCENARIOS for pattern in ARTIFACTS
            for p in (root / stage / scenario).glob(pattern)}


def first_difference(a: list[str], b: list[str]) -> str:
    """The first differing line of a and b, from a little before its first
    differing character (report.json is one long line)."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            j = next((k for k, (u, v) in enumerate(zip(x, y)) if u != v), min(len(x), len(y)))
            lo = max(0, j - 60)
            return f"line {i + 1}, column {j + 1}:\n  - {x[lo:j + 100]}\n  + {y[lo:j + 100]}"
    i = min(len(a), len(b))
    return f"line {i + 1}: " + ("only in the base" if len(a) > i else "only in this tree")


def compare(base: Path, head: Path) -> list[str]:
    """The paths that differ, each printed with its first differing line."""
    differing = []
    for rel in sorted(artifacts(base) | artifacts(head)):
        a, b = base / rel, head / rel
        if not (a.exists() and b.exists()):
            print(f"{rel}: only in {'the base' if a.exists() else 'this tree'}")
        elif a.read_bytes() != b.read_bytes():
            print(f"{rel}: {first_difference(a.read_text().splitlines(), b.read_text().splitlines())}")
        else:
            continue
        differing.append(rel)
    for stage in STAGES:
        for scenario in SCENARIOS:
            rel = f"{stage}/{scenario}/run_meta.json"
            keys = [list(json.loads((root / rel).read_text())["timings_s"])
                    for root in (base, head)]
            if keys[0] != keys[1]:
                print(f"{rel}: timings_s keys\n  - {keys[0]}\n  + {keys[1]}")
                differing.append(rel)
    return differing


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    expected = {line.strip() for line in EXPECTED.read_text().splitlines() if line.strip()}
    with tempfile.TemporaryDirectory(prefix="parent-diff-") as tmp:
        tmp = Path(tmp)
        base = extract(argv[0], tmp / "tree")
        run_all(base, tmp / "base")
        run_all(HERE, tmp / "head")
        differing = set(compare(tmp / "base", tmp / "head"))
    if differing != expected:
        for rel in sorted(expected - differing):
            print(f"{rel}: listed in {EXPECTED.name} but identical")
        print(f"{len(differing)} files differ from {argv[0]}; "
              f"{EXPECTED.name} lists {len(expected)}, and the sets are not equal")
        return 1
    print(f"{len(differing)} files differ from {argv[0]}, as {EXPECTED.name} lists")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
