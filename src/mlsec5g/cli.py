"""Command-line front end: stage selection, config resolution, artifact emission.

The subcommand is the stage: generate, train, attack or all (config.STAGES).
Every other setting resolves as flag > environment > config file.
Environment variables mirror the flags: MLSEC5G_CONFIG, MLSEC5G_SCENARIO,
MLSEC5G_SEED, MLSEC5G_OUT.

Exit codes: 0 success, 2 configuration error (every violation listed on
stderr), 3 runtime failure. Config errors and --help return before numpy
loads: the stage modules load only once a config has resolved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import STAGES, ConfigError, build_config

ENV_PREFIX = "MLSEC5G_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_STAGE_HELP = {
    "generate": "produce the scenario dataset and stop",
    "train": "run through baseline model training",
    "attack": "run through the attack sweeps",
    "all": "run the full pipeline, defenses included",
}


def _env(name: str) -> str | None:
    value = os.environ.get(ENV_PREFIX + name)
    return value if value else None


def _env_int(name: str, violations: list[str]) -> int | None:
    value = _env(name)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        violations.append(f"{ENV_PREFIX}{name}: must be an integer, got {value!r}")
        return None


def _load_raw(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    return raw


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="JSON config file (documented schema; unknown keys fail)")
    shared.add_argument("--scenario", metavar="NAME",
                        help="case study to run: cs1..cs6")
    shared.add_argument("--seed", type=int, metavar="N",
                        help="master seed; every stage derives its own stream from it")
    shared.add_argument("--out", metavar="DIR",
                        help="artifact root directory")

    parser = argparse.ArgumentParser(
        prog="mlsec5g",
        description="Evaluate ML models for 5G network tasks against "
                    "constrained raw-data perturbation attacks.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(STAGES))
    for stage in STAGES:
        sub.add_parser(stage, parents=[shared], help=_STAGE_HELP[stage])
    return parser


def resolve(args: argparse.Namespace):
    """Merge flags, environment and config file into a frozen config; the
    subcommand is the stage. The environment's and the config's violations
    are raised together."""
    violations: list[str] = []
    config_path = args.config or _env("CONFIG")
    scenario = args.scenario or _env("SCENARIO")
    seed = args.seed if args.seed is not None else _env_int("SEED", violations)
    out_dir = args.out or _env("OUT")
    try:
        raw = _load_raw(config_path) if config_path else {}
        config = build_config(raw, {"scenario": scenario, "seed": seed, "out_dir": out_dir})
    except ConfigError as exc:
        violations += exc.violations
    if violations:
        raise ConfigError(violations)
    return config, args.command


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, stage = resolve(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    from .report import write_report
    from .scenarios.runner import run_case_study
    try:
        report = run_case_study(config.scenario, config=config, stage=stage)
        out_dir = os.path.join(config.out_dir, config.scenario)
        paths = write_report(report, out_dir)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"{config.scenario} stage={stage} seed={config.seed} "
          f"fingerprint={report.config_fingerprint}")
    print(f"artifacts: {out_dir} ({len(paths)} files)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
