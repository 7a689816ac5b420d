"""Stage prefixes: each stage's report is a prefix of the next stage's.

Any stage can be reproduced in isolation, so `train` must report exactly
what `all` reports about data and the baseline, `attack` exactly its curves,
and so on. Dict sections keep every value they had; list sections (curves,
defenses, provenance, plot rows) only grow at the end.
"""

import pytest

from mlsec5g.config import build_config
from mlsec5g.report import report_to_dict
from mlsec5g.repro import canonical_json
from mlsec5g.scenarios.runner import run_case_study

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


@pytest.mark.parametrize("scenario", sorted(REDUCED))
def test_each_stage_is_a_prefix_of_the_next(scenario):
    config = build_config({"scenario": scenario, "seed": 3, **REDUCED[scenario]})
    views = []
    for stage in STAGE_ORDER:
        report = run_case_study(scenario, config=config, stage=stage)
        view = report_to_dict(report)
        assert view.pop("stage") == stage
        view["plot_series"] = [list(row) for row in report.plot_series]
        views.append(view)
    for (s0, v0), (s1, v1) in zip(zip(STAGE_ORDER, views), zip(STAGE_ORDER[1:], views[1:])):
        assert_prefix(v0, v1, f"{scenario} {s0} -> {s1}")
    # the full run adds something at every stage boundary
    assert views[-1]["baseline"] and views[-1]["curves"] and views[-1]["plot_series"]
