"""Span tracer for the benchmark's traced run.

The program is traced from outside: `Tracer.install` replaces each layer's
public functions and methods with wrappers, and `Tracer.uninstall` puts the
originals back. A function is replaced under every name that any `mlsec5g`
module binds it to, so `from ..models.forest import train_forest` in the
scenario runner is traced as well as `mlsec5g.models.forest.train_forest`.

Spans stay in memory as [name, start, end, parent]. Counters are taken at the
same boundaries. A span whose parent has the same name (classification
`predict` calling `predict_proba`) adds time but no call and no counts, so a
call is counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


# A counter takes the call's arguments by parameter name and its result.

def _forest_fit(a, result):
    return {"forest.fit_rows": len(a["X"]),
            "forest.nodes_grown": sum(int(t.feature.size) for t in result.trees)}


def _forest_predict(a, result):
    return {"forest.predict_rows": len(a["X"])}


def _aggregate(a, result):
    return {"flows.packets_in": len(a["packets"]), "flows.flows_out": len(result)}


def _extract(a, result):
    return {"flows.extract_rows": len(a["flows"])}


def _apply_rsp(a, result):
    log = result[1]
    return {"perturb.records_in": len(a["records"]),
            "perturb.records_clamped": log.n_clamped,
            "perturb.records_rejected": log.n_rejected}


def _epoch_rows(a, result):
    # loss_grad runs once per batch, so its rows sum to epochs x training rows
    return {"network.epoch_rows": len(a["X"])}


def _bytes_written(a, result):
    return {"report.bytes_written": sum(
        os.path.getsize(path) for key, path in result.items() if key != "run_meta")}


# every counter the functions above can report; absent ones read as 0
COUNTERS = ("forest.fit_rows", "forest.nodes_grown", "forest.predict_rows",
            "flows.packets_in", "flows.flows_out", "flows.extract_rows",
            "perturb.records_in", "perturb.records_clamped", "perturb.records_rejected",
            "network.epoch_rows", "report.bytes_written")


# (module, attribute or Class.method, span name or None for count only, counter)
LAYERS = (
    ("mlsec5g.models.forest", "train_forest", "forest.fit", _forest_fit),
    ("mlsec5g.models.forest", "ForestModel.predict", "forest.predict", _forest_predict),
    ("mlsec5g.models.forest", "ForestModel.predict_proba", "forest.predict", _forest_predict),
    ("mlsec5g.models.recurrent", "init_online", "recurrent.warmup", None),
    ("mlsec5g.models.recurrent", "OnlineRecurrentModel.step", "recurrent.step", None),
    ("mlsec5g.models.recurrent", "OnlineRecurrentModel.predict_next",
     "recurrent.predict_next", None),
    ("mlsec5g.models.network", "train_network", "network.fit", None),
    ("mlsec5g.models.network", "FeedforwardModel.loss_grad", None, _epoch_rows),
    ("mlsec5g.models.network", "FeedforwardModel.predict", "network.predict", None),
    ("mlsec5g.models.network", "FeedforwardModel.predict_proba", "network.predict", None),
    ("mlsec5g.flows", "aggregate_flows", "flows.aggregate", _aggregate),
    ("mlsec5g.flows", "extract_feature_matrix", "flows.extract", _extract),
    ("mlsec5g.flows", "pad_payloads", "flows.pad", None),
    ("mlsec5g.flows", "poison_training_set", "flows.poison", None),
    ("mlsec5g.perturb", "apply_rsp", "perturb.apply_rsp", _apply_rsp),
    ("mlsec5g.scenarios.generators", "generate_scenario_data", "generators.generate", None),
    ("mlsec5g.scenarios.generators", "generate_cqi_series", "generators.generate", None),
    ("mlsec5g.attacks", "run_inference_attack", "attacks.inference", None),
    ("mlsec5g.attacks", "run_training_attack", "attacks.training", None),
    ("mlsec5g.attacks", "run_online_attack", "attacks.online", None),
    ("mlsec5g.defenses", "adversarial_training", "defenses.adversarial_training", None),
    ("mlsec5g.defenses", "feature_removal", "defenses.feature_removal", None),
    ("mlsec5g.defenses", "evaluate_defense", "defenses.evaluate", None),
    ("mlsec5g.report", "write_report", "report.write", _bytes_written),
    ("mlsec5g.config", "build_config", "config.build", None),
)


class Tracer:
    """In-memory spans and counters for one traced workload run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _enter(self, name: str) -> list:
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _exit(self, record: list) -> None:
        record[2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a whole workload."""
        record = self._enter(name)
        try:
            yield record
        finally:
            self._exit(record)

    def _wrap(self, fn, name, counter):
        spans, counts = self.spans, self.counts
        signature = inspect.signature(fn)

        def count(args, kwargs, result):
            counts.update(counter(signature.bind(*args, **kwargs).arguments, result))

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._enter(name)
            parent = record[3]
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(record)
            if parent < 0 or spans[parent][0] != name:
                counts[f"{name}_calls"] += 1
                if counter is not None:
                    count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "mlsec5g" and not mod_name.startswith("mlsec5g."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time its child spans cover."""
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

