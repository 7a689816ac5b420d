"""Constrained raw-data perturbation engine.

Perturbations here retroactively simulate, on recorded data, what an attacker
could have done live. Three things make that simulation honest:

* capability binding: a perturbation may only touch fields the attacker
  consciously influences (plus their declared side effects). This holds by
  construction: the runner makes each spec's targets its scope's conscious
  set and refuses an invalid scope;
* integrity: values that depend on a perturbed field are recomputed through
  an explicit dependency graph rather than left stale;
* constraints: physical bounds are enforced, by clamping where the medium
  would clamp and by rejection where the record could not have existed.

Records are plain dicts (field name -> value). The engine never mutates its
input; rejected records are dropped from the output but always appear in the
provenance log, so record counts reconcile exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .repro import seeded

MODES = ("additive_std", "replace_random")


@dataclass(frozen=True)
class ConstraintRule:
    """Physical bound on one field.

    The bounds are a closed interval [lo, hi] (either side may be None).
    action is what happens on violation: "clamp" pulls the value back to the
    nearest bound, "reject" drops the record.
    """

    field: str
    lo: float | None = None
    hi: float | None = None
    action: str = "reject"

    def __post_init__(self):
        if self.action not in ("clamp", "reject"):
            raise ValueError(f"constraint action must be clamp or reject, got {self.action!r}")
        if self.lo is None and self.hi is None:
            raise ValueError(f"constraint on {self.field!r} has no bounds")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"constraint on {self.field!r} has lo > hi")

    def violated(self, value) -> bool:
        if self.lo is not None and value < self.lo:
            return True
        if self.hi is not None and value > self.hi:
            return True
        return False

    def clamped(self, value):
        if self.lo is not None and value < self.lo:
            return self.lo
        if self.hi is not None and value > self.hi:
            return self.hi
        return value


@dataclass(frozen=True)
class DerivedField:
    """A field recomputed when its source changes.

    The one rule is inverse_scale: new = old * old_source / new_source. It
    models quantities averaged over a fixed window, e.g. a mean inter-arrival
    time when the packet count changes. Zero old or new source leaves the
    value unchanged.
    """

    name: str
    rule: str = "inverse_scale"

    def __post_init__(self):
        if self.rule != "inverse_scale":
            raise ValueError(f"unknown derived-field rule {self.rule!r}")

    def recompute(self, old_record: Mapping, new_record: Mapping, source: str):
        old_src = old_record[source]
        new_src = new_record[source]
        if old_src == 0 or new_src == 0:
            return old_record[self.name]
        return new_record[self.name] * old_src / new_src


@dataclass(frozen=True)
class DependencyGraph:
    """Directed edges from perturbed fields to the fields they drag along.

    Must be acyclic, and each derived field may appear under exactly one
    source: two competing recompute rules for the same field would make the
    result order-dependent.
    """

    edges: Mapping[str, tuple[DerivedField, ...]] = field(default_factory=dict)

    def __post_init__(self):
        normalized = {str(k): tuple(v) for k, v in dict(self.edges).items()}
        object.__setattr__(self, "edges", normalized)
        self.validate()

    def validate(self) -> None:
        seen: dict[str, str] = {}
        for src, derived in self.edges.items():
            for d in derived:
                if d.name in seen:
                    raise ValueError(
                        f"derived field {d.name!r} has rules under both {seen[d.name]!r} and {src!r}")
                seen[d.name] = src
        # cycle check over src -> derived edges
        adjacency = {src: [d.name for d in derived] for src, derived in self.edges.items()}
        state: dict[str, int] = {}

        def visit(node: str, trail: tuple[str, ...]) -> None:
            if state.get(node) == 1:
                raise ValueError(f"dependency cycle through {' -> '.join(trail + (node,))}")
            if state.get(node) == 2:
                return
            state[node] = 1
            for nxt in adjacency.get(node, ()):
                visit(nxt, trail + (node,))
            state[node] = 2

        for src in adjacency:
            if state.get(src) != 2:
                visit(src, ())

    def all_fields(self) -> set[str]:
        out = set(self.edges)
        for derived in self.edges.values():
            out.update(d.name for d in derived)
        return out

    def propagate(self, old_record: Mapping, new_record: dict, changed: set[str]) -> set[str]:
        """Recompute dependents of changed fields, in dependency order.

        Returns the names of derived fields that actually changed value.
        Chains are followed: if A changes B and B changes C, C is updated too.
        """
        touched: set[str] = set()
        frontier = set(changed)
        while frontier:
            next_frontier: set[str] = set()
            for src in sorted(frontier):
                for d in self.edges.get(src, ()):
                    value = d.recompute(old_record, new_record, src)
                    if value != new_record[d.name]:
                        new_record[d.name] = value
                        touched.add(d.name)
                        next_frontier.add(d.name)
            frontier = next_frontier
        return touched


@dataclass(frozen=True)
class PerturbationSpec:
    """Declaration of one raw-data perturbation.

    intensity_levels is the sweep axis; its meaning depends on the mode:

    additive_std:   multiplier of the per-field population std
    replace_random: index of an independent seeded draw (magnitude-free)

    params carries the replace_random extras, donor_pool and linked, and
    nothing else.
    An empty intensity_levels list is permitted at construction so defense
    code can express a degenerate no-op schedule, but apply_rsp refuses it.
    """

    name: str
    target_fields: tuple[str, ...]
    mode: str
    intensity_levels: tuple[float, ...]
    constraints: tuple[ConstraintRule, ...] = ()
    derived: DependencyGraph = field(default_factory=DependencyGraph)
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "target_fields", tuple(str(f) for f in self.target_fields))
        object.__setattr__(self, "intensity_levels", tuple(float(v) for v in self.intensity_levels))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "params", dict(self.params))
        if self.mode not in MODES:
            raise ValueError(f"unknown perturbation mode {self.mode!r}; expected one of {MODES}")
        unknown = sorted(set(self.params) - {"donor_pool", "linked"})
        if unknown:
            raise ValueError(f"unknown perturbation params {unknown}; "
                             "expected donor_pool and linked")
        if not self.target_fields:
            raise ValueError("perturbation needs at least one target field")
        if len(set(self.target_fields)) != len(self.target_fields):
            raise ValueError("duplicate target fields")
        levels = self.intensity_levels
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("intensity levels must be strictly increasing")
        if self.mode == "replace_random":
            if len(self.target_fields) != 1:
                raise ValueError("replace_random takes exactly one target field; "
                                 "companions ride in params['linked']")
            pool = self.params.get("donor_pool")
            if pool is None or len(pool) == 0:
                raise ValueError("replace_random needs a non-empty params['donor_pool']")
            linked = self.params.get("linked", {})
            for fname, values in dict(linked).items():
                if len(values) != len(pool):
                    raise ValueError(f"linked column {fname!r} not aligned with donor_pool")

    def bind(self, record_fields: Sequence[str]) -> None:
        """Check the spec against an actual record schema before any work."""
        fields = set(record_fields)
        missing = [f for f in self.target_fields if f not in fields]
        if missing:
            raise ValueError(f"perturbation {self.name!r} targets unknown fields {missing}")
        graph_fields = self.derived.all_fields()
        missing = sorted(f for f in graph_fields if f not in fields)
        if missing:
            raise ValueError(f"perturbation {self.name!r} dependency graph names unknown fields {missing}")
        if self.mode == "replace_random":
            linked = self.params.get("linked", {})
            unknown = sorted(set(linked) - fields)
            if unknown:
                raise ValueError(f"perturbation {self.name!r} links unknown fields {unknown}")


@dataclass(frozen=True)
class IntegrityVerdict:
    """Outcome of constraint checking for one record."""

    kind: str  # "ok" | "clamped" | "rejected"
    fields: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProvenanceEntry:
    record_index: int
    changes: tuple[tuple[str, object, object], ...]  # (field, old, new)
    level_value: float
    verdict: IntegrityVerdict


@dataclass
class ProvenanceLog:
    """One entry per perturbed record; rejected records are flagged, not lost."""

    spec_name: str
    level_index: int
    level_value: float
    n_input: int = 0
    entries: list[ProvenanceEntry] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return sum(1 for e in self.entries if e.verdict.kind == "rejected")

    @property
    def n_clamped(self) -> int:
        return sum(1 for e in self.entries if e.verdict.kind == "clamped")

    def counts(self) -> dict[str, int]:
        return {
            "input": self.n_input,
            "perturbed": len(self.entries),
            "clamped": self.n_clamped,
            "rejected": self.n_rejected,
        }


def population_std(records: Sequence[Mapping], field_name: str) -> float:
    """Population (ddof=0) std of one field across records."""
    try:
        values = np.asarray([r[field_name] for r in records], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {field_name!r} is not numeric: {exc}") from None
    if values.size == 0:
        raise ValueError("no records")
    return float(np.std(values))


def verify_integrity(record: Mapping, constraints: Sequence[ConstraintRule]) -> IntegrityVerdict:
    """Classify a record against constraints without modifying it.

    Rejection dominates clamping: if any reject-action rule is violated the
    record could not exist, regardless of what else is fixable.
    """
    clamp_fields: list[str] = []
    reject_fields: list[str] = []
    for rule in constraints:
        if rule.field not in record:
            continue
        if rule.violated(record[rule.field]):
            if rule.action == "clamp":
                clamp_fields.append(rule.field)
            else:
                reject_fields.append(rule.field)
    if reject_fields:
        return IntegrityVerdict("rejected", tuple(reject_fields))
    if clamp_fields:
        return IntegrityVerdict("clamped", tuple(clamp_fields))
    return IntegrityVerdict("ok")


def _enforce(record: dict, constraints: Sequence[ConstraintRule]) -> IntegrityVerdict:
    """Apply clamp-action rules in place; report the overall verdict."""
    verdict = verify_integrity(record, constraints)
    if verdict.kind == "clamped":
        for rule in constraints:
            if rule.action == "clamp" and rule.field in record and rule.violated(record[rule.field]):
                record[rule.field] = rule.clamped(record[rule.field])
    return verdict


def derive_stream(seed: int, level_index: int) -> int:
    """Fold the level index into the seed so each level draws independently."""
    return int(seed) * 1000003 + int(level_index) + 1


def apply_rsp(records: Sequence[Mapping], spec: PerturbationSpec, level_index: int,
              seed: int) -> tuple[list[dict], ProvenanceLog]:
    """Apply one perturbation level to every record.

    Deterministic for equal (records, spec, level_index, seed).
    Only target fields and their derived closure ever differ from the input;
    records violating a reject constraint are excluded from the output but
    logged, so len(records) == len(output) + rejected. A perturbation whose
    effective magnitude is zero returns the input bit-identically.
    """
    records = list(records)
    if not spec.intensity_levels:
        raise ValueError(f"perturbation {spec.name!r} has an empty intensity schedule")
    if not 0 <= level_index < len(spec.intensity_levels):
        raise ValueError(
            f"level_index {level_index} out of range for {len(spec.intensity_levels)} levels")
    if records:
        spec.bind(records[0].keys())
    level_value = spec.intensity_levels[level_index]
    log = ProvenanceLog(spec.name, level_index, level_value, n_input=len(records))

    # mode-wide precomputation
    deltas: dict[str, float] = {}
    if spec.mode == "additive_std":
        for fname in spec.target_fields:
            deltas[fname] = level_value * population_std(records, fname)
    donor_pool = spec.params.get("donor_pool", ())
    linked = dict(spec.params.get("linked", {}))

    output: list[dict] = []
    for i, original in enumerate(records):
        new = dict(original)
        changed: set[str] = set()
        if spec.mode == "additive_std":
            for fname in spec.target_fields:
                d = deltas[fname]
                if d != 0.0:
                    new[fname] = original[fname] + d
                    changed.add(fname)
        else:  # replace_random
            # per-record stream so that any partitioning of the input agrees
            j = int(seeded(derive_stream(seed, level_index), i).integers(0, len(donor_pool)))
            for fname, pool in [(spec.target_fields[0], donor_pool)] + \
                    [(lf, lv) for lf, lv in linked.items()]:
                if new[fname] != pool[j]:
                    new[fname] = pool[j]
                    changed.add(fname)

        if changed:
            spec.derived.propagate(original, new, changed)
        verdict = _enforce(new, spec.constraints)
        # identity check first so untouched NaN-valued fields never show as diffs
        diff = tuple((f, original[f], new[f]) for f in sorted(new)
                     if new[f] is not original[f] and new[f] != original[f])
        log.entries.append(ProvenanceEntry(i, diff, level_value, verdict))
        if verdict.kind != "rejected":
            output.append(new)
    return output, log
