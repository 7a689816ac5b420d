"""Constrained raw-data perturbation engine.

Perturbations here retroactively simulate, on recorded data, what an attacker
could have done live. Three things make that simulation honest:

* capability binding: a perturbation may only touch fields the attacker
  consciously influences (plus their declared side effects). This holds by
  construction: the runner makes each spec's targets its scope's conscious
  set and refuses an invalid scope;
* integrity: values that depend on a perturbed field are recomputed rather
  than left stale, through an explicit dependency graph that maps each source
  field to the names of the fields derived from it;
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
class DependencyGraph:
    """Directed edges from perturbed fields to the names of the fields they
    drag along, e.g. {"pktRx": ("pktRxAiat",)}.

    A derived field is recomputed by inverse scaling: new = old * old_source
    / new_source. It models quantities averaged over a fixed window, e.g. a
    mean inter-arrival time when the packet count changes. Zero old or new
    source leaves the value unchanged.

    Must be acyclic, and each derived field may appear under exactly one
    source: two competing recomputes of the same field would make the result
    order-dependent.
    """

    edges: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for src, derived in dict(self.edges).items():
            if not isinstance(src, str):
                raise ValueError(f"source field must be a field name, got {src!r}")
            if isinstance(derived, str):  # would read as one name per character
                raise ValueError(f"{src!r} must map to a sequence of field names, got {derived!r}")
        normalized = {k: tuple(v) for k, v in dict(self.edges).items()}
        object.__setattr__(self, "edges", normalized)
        seen: dict[str, str] = {}
        for src, derived in normalized.items():
            for name in derived:
                if not isinstance(name, str):
                    raise ValueError(f"derived field under {src!r} must be a field name, "
                                     f"got {name!r}")
                if name in seen:
                    raise ValueError(
                        f"derived field {name!r} has rules under both {seen[name]!r} and {src!r}")
                seen[name] = src
        state: dict[str, int] = {}

        def visit(node: str, trail: tuple[str, ...]) -> None:
            if state.get(node) == 1:
                raise ValueError(f"dependency cycle through {' -> '.join(trail + (node,))}")
            if state.get(node) == 2:
                return
            state[node] = 1
            for nxt in normalized.get(node, ()):
                visit(nxt, trail + (node,))
            state[node] = 2

        for src in normalized:
            visit(src, ())

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
                old_src, new_src = old_record[src], new_record[src]
                for name in self.edges.get(src, ()):
                    if old_src == 0 or new_src == 0:
                        value = old_record[name]
                    else:
                        value = new_record[name] * old_src / new_src
                    if value != new_record[name]:
                        new_record[name] = value
                        touched.add(name)
                        next_frontier.add(name)
            frontier = next_frontier
        return touched


@dataclass(frozen=True)
class PerturbationSpec:
    """Declaration of one raw-data perturbation.

    intensity_levels is the sweep axis; its meaning depends on the mode:

    additive_std:   multiplier of the per-field population std
    replace_random: index of an independent seeded draw (magnitude-free)

    replace_random copies one donor row into each record: donor_pool holds
    the target field's donor values, and linked maps each companion field to
    its donor column, aligned with donor_pool.
    An empty intensity_levels list is permitted at construction so defense
    code can express a degenerate no-op schedule, but apply_rsp refuses it.
    """

    name: str
    target_fields: tuple[str, ...]
    mode: str
    intensity_levels: tuple[float, ...]
    constraints: tuple[ConstraintRule, ...] = ()
    derived: DependencyGraph = field(default_factory=DependencyGraph)
    donor_pool: Sequence = ()
    linked: Mapping[str, Sequence] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "target_fields", tuple(str(f) for f in self.target_fields))
        object.__setattr__(self, "intensity_levels", tuple(float(v) for v in self.intensity_levels))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "linked", dict(self.linked))
        if self.mode not in MODES:
            raise ValueError(f"unknown perturbation mode {self.mode!r}; expected one of {MODES}")
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
                                 "companions ride in linked")
            if len(self.donor_pool) == 0:
                raise ValueError("replace_random needs a non-empty donor_pool")
            for fname, values in self.linked.items():
                if len(values) != len(self.donor_pool):
                    raise ValueError(f"linked column {fname!r} not aligned with donor_pool")

    def bind(self, record_fields: Sequence[str]) -> None:
        """Check the spec against an actual record schema before any work."""
        fields = set(record_fields)
        missing = [f for f in self.target_fields if f not in fields]
        if missing:
            raise ValueError(f"perturbation {self.name!r} targets unknown fields {missing}")
        missing = sorted(set(self.derived.edges).union(*self.derived.edges.values()) - fields)
        if missing:
            raise ValueError(f"perturbation {self.name!r} dependency graph names unknown fields {missing}")
        if self.mode == "replace_random":
            unknown = sorted(set(self.linked) - fields)
            if unknown:
                raise ValueError(f"perturbation {self.name!r} links unknown fields {unknown}")


@dataclass(frozen=True)
class ProvenanceEntry:
    record_index: int
    changes: tuple[tuple[str, object, object], ...]  # (field, old, new)
    verdict: str  # "ok" | "clamped" | "rejected"


@dataclass
class ProvenanceLog:
    """One entry per input record; rejected records are flagged, not lost."""

    spec_name: str
    level_index: int
    level_value: float
    entries: list[ProvenanceEntry] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return sum(1 for e in self.entries if e.verdict == "rejected")

    @property
    def n_clamped(self) -> int:
        return sum(1 for e in self.entries if e.verdict == "clamped")

    def counts(self) -> dict[str, int]:
        return {
            "input": len(self.entries),
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


def _enforce(record: dict, constraints: Sequence[ConstraintRule]) -> str:
    """The record's verdict against constraints, in one pass: "rejected" if
    it violates a reject rule (it could not exist, whatever else is fixable),
    else "clamped" once each violated clamp rule has pulled its field back in
    place, else "ok". A rule on a field the record lacks is ignored."""
    clamps = []
    for rule in constraints:
        if rule.field in record and rule.violated(record[rule.field]):
            if rule.action == "reject":
                return "rejected"
            clamps.append(rule)
    for rule in clamps:
        record[rule.field] = rule.clamped(record[rule.field])
    return "clamped" if clamps else "ok"


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
    log = ProvenanceLog(spec.name, level_index, level_value)

    # mode-wide precomputation
    deltas: dict[str, float] = {}
    if spec.mode == "additive_std":
        for fname in spec.target_fields:
            deltas[fname] = level_value * population_std(records, fname)
    columns = [(spec.target_fields[0], spec.donor_pool), *spec.linked.items()]

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
            j = int(seeded(derive_stream(seed, level_index), i).integers(0, len(spec.donor_pool)))
            for fname, pool in columns:
                if new[fname] != pool[j]:
                    new[fname] = pool[j]
                    changed.add(fname)

        if changed:
            spec.derived.propagate(original, new, changed)
        verdict = _enforce(new, spec.constraints)
        # identity check first so untouched NaN-valued fields never show as diffs
        diff = tuple((f, original[f], new[f]) for f in sorted(new)
                     if new[f] is not original[f] and new[f] != original[f])
        log.entries.append(ProvenanceEntry(i, diff, verdict))
        if verdict != "rejected":
            output.append(new)
    return output, log
