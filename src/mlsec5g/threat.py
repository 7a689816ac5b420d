"""Core threat-model contracts: feature scopes, tradeoffs, degradation.

The attacker modeled here is deliberately weak. She controls only her own
equipment, knows a subset of the features the defender computes, consciously
influences a further subset of those, cannot observe model outputs, and has no
feedback channel to search with. Everything downstream (perturbation engine,
harnesses, case studies) speaks in terms of the four nested feature sets held
by FeatureScope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import _orientation


def _as_tuple(names) -> tuple[str, ...]:
    return tuple(str(n) for n in names)


@dataclass(frozen=True)
class FeatureScope:
    """The four nested feature sets of one attack scenario.

    full_set: every feature the defender's model consumes.
    known: the subset the attacker knows exists.
    conscious: the subset the attacker deliberately manipulates.
    affected: the subset actually altered once side effects resolve.

    Valid scopes satisfy known <= full_set, conscious <= known,
    affected <= full_set and conscious <= affected. Violations are data,
    not exceptions: validate_scope reports them as a list.
    """

    full_set: tuple[str, ...]
    known: tuple[str, ...]
    conscious: tuple[str, ...]
    affected: tuple[str, ...]

    def __init__(self, full_set, known, conscious, affected):
        object.__setattr__(self, "full_set", _as_tuple(full_set))
        object.__setattr__(self, "known", _as_tuple(known))
        object.__setattr__(self, "conscious", _as_tuple(conscious))
        object.__setattr__(self, "affected", _as_tuple(affected))


def validate_scope(scope: FeatureScope) -> list[str]:
    """Check the nesting relations; return one message per violated relation.

    An empty list means the scope is well formed. Duplicate names inside a
    set are also reported: they usually indicate a config typo.
    """
    violations: list[str] = []
    full = set(scope.full_set)
    known = set(scope.known)
    conscious = set(scope.conscious)
    affected = set(scope.affected)

    for attr in ("full_set", "known", "conscious", "affected"):
        names = getattr(scope, attr)
        if len(names) != len(set(names)):
            violations.append(f"duplicate feature names in {attr}")

    if not known <= full:
        extra = sorted(known - full)
        violations.append(f"known not a subset of full_set: {extra}")
    if not conscious <= known:
        extra = sorted(conscious - known)
        violations.append(f"conscious not a subset of known: {extra}")
    if not affected <= full:
        extra = sorted(affected - full)
        violations.append(f"affected not a subset of full_set: {extra}")
    if not conscious <= affected:
        extra = sorted(conscious - affected)
        violations.append(f"conscious not a subset of affected: {extra}")
    return violations


@dataclass(frozen=True)
class TradeoffReport:
    """Cost of a defense on clean data: baseline over hardened performance.

    A ratio of 1 means the defense is free; above 1 the hardened model gave
    up clean performance (for higher-better metrics). The ratio is reported
    as-is for error metrics too; orientation lives with the metric name.
    A hardened performance of 0 leaves the ratio undefined: `tradeoff` is
    None and `reason` says why.
    """

    metric_name: str
    p_base: float
    p_hardened: float
    tradeoff: float | None
    reason: str | None = None


def tradeoff(p_base: float, p_hardened: float, metric_name: str = "Acc") -> TradeoffReport:
    """Build a TradeoffReport; a hardened performance of 0 gives a null ratio
    with its reason, a negative one is an error."""
    _orientation(metric_name)  # an unknown name is an error
    p_base = float(p_base)
    p_hardened = float(p_hardened)
    if p_hardened < 0.0:
        raise ValueError(f"hardened performance must be non-negative, got {p_hardened}")
    if p_hardened == 0.0:
        return TradeoffReport(metric_name, p_base, p_hardened, None,
                              f"hardened {metric_name} is 0 on clean data, so "
                              "base over hardened is undefined")
    return TradeoffReport(metric_name, p_base, p_hardened, p_base / p_hardened)


def degradation(metric_clean: float, metric_adversarial: float, orientation: str) -> float:
    """Signed damage to the defender; positive always means the attack hurt.

    higher_better metrics degrade when they drop (clean - adversarial);
    lower_better metrics degrade when they rise (adversarial - clean).
    """
    if orientation == "higher_better":
        return float(metric_clean) - float(metric_adversarial)
    if orientation == "lower_better":
        return float(metric_adversarial) - float(metric_clean)
    raise ValueError(f"unknown orientation {orientation!r}")
