"""Feature scopes, tradeoff and degradation math."""

import pytest

from mlsec5g.threat import FeatureScope, degradation, tradeoff, validate_scope


def scope(full=("a", "b", "c", "d"), known=("a", "b", "c"),
          conscious=("a",), affected=("a", "b")):
    return FeatureScope(full, known, conscious, affected)


class TestScopeValidation:
    def test_well_formed_scope_has_no_violations(self):
        assert validate_scope(scope()) == []

    def test_equal_sets_are_valid(self):
        s = FeatureScope("ab", "ab", "ab", "ab")
        assert validate_scope(s) == []

    def test_known_outside_full_is_reported(self):
        s = scope(known=("a", "b", "z"))
        msgs = validate_scope(s)
        assert any("known not a subset of full_set" in m and "z" in m for m in msgs)

    def test_conscious_outside_known_is_reported(self):
        s = scope(conscious=("c", "d"), known=("a", "c"), affected=("c", "d"))
        msgs = validate_scope(s)
        assert any("conscious not a subset of known" in m for m in msgs)

    def test_conscious_outside_affected_is_reported(self):
        s = scope(conscious=("a", "b"), affected=("a",))
        assert any("conscious not a subset of affected" in m
                   for m in validate_scope(s))

    def test_affected_outside_full_is_reported(self):
        s = scope(affected=("a", "q"))
        assert any("affected not a subset of full_set" in m
                   for m in validate_scope(s))

    def test_every_violation_is_listed_at_once(self):
        s = FeatureScope(("a",), ("x",), ("y",), ("z",))
        msgs = validate_scope(s)
        # known⊄full, conscious⊄known, affected⊄full, conscious⊄affected
        assert len(msgs) == 4

    def test_duplicate_names_are_flagged(self):
        s = scope(full=("a", "b", "c", "d", "a"))
        assert any("duplicate" in m for m in validate_scope(s))

    def test_scope_normalizes_names_to_strings(self):
        s = FeatureScope([1, 2], [1], [1], [1])
        assert s.full_set == ("1", "2")
        assert validate_scope(s) == []


class TestTradeoff:
    def test_identical_performance_is_unit_tradeoff(self):
        assert tradeoff(0.9, 0.9).tradeoff == 1.0

    def test_tradeoff_is_base_over_hardened(self):
        t = tradeoff(0.9, 0.6, metric_name="Acc")
        assert t.tradeoff == pytest.approx(1.5)
        assert t.p_base == 0.9 and t.p_hardened == 0.6

    def test_hardened_gain_gives_tradeoff_below_one(self):
        assert tradeoff(0.8, 0.9).tradeoff < 1.0

    def test_negative_hardened_performance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            tradeoff(0.9, -0.2)

    def test_zero_hardened_performance_is_an_undefined_tradeoff(self):
        for p_base in (0.9, 0.0):
            t = tradeoff(p_base, 0.0, metric_name="F1")
            assert t.tradeoff is None and (t.p_base, t.p_hardened) == (p_base, 0.0)
            assert t.reason == "hardened F1 is 0 on clean data, so base over hardened is undefined"
        assert tradeoff(0.9, 0.6).reason is None

    def test_unknown_metric_name_rejected(self):
        with pytest.raises(ValueError):
            tradeoff(0.9, 0.9, metric_name="AUC")


class TestDegradation:
    def test_higher_better_drop_is_positive(self):
        assert degradation(0.9, 0.7, "higher_better") == pytest.approx(0.2)

    def test_higher_better_gain_is_negative(self):
        assert degradation(0.7, 0.9, "higher_better") == pytest.approx(-0.2)

    def test_lower_better_rise_is_positive(self):
        assert degradation(0.2, 0.5, "lower_better") == pytest.approx(0.3)

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValueError):
            degradation(1.0, 1.0, "sideways")
