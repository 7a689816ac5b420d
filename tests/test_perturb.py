"""Perturbation engine: constraints, dependency propagation, determinism."""

import numpy as np
import pytest

from mlsec5g.perturb import (ConstraintRule, DependencyGraph, PerturbationSpec, apply_rsp,
                             population_std)
from views import provenance_csv_text, provenance_rows


def records_fixture(n=20, seed=3):
    rng = np.random.default_rng(seed)
    return [{"pktRx": float(rng.integers(1, 50)),
             "pktRxAiat": float(rng.uniform(0.5, 4.0)),
             "RSRP": float(rng.uniform(-120, -70))}
            for _ in range(n)]


class TestConstraintRule:
    def test_interval_violation_and_clamp(self):
        r = ConstraintRule("x", lo=0.0, hi=10.0, action="clamp")
        assert r.violated(-1.0) and r.clamped(-1.0) == 0.0
        assert r.violated(11.0) and r.clamped(11.0) == 10.0
        assert not r.violated(5.0)

    def test_boundless_rule_rejected(self):
        with pytest.raises(ValueError):
            ConstraintRule("x")

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            ConstraintRule("x", lo=5.0, hi=1.0)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ConstraintRule("x", lo=0.0, action="warn")


def verdict(record, rules) -> str:
    """The verdict apply_rsp logs for one record put through rules, at a
    perturbation that changes nothing."""
    spec = PerturbationSpec("s", (next(iter(record)),), "additive_std", (0.0,),
                            constraints=rules)
    (entry,) = apply_rsp([record], spec, 0, seed=0)[1].entries
    return entry.verdict


class TestVerifyIntegrity:
    def test_reject_dominates_clamp(self):
        rules = (ConstraintRule("a", lo=0.0, action="clamp"),
                 ConstraintRule("b", lo=0.0, action="reject"))
        assert verdict({"a": -1.0, "b": -1.0}, rules) == "rejected"

    def test_clamp_only(self):
        rules = (ConstraintRule("a", hi=1.0, action="clamp"),)
        assert verdict({"a": 2.0}, rules) == "clamped"

    def test_clean_record_is_ok(self):
        rules = (ConstraintRule("a", lo=0.0),)
        assert verdict({"a": 0.5}, rules) == "ok"

    def test_rules_for_absent_fields_are_ignored(self):
        rules = (ConstraintRule("zz", lo=0.0),)
        assert verdict({"a": -5.0}, rules) == "ok"


class TestDependencyGraph:
    def test_inverse_scale_recomputes_mean_interarrival(self):
        g = DependencyGraph({"pktRx": ("pktRxAiat",)})
        old = {"pktRx": 10.0, "pktRxAiat": 2.0}
        new = {"pktRx": 20.0, "pktRxAiat": 2.0}
        g.propagate(old, new, {"pktRx"})
        assert new["pktRxAiat"] == pytest.approx(1.0)

    def test_inverse_scale_keeps_value_on_zero_source(self):
        g = DependencyGraph({"n": ("aiat",)})
        old = {"n": 0.0, "aiat": 2.0}
        new = {"n": 5.0, "aiat": 2.0}
        assert g.propagate(old, new, {"n"}) == set()
        assert new["aiat"] == 2.0

    def test_chain_propagation(self):
        g = DependencyGraph({"a": ("b",), "b": ("c",)})
        new = {"a": 4.0, "b": 4.0, "c": 8.0}
        touched = g.propagate({"a": 2.0, "b": 4.0, "c": 8.0}, new, {"a"})
        # b scales by 2/4, then c by b's old 4 over its new 2
        assert new == {"a": 4.0, "b": 2.0, "c": 16.0}
        assert touched == {"b", "c"}

    def test_cycle_is_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            DependencyGraph({"a": ("b",), "b": ("a",)})

    def test_two_rules_for_one_field_rejected(self):
        with pytest.raises(ValueError, match="rules under both"):
            DependencyGraph({"a": ("c",), "b": ("c",)})

    @pytest.mark.parametrize("derived", ["pktRxAiat", "ab"])
    def test_a_bare_string_is_not_read_as_its_characters(self, derived):
        with pytest.raises(ValueError, match=f"'pktRx' must map to .*, got '{derived}'"):
            DependencyGraph({"pktRx": derived})

    @pytest.mark.parametrize("source", [1, None, ("pktRx",)], ids=["int", "None", "tuple"])
    def test_a_source_that_is_not_a_name_is_refused(self, source):
        # not renamed to its str(): a graph reads only the keys it was given
        with pytest.raises(ValueError, match=r"source field must be a field name, got "):
            DependencyGraph({source: ("a",)})


class TestSpecValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            PerturbationSpec("s", ("x",), "multiply", (1.0,))

    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            PerturbationSpec("s", ("x",), "additive_std", (1.0, 1.0))

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            PerturbationSpec("s", ("x", "x"), "additive_std", (1.0,))

    def test_replace_random_needs_donors(self):
        with pytest.raises(ValueError, match="donor_pool"):
            PerturbationSpec("s", ("x",), "replace_random", (1.0,))

    def test_params_other_than_donors_and_links_are_refused(self):
        with pytest.raises(TypeError, match="count"):
            PerturbationSpec("s", ("x",), "replace_random", (1.0,), donor_pool=[1.0], count=3)

    def test_removed_selectors_are_refused(self):
        with pytest.raises(TypeError, match="fraction"):
            apply_rsp([{"x": 1.0}], PerturbationSpec("s", ("x",), "additive_std", (1.0,)),
                      0, seed=0, fraction=0.5)
        with pytest.raises(TypeError, match="domain"):
            ConstraintRule("proto", domain={"TCP"})
        with pytest.raises(ValueError, match="must be a field name"):
            DependencyGraph({"x": (lambda old, new, src: new[src] * 2,)})

    def test_replace_random_linked_must_align(self):
        with pytest.raises(ValueError, match="not aligned"):
            PerturbationSpec("s", ("x",), "replace_random", (1.0,),
                             donor_pool=[1, 2], linked={"y": [1]})

    def test_bind_rejects_unknown_targets(self):
        spec = PerturbationSpec("s", ("zz",), "additive_std", (1.0,))
        with pytest.raises(ValueError, match="unknown fields"):
            spec.bind(("a", "b"))

    def test_bind_rejects_graph_fields_missing_from_schema(self):
        spec = PerturbationSpec("s", ("a",), "additive_std", (1.0,),
                                derived=DependencyGraph({"a": ("gone",)}))
        with pytest.raises(ValueError, match="dependency graph"):
            spec.bind(("a", "b"))


class TestSchedule:
    def test_population_std_is_ddof_zero(self):
        recs = [{"v": 1.0}, {"v": 2.0}, {"v": 3.0}, {"v": 6.0}]
        expected = float(np.std([1.0, 2.0, 3.0, 6.0]))
        assert population_std(recs, "v") == expected

    def test_population_std_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="not numeric"):
            population_std([{"v": "low"}], "v")


class TestApplyRsp:
    def test_additive_shift_is_exact(self):
        recs = records_fixture()
        spec = PerturbationSpec("shift", ("RSRP",), "additive_std", (0.5, 2.0))
        out, log = apply_rsp(recs, spec, 1, seed=9)
        delta = 2.0 * population_std(recs, "RSRP")
        for before, after in zip(recs, out):
            assert after["RSRP"] == before["RSRP"] + delta
            assert after["pktRx"] == before["pktRx"]
        assert log.counts() == {"input": 20, "perturbed": 20,
                                "clamped": 0, "rejected": 0}

    def test_input_records_are_never_mutated(self):
        recs = records_fixture()
        snapshot = [dict(r) for r in recs]
        spec = PerturbationSpec("shift", ("RSRP",), "additive_std", (5.0,))
        apply_rsp(recs, spec, 0, seed=9)
        assert recs == snapshot

    def test_clamp_constraint_pulls_back_and_is_counted(self):
        recs = [{"x": 0.5}, {"x": 9.0}]
        spec = PerturbationSpec("s", ("x",), "additive_std", (1.0,),
                                constraints=(ConstraintRule("x", hi=10.0, action="clamp"),))
        out, log = apply_rsp(recs, spec, 0, seed=0)
        assert all(r["x"] <= 10.0 for r in out)
        assert log.n_clamped == 1
        assert len(out) == 2

    def test_reject_constraint_drops_but_reconciles(self):
        recs = [{"x": -0.5}, {"x": 5.0}]
        # a negative donor value forces every record below zero
        spec = PerturbationSpec("s", ("x",), "replace_random", (1.0, 2.0),
                                constraints=(ConstraintRule("x", lo=0.0),),
                                donor_pool=[-1.0])
        out, log = apply_rsp(recs, spec, 0, seed=0)
        assert len(out) + log.n_rejected == log.counts()["input"]
        assert log.n_rejected == 2

    def test_derived_field_follows_its_source(self):
        recs = records_fixture()
        graph = DependencyGraph({"pktRx": ("pktRxAiat",)})
        spec = PerturbationSpec("s", ("pktRx",), "additive_std", (2.0,), derived=graph)
        out, _ = apply_rsp(recs, spec, 0, seed=4)
        delta = 2.0 * population_std(recs, "pktRx")
        for before, after in zip(recs, out):
            expected = before["pktRxAiat"] * before["pktRx"] / (before["pktRx"] + delta)
            assert after["pktRxAiat"] == pytest.approx(expected)

    def test_replace_random_uses_donor_values_with_linked_companions(self):
        recs = records_fixture(30)
        pool = [float(v) for v in range(100, 130)]
        linked = {"RSRP": [float(-v) for v in range(100, 130)]}
        spec = PerturbationSpec("rep", ("pktRx",), "replace_random", (1.0, 2.0),
                                donor_pool=pool, linked=linked)
        out, _ = apply_rsp(recs, spec, 0, seed=11)
        for r in out:
            assert r["pktRx"] in pool
            # companion must come from the same donor row
            assert r["RSRP"] == -r["pktRx"]

    def test_replace_random_levels_draw_independently(self):
        recs = records_fixture(40)
        pool = list(np.linspace(0, 1000, 97))
        spec = PerturbationSpec("rep", ("pktRx",), "replace_random", (1.0, 2.0),
                                donor_pool=pool)
        a, _ = apply_rsp(recs, spec, 0, seed=11)
        b, _ = apply_rsp(recs, spec, 1, seed=11)
        assert [r["pktRx"] for r in a] != [r["pktRx"] for r in b]

    def test_same_inputs_same_outputs(self):
        recs = records_fixture(25)
        pool = list(np.linspace(-5, 5, 31))
        spec = PerturbationSpec("rep", ("RSRP",), "replace_random", (1.0,),
                                donor_pool=pool)
        a, loga = apply_rsp(recs, spec, 0, seed=21)
        b, logb = apply_rsp(recs, spec, 0, seed=21)
        assert a == b
        assert provenance_rows(loga) == provenance_rows(logb)

    def test_out_of_range_level_index(self):
        spec = PerturbationSpec("s", ("x",), "additive_std", (1.0,))
        with pytest.raises(ValueError, match="level_index"):
            apply_rsp([{"x": 1.0}], spec, 3, seed=0)

    def test_empty_schedule_is_refused_at_apply_time(self):
        spec = PerturbationSpec("s", ("x",), "additive_std", ())
        with pytest.raises(ValueError, match="empty intensity schedule"):
            apply_rsp([{"x": 1.0}], spec, 0, seed=0)

    def test_provenance_csv_has_header_and_rows(self):
        recs = [{"x": 1.0}]
        spec = PerturbationSpec("s", ("x",), "replace_random", (1.0,),
                                donor_pool=[9.0])
        _, log = apply_rsp(recs, spec, 0, seed=0)
        text = provenance_csv_text(log)
        lines = text.strip().split("\n")
        assert lines[0] == "record,field,old,new,level,verdict"
        assert len(lines) == 2
