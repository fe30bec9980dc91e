"""Unit tests for NGDs, rule sets, violations, and the built-in paper rules."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.builtin_rules import (
    effectiveness_rules,
    example_rules,
    ngd1,
    ngd2,
    ngd3,
    phi1,
    phi2,
    phi3,
    phi4,
)
from repro.core.ngd import NGD, RuleSet, cfd_as_ngd, gfd
from repro.core.validation import find_violations, graph_satisfies
from repro.core.violations import Violation, ViolationDelta, ViolationSet
from repro.datasets.figure1 import days_since_epoch
from repro.errors import DependencyError, NonLinearExpressionError
from repro.graph.graph import Graph
from repro.matching.incmatch import pivot_index
from repro.matching.plan import compile_plans


class TestNGDConstruction:
    def test_from_text(self, knows_pattern):
        rule = NGD.from_text(knows_pattern, "x.val > 0", "y.val > 0", name="r")
        assert len(rule.premise) == 1
        assert len(rule.conclusion) == 1
        assert rule.variables() == ("x", "y")

    def test_unknown_variable_rejected(self, knows_pattern):
        with pytest.raises(DependencyError):
            NGD.from_text(knows_pattern, "", "z.val = 1")

    def test_nonlinear_rejected_by_default(self, knows_pattern):
        with pytest.raises(NonLinearExpressionError):
            NGD.from_text(knows_pattern, "", "x.val * y.val = 1")

    def test_nonlinear_allowed_with_flag(self, knows_pattern):
        rule = NGD.from_text(knows_pattern, "", "x.val * y.val = 1", allow_nonlinear=True)
        assert not rule.is_linear()
        assert max(literal.degree() for literal in rule.all_literals()) == 2

    def test_is_gfd(self, knows_pattern):
        assert NGD.from_text(knows_pattern, "x.val = 1", "y.val = 2").is_gfd()
        assert not NGD.from_text(knows_pattern, "", "x.val < y.val").is_gfd()

    def test_size_and_diameter(self, rule_phi2):
        assert rule_phi2.diameter() == 2
        assert rule_phi2.size() == rule_phi2.pattern.size() + 1

    def test_match_satisfies_semantics(self, knows_pattern):
        rule = NGD.from_text(knows_pattern, "x.val > 0", "y.val > x.val")
        assert rule.match_satisfies({("x", "val"): -1})  # premise fails → vacuously satisfied
        assert rule.match_satisfies({("x", "val"): 1, ("y", "val"): 2})
        assert rule.match_violates({("x", "val"): 1, ("y", "val"): 0})

    def test_equality_and_hash(self, knows_pattern):
        a = NGD.from_text(knows_pattern, "", "x.val = 1", name="a")
        b = NGD.from_text(knows_pattern, "", "x.val = 1", name="b")
        assert a == b
        assert hash(a) == hash(b)

    def test_gfd_constructor_enforces_fragment(self, knows_pattern):
        rule = gfd(knows_pattern, "x.val = 1", "y.val = 2")
        assert rule.is_gfd()
        with pytest.raises(DependencyError):
            gfd(knows_pattern, "", "x.val < y.val")

    def test_cfd_embedding(self):
        rule = cfd_as_ngd("customer", "t.country = 44", "t.area = 131", name="uk_area")
        assert rule.pattern.node_count() == 1
        assert rule.is_gfd()


class TestRuleSet:
    def test_iteration_and_lookup(self, figure1_rules):
        assert len(figure1_rules) == 4
        assert [rule.name for rule in figure1_rules] == ["phi1", "phi2", "phi3", "phi4"]
        assert figure1_rules[2] is figure1_rules.rules()[2]

    def test_diameter_is_max(self, figure1_rules):
        assert figure1_rules.diameter() == 4

    def test_restrict(self, figure1_rules):
        assert len(figure1_rules.restrict(2)) == 2

    def test_total_size_and_max_nodes(self, figure1_rules):
        assert figure1_rules.total_size() > 0
        assert max(rule.pattern.node_count() for rule in figure1_rules) == 9  # Q4 has nine pattern nodes

    def test_is_linear(self, figure1_rules):
        assert figure1_rules.is_linear()


class TestRulesAreValues:
    """A pattern, an NGD and a rule set are built in one call and never change."""

    @pytest.mark.parametrize(
        "target, attribute",
        [("rule", "pattern"), ("rule", "name"), ("rule", "premise"), ("rules", "name"), ("pattern", "name")],
    )
    def test_assigning_or_deleting_an_attribute_raises(self, figure1_rules, target, attribute):
        rule = figure1_rules[0]
        value = {"rule": rule, "rules": figure1_rules, "pattern": rule.pattern}[target]
        before = getattr(value, attribute)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, attribute, before)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, attribute)
        assert getattr(value, attribute) is before

    def test_a_pattern_offers_no_way_to_grow(self, knows_pattern):
        for name in ("add_node", "add_edge", "from_edges"):
            assert not hasattr(knows_pattern, name), name
        assert not hasattr(RuleSet, "add")
        assert isinstance(knows_pattern.edges(), tuple) and isinstance(knows_pattern.variables, tuple)
        assert isinstance(knows_pattern.out_edges("x"), tuple)

    def test_what_is_derived_from_a_rule_set_is_computed_once(self, figure1_rules, monkeypatch):
        index = pivot_index(figure1_rules)
        assert pivot_index(figure1_rules) is index
        measured = []
        real = NGD.diameter
        monkeypatch.setattr(NGD, "diameter", lambda rule: measured.append(rule.name) or real(rule))
        rules = RuleSet(figure1_rules)
        assert rules.diameter() == rules.diameter() == 4
        assert measured == [rule.name for rule in figure1_rules]

    @pytest.mark.parametrize(
        "clone", [lambda rules: pickle.loads(pickle.dumps(rules)), copy.deepcopy], ids=("pickle", "deepcopy")
    )
    def test_pickle_and_deepcopy_round_trip_a_rule_set(self, figure1_rules, clone):
        pivot_index(figure1_rules)  # a filled memo travels too, and stays right
        copied = clone(figure1_rules)
        assert copied is not figure1_rules and copied.to_json() == figure1_rules.to_json()
        assert list(copied) == list(figure1_rules) and copied.diameter() == figure1_rules.diameter()
        assert sorted(pivot_index(copied)) == sorted(pivot_index(figure1_rules))
        with pytest.raises(AttributeError):
            copied[0].name = "renamed"

    def test_a_plan_reaches_a_spawned_worker_by_pickle(self, g2, figure1_rules):
        for plan in compile_plans(g2, figure1_rules):
            restored = pickle.loads(pickle.dumps(plan))
            assert restored.rule == plan.rule and restored.rule.name == plan.rule.name
            assert restored.order == plan.order


class TestViolations:
    def test_violation_mapping_roundtrip(self):
        violation = Violation.from_mapping("r", {"x": 1, "y": 2}, ("x", "y"))
        assert violation.mapping() == {"x": 1, "y": 2}
        assert violation.involves_node(1)
        assert not violation.involves_node(3)

    def test_violation_set_operations(self):
        a = Violation("r", ("x",), (1,))
        b = Violation("r", ("x",), (2,))
        c = Violation("s", ("x",), (1,))
        before = ViolationSet([a, b])
        after = ViolationSet([b, c])
        delta = ViolationDelta.from_sets(before, after)
        assert delta.introduced.as_set() == frozenset({c})
        assert delta.removed.as_set() == frozenset({a})
        assert before.apply_delta(delta) == after

    def test_violation_set_indexes(self):
        a = Violation("r", ("x",), (1,))
        c = Violation("s", ("x",), (2,))
        violations = ViolationSet([a, c])
        assert violations.by_rule("r") == frozenset({a})
        assert violations.rules_violated() == frozenset({"r", "s"})
        assert violations.nodes_involved() == frozenset({1, 2})

    def test_empty_delta(self):
        assert ViolationDelta.empty().is_empty()
        assert ViolationDelta.empty().total_changes() == 0


class TestPaperRulesOnFigure1:
    def test_phi1_catches_g1(self, g1, rule_phi1):
        violations = find_violations(g1, [rule_phi1])
        assert len(violations) == 1
        assert next(iter(violations)).mapping()["x"] == "BBC_Trust"

    def test_phi2_catches_g2(self, g2, rule_phi2):
        assert len(find_violations(g2, [rule_phi2])) == 1

    def test_phi3_catches_g3(self, g3, rule_phi3):
        violations = find_violations(g3, [rule_phi3])
        assert len(violations) == 1
        mapping = next(iter(violations)).mapping()
        assert {mapping["x"], mapping["y"]} == {"Corona", "Downey"}

    def test_phi4_catches_fake_account(self, g4, rule_phi4):
        violations = find_violations(g4, [rule_phi4])
        assert len(violations) == 1
        assert next(iter(violations)).mapping()["y"] == "NatWest_Help"

    def test_clean_graphs_satisfy_other_rules(self, g1, g2, figure1_rules):
        # each figure-1 graph violates exactly its own rule; e.g. G1 satisfies φ2–φ4
        assert graph_satisfies(g1, [phi2(), phi3(), phi4()])
        assert graph_satisfies(g2, [phi1(), phi3(), phi4()])

    def test_fixing_g2_removes_the_violation(self, g2, rule_phi2):
        g2.set_attribute("total", "val", 1322)
        assert graph_satisfies(g2, [rule_phi2])

    def test_phi1_threshold_parameter(self, g1):
        # with the default threshold the backwards dates violate φ1 ...
        assert len(find_violations(g1, [phi1(min_days=1)])) == 1
        # ... but a (nonsensical) threshold lower than the observed gap satisfies it
        assert graph_satisfies(g1, [phi1(min_days=-100_000)])


class TestEffectivenessRules:
    def test_ngd1_catches_living_person_born_1713(self):
        graph = Graph()
        graph.add_node("john", "person")
        graph.add_node("john_birth", "integer", {"val": 1713})
        graph.add_node("john_cat", "string", {"val": "living people"})
        graph.add_edge("john", "john_birth", "birthYear")
        graph.add_edge("john", "john_cat", "category")
        assert len(find_violations(graph, [ngd1()])) == 1
        graph.set_attribute("john_cat", "val", "18th century people")
        assert graph_satisfies(graph, [ngd1()])

    def test_ngd2_catches_olympics_nation_count(self):
        graph = Graph()
        graph.add_node("olympics1992", "major_event", {"type": "Olympic"})
        graph.add_node("sailboard", "competition")
        graph.add_node("competitors", "integer", {"val": 24})
        graph.add_node("nations", "integer", {"val": 34})
        graph.add_edge("olympics1992", "sailboard", "includes")
        graph.add_edge("sailboard", "competitors", "competitors")
        graph.add_edge("sailboard", "nations", "nations")
        assert len(find_violations(graph, [ngd2()])) == 1

    def test_ngd2_ignores_non_olympic_events(self):
        graph = Graph()
        graph.add_node("worlds", "major_event", {"type": "WorldCup"})
        graph.add_node("race", "competition")
        graph.add_node("competitors", "integer", {"val": 10})
        graph.add_node("nations", "integer", {"val": 20})
        graph.add_edge("worlds", "race", "includes")
        graph.add_edge("race", "competitors", "competitors")
        graph.add_edge("race", "nations", "nations")
        assert graph_satisfies(graph, [ngd2()])

    def test_ngd3_catches_driver_win_mismatch(self):
        graph = Graph()
        graph.add_node("ferrari", "team", {"numberOfWins": 0})
        graph.add_node("vettel", "driver", {"numberOfWins": 1})
        graph.add_node("verstappen", "driver", {"numberOfWins": 1})
        graph.add_node("y2016", "year")
        graph.add_edge("vettel", "ferrari", "team")
        graph.add_edge("verstappen", "ferrari", "team")
        graph.add_edge("vettel", "y2016", "year")
        graph.add_edge("verstappen", "y2016", "year")
        graph.add_edge("ferrari", "y2016", "year")
        assert len(find_violations(graph, [ngd3()])) >= 1

    def test_rule_set_builders(self):
        assert len(example_rules()) == 4
        assert len(effectiveness_rules()) == 3

    def test_days_since_epoch_ordering(self):
        assert days_since_epoch(2007) > days_since_epoch(1946, 8, 28)
