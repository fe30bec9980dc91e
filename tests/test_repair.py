"""Tests for graph repairing with NGDs (the future-work extension, Section 8)."""

from __future__ import annotations

import pytest

from repro.core.builtin_rules import phi2, phi3
from repro.core.ngd import NGD, RuleSet
from repro.core.repair import apply_repairs, plan_repairs, repair_graph
from repro.core.validation import find_violations, graph_satisfies
from repro.core.violations import ViolationSet
from repro.datasets.figure1 import figure1_g2, figure1_g3


class TestRepairFigure1:
    def test_repairing_g2_fixes_the_population_sum(self):
        graph = figure1_g2()
        rules = RuleSet([phi2()])
        repaired, plan = repair_graph(graph, rules)
        assert plan.is_complete()
        assert plan.repairs  # something was changed
        assert graph_satisfies(repaired, rules)
        # the original graph is untouched
        assert not graph_satisfies(graph, rules)

    def test_g2_repair_is_minimal(self):
        graph = figure1_g2()
        _, plan = repair_graph(graph, RuleSet([phi2()]))
        # 600 + 722 = 1322 vs recorded 1572: the cheapest integral fix costs 250
        assert plan.total_cost() == pytest.approx(250)

    def test_repairing_g3_fixes_the_rank_order(self):
        graph = figure1_g3()
        rules = RuleSet([phi3()])
        repaired, plan = repair_graph(graph, rules)
        assert plan.is_complete()
        assert graph_satisfies(repaired, rules)


class TestRepairMechanics:
    @pytest.fixture
    def order_rule(self, knows_pattern) -> NGD:
        return NGD.from_text(knows_pattern, "", "x.val >= y.val", name="val_order")

    def test_plan_only_touches_conclusion_attributes(self, triangle_graph, order_rule):
        rules = RuleSet([order_rule])
        violations = find_violations(triangle_graph, rules)
        plan = plan_repairs(triangle_graph, rules, violations)
        assert plan.is_complete()
        touched = {(repair.node, repair.attribute) for repair in plan.repairs}
        assert touched <= {("a", "val"), ("b", "val")}
        repaired = apply_repairs(triangle_graph, plan)
        assert graph_satisfies(repaired, rules)

    def test_apply_in_place(self, triangle_graph, order_rule):
        rules = RuleSet([order_rule])
        plan = plan_repairs(triangle_graph, rules, find_violations(triangle_graph, rules))
        result = apply_repairs(triangle_graph, plan, in_place=True)
        assert result is triangle_graph
        assert graph_satisfies(triangle_graph, rules)

    def test_empty_violation_set_plans_nothing(self, triangle_graph, order_rule):
        plan = plan_repairs(triangle_graph, RuleSet([order_rule]), ViolationSet())
        assert plan.repairs == []
        assert plan.is_complete()

    def test_integral_repairs_by_default(self, triangle_graph, knows_pattern):
        rule = NGD.from_text(knows_pattern, "", "x.val + y.val = 31", name="odd_sum")
        rules = RuleSet([rule])
        repaired, plan = repair_graph(triangle_graph, rules)
        assert plan.is_complete()
        assert all(isinstance(repair.new_value, int) for repair in plan.repairs)
        assert graph_satisfies(repaired, rules)

    def test_fractional_repairs_when_requested(self, triangle_graph, knows_pattern):
        rule = NGD.from_text(knows_pattern, "", "x.val + y.val = 31", name="odd_sum")
        rules = RuleSet([rule])
        repaired, plan = repair_graph(triangle_graph, rules, integral=False)
        assert plan.is_complete()
        assert graph_satisfies(repaired, rules)

    def test_contradictory_conclusions_are_unrepairable(self, triangle_graph, knows_pattern):
        rules = RuleSet(
            [
                NGD.from_text(knows_pattern, "", "x.val = 1", name="one"),
                NGD.from_text(knows_pattern, "", "x.val = 2", name="two"),
            ]
        )
        violations = find_violations(triangle_graph, rules)
        plan = plan_repairs(triangle_graph, rules, violations)
        assert not plan.is_complete()
        assert not plan.repairs

    def test_disequality_conclusions_are_reported_unrepairable(self, triangle_graph, knows_pattern):
        rule = NGD.from_text(knows_pattern, "", "x.val != 10", name="ne_rule")
        rules = RuleSet([rule])
        violations = find_violations(triangle_graph, rules)
        assert violations  # x = a has val 10
        plan = plan_repairs(triangle_graph, rules, violations)
        assert len(plan.unrepairable) == len(violations)

    def test_repair_then_redetect_loop(self, triangle_graph, order_rule):
        """The classic clean loop: detect → repair → re-detect finds nothing."""
        rules = RuleSet([order_rule])
        repaired, _ = repair_graph(triangle_graph, rules)
        assert len(find_violations(repaired, rules)) == 0
