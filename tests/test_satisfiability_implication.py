"""Tests for the bounded satisfiability / strong satisfiability / implication checkers.

These mirror Example 5 and the surrounding discussion in Section 4 of the
paper, plus boundary behaviour (non-linear rules are rejected, witnesses are
genuine models).
"""

from __future__ import annotations

import pytest

from repro.core.builtin_rules import phi5, phi6, phi7, phi8, phi9
from repro.core.implication import is_redundant, minimal_cover
from repro.core.ngd import NGD, RuleSet
from repro.core.satisfiability import check_satisfiability, implies, is_satisfiable, is_strongly_satisfiable
from repro.core.validation import graph_satisfies
from repro.errors import SatisfiabilityError
from repro.graph.graph import WILDCARD
from repro.graph.pattern import Pattern
from repro.graph.store import GraphStore


def single_node_rule(premise: str, conclusion: str, label: str = WILDCARD, name: str = "r") -> NGD:
    pattern = Pattern(f"Q_{name}", nodes=[("x", label)])
    return NGD.from_text(pattern, premise, conclusion, name=name)


class TestSatisfiabilityExample5:
    def test_phi5_and_phi6_conflict(self):
        # A = 7 ∧ B = 7 contradicts A + B = 11 on every shared node
        assert not is_satisfiable(RuleSet([phi5(), phi6()]))

    def test_phi5_alone_is_satisfiable(self):
        result = check_satisfiability(RuleSet([phi5()]))
        assert result.satisfiable
        assert result.witness is not None
        assert graph_satisfies(result.witness, [phi5()])

    def test_relabelled_phi6_restores_satisfiability(self):
        # when φ6 only constrains 'a'-labelled nodes, a 'b'-labelled model satisfies both
        assert is_satisfiable(RuleSet([phi5(), phi6("a")]))

    def test_relabelled_set_is_not_strongly_satisfiable(self):
        # strong satisfiability forces an 'a' node to exist, resurrecting the conflict
        assert not is_strongly_satisfiable(RuleSet([phi5(), phi6("a")]))

    def test_phi7_phi8_phi9_conflict(self):
        assert not is_satisfiable(RuleSet([phi7(), phi8(), phi9()]))

    def test_each_of_phi7_phi8_phi9_alone_is_satisfiable(self):
        for rule in (phi7(), phi8(), phi9()):
            assert is_satisfiable(RuleSet([rule]))

    def test_pairs_without_the_full_conflict_are_satisfiable(self):
        assert is_satisfiable(RuleSet([phi7(), phi9()]))
        assert is_satisfiable(RuleSet([phi8(), phi9()]))
        assert is_satisfiable(RuleSet([phi7(), phi8()]))


class TestSatisfiabilityGeneral:
    def test_empty_rule_set_is_satisfiable(self):
        assert is_satisfiable(RuleSet([]))

    def test_witness_satisfies_all_rules(self):
        rules = RuleSet([single_node_rule("", "x.A >= 3, x.A <= 5", name="range")])
        result = check_satisfiability(rules)
        assert result.satisfiable
        assert graph_satisfies(result.witness, rules)
        value = result.witness_attributes[next(iter(result.witness_attributes))]
        assert 3 <= value <= 5

    def test_unsatisfiable_equalities(self):
        rules = RuleSet(
            [
                single_node_rule("", "x.A = 1", name="one"),
                single_node_rule("", "x.A = 2", name="two"),
            ]
        )
        assert not is_satisfiable(rules)

    def test_arithmetic_only_conflict(self):
        # 2·A = 5 has no integer solution even though it is rationally satisfiable
        rules = RuleSet([single_node_rule("", "x.A + x.A = 5", name="parity")])
        assert not is_satisfiable(rules)

    def test_premise_can_be_escaped_by_dropping_attribute(self):
        # A ≤ 3 → B > 6 together with B < 6 is satisfiable by a node without attribute A? No:
        # φ9-style conclusion forces A's presence; without it the set is satisfiable.
        rules = RuleSet(
            [
                single_node_rule("x.A <= 3", "x.B > 6", name="guard"),
                single_node_rule("", "x.B < 6", name="cap"),
            ]
        )
        assert is_satisfiable(rules)

    def test_strong_satisfiability_of_compatible_patterns(self):
        rules = RuleSet(
            [
                single_node_rule("", "x.A = 1", label="a", name="ra"),
                single_node_rule("", "x.B = 2", label="b", name="rb"),
            ]
        )
        assert is_strongly_satisfiable(rules)

    def test_nonlinear_rules_are_rejected(self):
        pattern = Pattern("Qnl", nodes=[("x", WILDCARD)])
        rule = NGD.from_text(pattern, "", "x.A * x.A = 4", allow_nonlinear=True, name="square")
        with pytest.raises(SatisfiabilityError):
            is_satisfiable(RuleSet([rule]))

    def test_absolute_value_rules_are_rejected(self):
        rule = single_node_rule("", "|x.A| = 4", name="absrule")
        with pytest.raises(SatisfiabilityError):
            is_satisfiable(RuleSet([rule]))


class TestImplication:
    def test_equality_implies_weaker_inequality(self):
        sigma = RuleSet([single_node_rule("", "x.A = 5", name="exact")])
        assert implies(sigma, single_node_rule("", "x.A >= 5", name="lower"))
        assert implies(sigma, single_node_rule("", "x.A <= 5", name="upper"))

    def test_equality_does_not_imply_stronger_bound(self):
        sigma = RuleSet([single_node_rule("", "x.A = 5", name="exact")])
        assert not implies(sigma, single_node_rule("", "x.A >= 6", name="too_strong"))

    def test_transitive_bound_implication(self):
        sigma = RuleSet(
            [
                single_node_rule("", "x.A <= x.B", name="ab"),
                single_node_rule("", "x.B <= x.C", name="bc"),
            ]
        )
        assert implies(sigma, single_node_rule("", "x.A <= x.C", name="ac"))
        assert not implies(sigma, single_node_rule("", "x.C <= x.A", name="ca"))

    def test_rule_implies_itself(self):
        rule = single_node_rule("x.A > 0", "x.B > 0", name="self")
        assert implies(RuleSet([rule]), rule)

    def test_empty_sigma_implies_only_valid_rules(self):
        tautology = single_node_rule("x.A > 3", "x.A >= 2", name="taut")
        assert implies(RuleSet([]), tautology)
        assert not implies(RuleSet([]), single_node_rule("", "x.A = 1", name="not_valid"))

    def test_pattern_label_mismatch_blocks_implication(self):
        sigma = RuleSet([single_node_rule("", "x.A = 5", label="a", name="on_a")])
        candidate = single_node_rule("", "x.A = 5", label="b", name="on_b")
        assert not implies(sigma, candidate)

    def test_is_redundant_and_minimal_cover(self):
        exact = single_node_rule("", "x.A = 5", name="exact")
        weaker = single_node_rule("", "x.A >= 5", name="weaker")
        rules = RuleSet([exact, weaker])
        assert is_redundant(rules, weaker)
        assert not is_redundant(rules, exact)
        cover = minimal_cover(rules)
        assert [rule.name for rule in cover] == ["exact"]

    def test_minimal_cover_keeps_independent_rules(self):
        rules = RuleSet(
            [
                single_node_rule("", "x.A = 5", name="a5"),
                single_node_rule("", "x.B = 7", name="b7"),
            ]
        )
        assert len(minimal_cover(rules)) == 2


class TestStatisticsFromKeptCounts:
    """Every matcher over a model reads the counts the model's store keeps: no edge pass."""

    @pytest.fixture(autouse=True)
    def no_edge_pass(self, monkeypatch):
        # GraphStore's own label_counts is the edge pass the indexed store replaces
        monkeypatch.setattr(GraphStore, "label_counts", lambda store: pytest.fail("an edge pass ran"))

    @pytest.mark.parametrize("strong", (False, True), ids=("satisfiability", "strong"))
    def test_satisfiability(self, strong):
        assert not check_satisfiability(RuleSet([phi7(), phi8(), phi9()]), strong=strong).satisfiable

    def test_implication(self):
        sigma = RuleSet([single_node_rule("", "x.A <= x.B", name="ab"), single_node_rule("", "x.B <= x.C", name="bc")])
        assert implies(sigma, single_node_rule("", "x.A <= x.C", name="ac"))
