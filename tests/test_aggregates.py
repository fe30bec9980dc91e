"""Tests for the aggregation extension of NGDs (future work of Section 8)."""

from __future__ import annotations

import pytest

from repro.core.aggregates import (
    AggregateLiteral,
    AggregateRule,
    AggregateTerm,
    find_aggregate_violations,
)
from repro.errors import DependencyError
from repro.expr.expressions import const, var
from repro.expr.literals import Comparison, LiteralSet
from repro.expr.parser import parse_literal_set
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.store import GraphStore


@pytest.fixture
def region_graph() -> Graph:
    """A region with three districts whose populations should sum to the recorded total."""
    graph = Graph("regions")
    graph.add_node("region", "region", {"totalPop": 600})
    for name, population in (("d1", 100), ("d2", 200), ("d3", 300)):
        graph.add_node(name, "district", {"population": population})
        graph.add_edge("region", name, "hasDistrict")
    graph.add_node("empty_region", "region", {"totalPop": 0})
    return graph


@pytest.fixture
def region_pattern() -> Pattern:
    return Pattern("region_pattern", nodes=[("z", "region")])


@pytest.fixture
def sum_rule(region_pattern) -> AggregateRule:
    literal = AggregateLiteral(
        AggregateTerm("sum", "z", "hasDistrict", "population"), Comparison.EQ, var("z", "totalPop")
    )
    return AggregateRule(region_pattern, LiteralSet(), [literal], name="district_sum")


class TestAggregateTerm:
    def test_sum_and_count(self, region_graph):
        term = AggregateTerm("sum", "z", "hasDistrict", "population")
        assert term.evaluate(region_graph, "region") == 600
        count = AggregateTerm("count", "z", "hasDistrict")
        assert count.evaluate(region_graph, "region") == 3
        assert count.evaluate(region_graph, "empty_region") == 0

    def test_min_max_avg(self, region_graph):
        assert AggregateTerm("min", "z", "hasDistrict", "population").evaluate(region_graph, "region") == 100
        assert AggregateTerm("max", "z", "hasDistrict", "population").evaluate(region_graph, "region") == 300
        assert AggregateTerm("avg", "z", "hasDistrict", "population").evaluate(region_graph, "region") == 200

    def test_empty_neighbourhood_sum_is_zero(self, region_graph):
        term = AggregateTerm("sum", "z", "hasDistrict", "population")
        assert term.evaluate(region_graph, "empty_region") == 0

    def test_undefined_aggregate_raises(self, region_graph):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            AggregateTerm("avg", "z", "hasDistrict", "population").evaluate(region_graph, "empty_region")

    def test_unknown_function_rejected(self):
        with pytest.raises(DependencyError):
            AggregateTerm("median", "z", "hasDistrict", "population")


class TestAggregateRule:
    def test_consistent_region_satisfies_sum_rule(self, region_graph, sum_rule):
        violations = find_aggregate_violations(region_graph, sum_rule)
        assert len(violations) == 0

    def test_inconsistent_total_is_caught(self, region_graph, sum_rule):
        region_graph.set_attribute("region", "totalPop", 999)
        violations = find_aggregate_violations(region_graph, sum_rule)
        assert len(violations) == 1
        assert next(iter(violations)).mapping()["z"] == "region"

    def test_premise_guards_the_aggregate(self, region_graph, region_pattern):
        rule = AggregateRule(
            region_pattern,
            parse_literal_set("z.totalPop > 1000"),
            [
                AggregateLiteral(
                    AggregateTerm("count", "z", "hasDistrict"), Comparison.GE, const(1)
                )
            ],
            name="big_regions_have_districts",
        )
        # no region has totalPop > 1000, so the premise never fires
        assert len(find_aggregate_violations(region_graph, rule)) == 0
        region_graph.set_attribute("empty_region", "totalPop", 5000)
        assert len(find_aggregate_violations(region_graph, rule)) == 1

    def test_count_rule_catches_missing_links(self, region_graph, region_pattern):
        rule = AggregateRule(
            region_pattern,
            LiteralSet(),
            [AggregateLiteral(AggregateTerm("count", "z", "hasDistrict"), Comparison.GE, const(1))],
            name="regions_have_districts",
        )
        violations = find_aggregate_violations(region_graph, rule)
        assert {v.mapping()["z"] for v in violations} == {"empty_region"}

    def test_unbound_variable_rejected(self, region_pattern):
        literal = AggregateLiteral(AggregateTerm("sum", "w", "hasDistrict"), Comparison.GE, const(0))
        with pytest.raises(DependencyError):
            AggregateRule(region_pattern, LiteralSet(), [literal])

    def test_empty_conclusion_rejected(self, region_pattern):
        with pytest.raises(DependencyError):
            AggregateRule(region_pattern, LiteralSet(), [])

    def test_multiple_rules(self, region_graph, region_pattern, sum_rule):
        count_rule = AggregateRule(
            region_pattern,
            LiteralSet(),
            [AggregateLiteral(AggregateTerm("count", "z", "hasDistrict"), Comparison.GE, const(1))],
            name="regions_have_districts",
        )
        region_graph.set_attribute("region", "totalPop", 601)
        violations = find_aggregate_violations(region_graph, [sum_rule, count_rule])
        assert violations.rules_violated() == {"district_sum", "regions_have_districts"}

    def test_the_rules_read_the_counts_the_store_keeps(self, region_graph, region_pattern, sum_rule, monkeypatch):
        # GraphStore's own label_counts is the edge pass the indexed store replaces
        monkeypatch.setattr(GraphStore, "label_counts", lambda store: pytest.fail("an edge pass ran"))
        count_rule = AggregateRule(
            region_pattern,
            LiteralSet(),
            [AggregateLiteral(AggregateTerm("count", "z", "hasDistrict"), Comparison.GE, const(1))],
            name="regions_have_districts",
        )
        violations = find_aggregate_violations(region_graph, [sum_rule, count_rule, sum_rule])
        assert violations.rules_violated() == {"regions_have_districts"}
