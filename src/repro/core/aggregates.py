"""Aggregation extension of NGDs (the paper's second future-work topic, Section 8).

Plain NGDs deliberately exclude aggregation to keep the static analyses in
Σp2 (Section 1, related work).  Detection, however, does not get harder: an
aggregate over the neighbours of a matched node is computed per match in time
linear in the node's degree.  This module adds that extension for the
*detection* side only:

* :class:`AggregateTerm` — ``AGG(y.attr for x -edge_label-> y)`` where ``AGG``
  is one of count, sum, min, max, avg and ``x`` a pattern variable;
* :class:`AggregateLiteral` — ``aggregate ⊗ expression`` with the usual
  comparison predicates; the right-hand side is an ordinary (linear)
  arithmetic expression over the pattern's variables;
* :class:`AggregateRule` — ``Q[x̄](X → Y_agg)``: an ordinary premise plus a
  conjunction of aggregate literals as the conclusion;
* :func:`find_aggregate_violations` — detection of the matches whose
  aggregates fail.

The satisfiability/implication checkers intentionally do not accept these
rules; their static analyses are open problems (cf. the constraints of [25]
discussed in the paper's related work).

Example — "the recorded total population of a region equals the sum of the
populations of its districts"::

    rule = AggregateRule(
        pattern,                                  # z: region with attribute totalPop
        premise=LiteralSet(),
        conclusion=[
            AggregateLiteral(
                AggregateTerm("sum", "z", "hasDistrict", "population"),
                Comparison.EQ,
                var("z", "totalPop"),
            )
        ],
        name="district_sum",
    )
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from repro.core.violations import Violation, ViolationSet
from repro.errors import DependencyError, EvaluationError
from repro.expr.expressions import Expression, as_expression
from repro.expr.literals import Comparison, LiteralSet
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.matching.matchn import HomomorphismMatcher, assignment_for_match

__all__ = ["AggregateTerm", "AggregateLiteral", "AggregateRule", "find_aggregate_violations"]

#: Supported aggregation functions.
AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class AggregateTerm:
    """``function(y.attribute for h(variable) -edge_label-> y)`` over a match's neighbourhood.

    ``count`` ignores ``attribute`` (it counts the matching out-edges);
    every other function skips neighbours that lack the attribute or carry a
    non-numeric value.
    """

    function: str
    variable: str
    edge_label: str
    attribute: str = "val"

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise DependencyError(
                f"unknown aggregate function {self.function!r}; expected one of {AGGREGATE_FUNCTIONS}"
            )

    def evaluate(self, graph: Graph, node_id: Hashable) -> Fraction:
        """Evaluate the aggregate at a concrete data node.

        Raises :class:`EvaluationError` when the aggregate is undefined
        (min/max/avg over an empty neighbourhood).
        """
        values: list[Fraction] = []
        matched_edges = 0
        for target, label in graph.successors(node_id):
            if label != self.edge_label:
                continue
            matched_edges += 1
            value = graph.node(target).attribute(self.attribute)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            values.append(Fraction(value))
        if self.function == "count":
            return Fraction(matched_edges)
        if self.function == "sum":
            return sum(values, Fraction(0))
        if not values:
            raise EvaluationError(f"{self} is undefined: no numeric {self.attribute!r} neighbours")
        if self.function == "min":
            return min(values)
        if self.function == "max":
            return max(values)
        return sum(values, Fraction(0)) / len(values)

    def __str__(self) -> str:
        return f"{self.function}({self.variable} -[{self.edge_label}]-> .{self.attribute})"


@dataclass(frozen=True)
class AggregateLiteral:
    """``aggregate ⊗ expression`` — the aggregate on the left, a linear expression on the right."""

    aggregate: AggregateTerm
    comparison: Comparison
    right: Expression

    @classmethod
    def build(cls, aggregate: AggregateTerm, comparison: object, right: object) -> "AggregateLiteral":
        predicate = comparison if isinstance(comparison, Comparison) else Comparison.from_symbol(str(comparison))
        return cls(aggregate, predicate, as_expression(right))

    def holds_for(self, graph: Graph, match: Mapping[str, Hashable]) -> bool:
        """Return the truth of the literal for one match (False on undefined aggregates)."""
        node_id = match.get(self.aggregate.variable)
        if node_id is None or not graph.has_node(node_id):
            return False
        try:
            left_value = self.aggregate.evaluate(graph, node_id)
            assignment = assignment_for_match(graph, match, self.right.variables())
            right_value = self.right.evaluate(assignment)
        except (EvaluationError, TypeError):
            return False
        return self.comparison.holds(left_value, Fraction(right_value))

    def pattern_variables(self) -> frozenset[str]:
        """Return the pattern variables mentioned on either side."""
        return frozenset({self.aggregate.variable}) | self.right.pattern_variables()

    def __str__(self) -> str:
        return f"{self.aggregate} {self.comparison.value} {self.right}"


class AggregateRule:
    """``Q[x̄](X → Y_agg)``: an ordinary premise and aggregate conclusions."""

    def __init__(
        self,
        pattern: Pattern,
        premise: LiteralSet | Iterable = (),
        conclusion: Iterable[AggregateLiteral] = (),
        name: Optional[str] = None,
    ) -> None:
        self.pattern = pattern
        self.premise = premise if isinstance(premise, LiteralSet) else LiteralSet(premise)
        self.conclusion = tuple(conclusion)
        self.name = name or f"agg_{pattern.name}"
        if not self.conclusion:
            raise DependencyError(f"{self.name}: an aggregate rule needs at least one aggregate literal")
        bound = set(pattern.variables)
        used = self.premise.pattern_variables() | frozenset(
            variable for literal in self.conclusion for variable in literal.pattern_variables()
        )
        unknown = used - bound
        if unknown:
            raise DependencyError(f"{self.name}: literals reference unbound variables {sorted(unknown)}")

    def match_violates(self, graph: Graph, match: Mapping[str, Hashable]) -> bool:
        """Return True when the match satisfies the premise but fails some aggregate literal."""
        assignment = assignment_for_match(graph, match, self.premise.variables())
        if not self.premise.satisfied_by(assignment):
            return False
        return not all(literal.holds_for(graph, match) for literal in self.conclusion)

    def __str__(self) -> str:
        conclusion = " ∧ ".join(str(literal) for literal in self.conclusion)
        return f"{self.name}: {self.pattern.name}[{', '.join(self.pattern.variables)}]({self.premise} → {conclusion})"


def find_aggregate_violations(
    graph: Graph, rules: Iterable[AggregateRule] | AggregateRule
) -> ViolationSet:
    """Return every match violating the given aggregate rules."""
    rule_list = [rules] if isinstance(rules, AggregateRule) else list(rules)
    result = ViolationSet()
    for rule in rule_list:
        matcher = HomomorphismMatcher(graph, rule.pattern, premise=rule.premise)
        for match in matcher.matches():
            if rule.match_violates(graph, match):
                result.add(Violation.from_mapping(rule.name, match, rule.pattern.variables))
    return result
