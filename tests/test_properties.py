"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core.ngd import NGD, RuleSet
from repro.core.validation import find_violations
from repro.expr.expressions import Add, Divide, Multiply, Subtract, const, var
from repro.expr.literals import Comparison, Literal
from repro.expr.parser import parse_expression
from repro.graph.graph import Graph
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.neighborhood import multi_source_nodes_within_hops, nodes_within_hops
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, apply_update


# ----------------------------------------------------------------- strategies

node_labels = st.sampled_from(["person", "city", "thing"])
edge_labels = st.sampled_from(["knows", "likes", "near"])
values = st.integers(min_value=-50, max_value=50)


@st.composite
def small_graphs(draw, max_nodes: int = 8, max_edges: int = 14):
    """A small random labelled graph with integer ``val`` attributes."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    graph = Graph("hyp")
    for index in range(num_nodes):
        graph.add_node(index, draw(node_labels), {"val": draw(values)})
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    for _ in range(num_edges):
        source = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        target = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if source != target:
            graph.add_edge(source, target, draw(edge_labels))
    return graph


@st.composite
def linear_expressions(draw, depth: int = 0):
    """Random linear arithmetic expressions over x.val and y.val."""
    if depth >= 3 or draw(st.booleans()):
        return draw(
            st.sampled_from([var("x"), var("y"), const(draw(values))])
        )
    left = draw(linear_expressions(depth=depth + 1))
    right = draw(linear_expressions(depth=depth + 1))
    operator = draw(st.sampled_from(["+", "-", "*c", "/c"]))
    if operator == "+":
        return Add(left, right)
    if operator == "-":
        return Subtract(left, right)
    if operator == "*c":
        return Multiply(const(draw(values)), left)
    return Divide(left, const(draw(st.integers(min_value=1, max_value=9))))


# --------------------------------------------------------------- graph invariants


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_graph_internal_consistency(graph):
    graph.validate_consistency()
    assert graph.node_count() == len(list(graph.nodes()))
    assert graph.edge_count() == len(list(graph.edges()))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_graph_json_roundtrip(graph):
    assert graph_from_dict(graph_to_dict(graph)) == graph


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=3))
def test_neighborhood_monotone_in_hops(graph, hops):
    start = next(iter(graph.node_ids()))
    smaller = nodes_within_hops(graph, start, hops)
    larger = nodes_within_hops(graph, start, hops + 1)
    assert smaller <= larger
    assert start in smaller


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=3))
def test_multi_source_bfs_equals_union(graph, hops):
    sources = list(graph.node_ids())[:3]
    union = frozenset().union(*[nodes_within_hops(graph, s, hops) for s in sources])
    assert multi_source_nodes_within_hops(graph, sources, hops) == union


# ----------------------------------------------------------- expression invariants


@settings(max_examples=80, deadline=None)
@given(linear_expressions(), values, values)
def test_linear_coefficients_agree_with_evaluation(expression, x_value, y_value):
    assignment = {("x", "val"): x_value, ("y", "val"): y_value}
    direct = Fraction(expression.evaluate(assignment))
    coefficients, constant = expression.linear_coefficients()
    reconstructed = constant + sum(
        coefficient * Fraction(assignment[key]) for key, coefficient in coefficients.items()
    )
    assert direct == reconstructed


@settings(max_examples=80, deadline=None)
@given(linear_expressions())
def test_generated_expressions_are_linear(expression):
    assert expression.degree() <= 1


@settings(max_examples=80, deadline=None)
@given(linear_expressions(), values, values)
def test_parser_roundtrip_preserves_value(expression, x_value, y_value):
    assignment = {("x", "val"): x_value, ("y", "val"): y_value}
    reparsed = parse_expression(str(expression))
    assert Fraction(reparsed.evaluate(assignment)) == Fraction(expression.evaluate(assignment))


@settings(max_examples=80, deadline=None)
@given(
    linear_expressions(),
    linear_expressions(),
    st.sampled_from(list(Comparison)),
    values,
    values,
)
def test_literal_negation_flips_truth(left, right, comparison, x_value, y_value):
    assignment = {("x", "val"): x_value, ("y", "val"): y_value}
    literal = Literal(left, comparison, right)
    assert literal.evaluate(assignment) != literal.negated().evaluate(assignment)


@settings(max_examples=60, deadline=None)
@given(linear_expressions(), linear_expressions(), values, values)
def test_linear_constraint_normal_form_preserves_truth(left, right, x_value, y_value):
    assignment = {("x", "val"): x_value, ("y", "val"): y_value}
    for comparison in (Comparison.LE, Comparison.LT, Comparison.GE, Comparison.GT, Comparison.EQ):
        literal = Literal(left, comparison, right)
        constraint = literal.to_linear_constraint()
        total = sum(
            coefficient * Fraction(assignment[key]) for key, coefficient in constraint.coefficients
        )
        assert constraint.comparison.holds(total, constraint.bound) == literal.evaluate(assignment)


# --------------------------------------------------------- detection invariants

_RULE = NGD.from_text(
    Pattern(
        "hyp_rule", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "knows")]
    ),
    "",
    "x.val <= y.val",
    name="hyp_order",
)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_violations_shrink_when_offending_edges_removed(graph):
    rules = RuleSet([_RULE])
    violations = find_violations(graph, rules)
    if not violations:
        return
    victim = next(iter(violations))
    mapping = victim.mapping()
    delta = BatchUpdate().delete(mapping["x"], mapping["y"], "knows")
    updated = apply_update(graph, delta)
    assert len(find_violations(updated, rules)) < len(violations)
