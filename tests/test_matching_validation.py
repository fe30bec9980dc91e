"""Unit tests for homomorphism matching, candidate pruning, and batch validation."""

from __future__ import annotations

import pickle

import pytest

from repro.core.ngd import NGD, RuleSet
from repro.core.validation import find_violations, graph_satisfies, satisfies_rule, violations_of_rule
from repro.expr.parser import parse_literal_set
from repro.graph.generators import chain_graph, random_labeled_graph, star_graph
from repro.graph.graph import WILDCARD, Graph
from repro.graph.pattern import Pattern
from repro.matching.candidates import MatchStatistics, candidate_nodes, node_satisfies_unary_premise
from repro.matching.incmatch import IncrementalMatcher, find_update_pivots
from repro.matching.matchn import HomomorphismMatcher, assignment_for_match, match_violates_dependency
from repro.graph.store import IndexedStore
from repro.graph.updates import BatchUpdate, UpdateGenerator, apply_update


class TestCandidates:
    def test_label_filtering(self, triangle_graph, knows_pattern):
        candidates = candidate_nodes(triangle_graph, knows_pattern, "x")
        assert set(candidates) == {"a"}  # only 'a' has an outgoing "knows" edge

    def test_wildcard_candidates(self, triangle_graph):
        pattern = Pattern.from_edges("p", nodes=[("x", WILDCARD)], edges=[])
        assert len(candidate_nodes(triangle_graph, pattern, "x")) == 3

    def test_unary_premise_pruning(self, triangle_graph, knows_pattern):
        premise = parse_literal_set("x.val > 100")
        candidates = candidate_nodes(triangle_graph, knows_pattern, "x", premise=premise)
        assert candidates == []

    def test_unary_premise_missing_attribute_prunes(self, triangle_graph):
        premise = parse_literal_set("x.population > 0")
        assert not node_satisfies_unary_premise(triangle_graph, "a", "x", premise)

    def test_statistics_accumulate(self, triangle_graph, knows_pattern):
        stats = MatchStatistics()
        candidate_nodes(triangle_graph, knows_pattern, "x", stats=stats)
        assert stats.candidates_examined > 0
        other = MatchStatistics(expansions=2)
        stats.merge(other)
        assert stats.expansions == 2
        assert stats.total_operations() > 2


class TestHomomorphismMatcher:
    def test_single_match(self, triangle_graph, knows_pattern):
        matcher = HomomorphismMatcher(triangle_graph, knows_pattern)
        matches = list(matcher.matches())
        assert matches == [{"x": "a", "y": "b"}]

    def test_homomorphism_allows_node_reuse(self):
        graph = Graph()
        graph.add_node("a", "t")
        graph.add_node("b", "t")
        graph.add_edge("a", "b", "e")
        graph.add_edge("b", "a", "e")
        pattern = Pattern.from_edges(
            "p",
            nodes=[("x", "t"), ("y", "t"), ("z", "t")],
            edges=[("x", "y", "e"), ("y", "z", "e")],
        )
        matches = list(HomomorphismMatcher(graph, pattern).matches())
        # x and z may map to the same data node: a->b->a and b->a->b
        assert {tuple(sorted(m.items())) for m in matches} == {
            (("x", "a"), ("y", "b"), ("z", "a")),
            (("x", "b"), ("y", "a"), ("z", "b")),
        }

    def test_edge_labels_must_match(self, triangle_graph):
        pattern = Pattern.from_edges(
            "p", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "likes")]
        )
        assert list(HomomorphismMatcher(triangle_graph, pattern).matches()) == []

    def test_seeded_search(self, triangle_graph):
        pattern = Pattern.from_edges(
            "p", nodes=[("x", "person"), ("y", "city")], edges=[("x", "y", "lives_in")]
        )
        matcher = HomomorphismMatcher(triangle_graph, pattern)
        assert list(matcher.matches(seed={"x": "a"})) == [{"x": "a", "y": "c"}]
        assert list(matcher.matches(seed={"x": "c"})) == []  # label mismatch

    def test_inconsistent_seed_yields_nothing(self, triangle_graph, knows_pattern):
        matcher = HomomorphismMatcher(triangle_graph, knows_pattern)
        assert list(matcher.matches(seed={"x": "b", "y": "a"})) == []

    def test_disconnected_pattern(self, triangle_graph):
        pattern = Pattern.from_edges("p", nodes=[("x", "person"), ("y", "city")], edges=[])
        matches = list(HomomorphismMatcher(triangle_graph, pattern).matches())
        assert len(matches) == 2  # two persons × one city

    def test_wildcard_pattern_matches_all(self, triangle_graph):
        pattern = Pattern.from_edges("p", nodes=[("x", WILDCARD)], edges=[])
        assert len(list(HomomorphismMatcher(triangle_graph, pattern).matches())) == 3

    def test_violations_generator(self, triangle_graph, knows_rule):
        matcher = HomomorphismMatcher(
            triangle_graph, knows_rule.pattern, premise=knows_rule.premise, conclusion=knows_rule.conclusion
        )
        assert list(matcher.violations()) == [{"x": "a", "y": "b"}]

    def test_pruning_equivalence(self, triangle_graph, knows_rule):
        with_pruning = HomomorphismMatcher(
            triangle_graph,
            knows_rule.pattern,
            premise=knows_rule.premise,
            conclusion=knows_rule.conclusion,
            use_literal_pruning=True,
        )
        without_pruning = HomomorphismMatcher(
            triangle_graph,
            knows_rule.pattern,
            premise=knows_rule.premise,
            conclusion=knows_rule.conclusion,
            use_literal_pruning=False,
        )
        assert list(with_pruning.violations()) == list(without_pruning.violations())

    def test_star_pattern_matches(self):
        graph = star_graph(4)
        pattern = Pattern.from_edges(
            "p", nodes=[("h", "hub"), ("l", "leaf")], edges=[("h", "l", "link")]
        )
        assert len(list(HomomorphismMatcher(graph, pattern).matches())) == 4

    def test_assignment_for_match_skips_missing_attributes(self, triangle_graph):
        assignment = assignment_for_match(triangle_graph, {"x": "c"}, frozenset({("x", "age")}))
        assert assignment == {}

    def test_match_violates_dependency(self, triangle_graph, knows_rule):
        assert match_violates_dependency(
            triangle_graph, {"x": "a", "y": "b"}, knows_rule.premise, knows_rule.conclusion
        )


class TestValidation:
    def test_violations_of_rule(self, triangle_graph, knows_rule):
        violations = violations_of_rule(triangle_graph, knows_rule)
        assert len(violations) == 1

    def test_graph_satisfies(self, triangle_graph, knows_pattern):
        satisfied_rule = NGD.from_text(knows_pattern, "", "x.val <= y.val", name="ok")
        assert satisfies_rule(triangle_graph, satisfied_rule)
        assert graph_satisfies(triangle_graph, [satisfied_rule])

    def test_find_violations_unions_rules(self, triangle_graph, knows_rule, knows_pattern):
        other = NGD.from_text(knows_pattern, "", "x.age <= y.age", name="age_order")
        violations = find_violations(triangle_graph, RuleSet([knows_rule, other]))
        # 10 >= 20 fails val_order and 30 <= 25 fails age_order: both rules are violated
        assert violations.rules_violated() == {"val_order", "age_order"}
        assert len(violations) == 2

    def test_empty_rule_set_always_satisfied(self, triangle_graph):
        assert graph_satisfies(triangle_graph, RuleSet([]))

    def test_missing_attribute_in_conclusion_is_violation(self, triangle_graph, knows_pattern):
        rule = NGD.from_text(knows_pattern, "", "x.population > 0", name="needs_population")
        assert len(find_violations(triangle_graph, [rule])) == 1

    def test_missing_attribute_in_premise_is_not_violation(self, triangle_graph, knows_pattern):
        rule = NGD.from_text(knows_pattern, "x.population > 0", "y.val = 999", name="guarded")
        assert graph_satisfies(triangle_graph, [rule])


class _CountingStore(IndexedStore):
    """An indexed store that counts the node lookups made through it."""

    lookups = 0

    def get_node(self, node_id):
        _CountingStore.lookups += 1
        return super().get_node(node_id)

    def has_node(self, node_id):
        _CountingStore.lookups += 1
        return super().has_node(node_id)


def _pivots_by_pattern_scan(rule, delta, graph_before, graph_after):
    """Pivots by the definition: every unit update against every pattern edge."""
    found = []
    for update in delta:
        reference = graph_after if update.is_insertion else graph_before
        if not reference.has_node(update.source) or not reference.has_node(update.target):
            continue
        for edge in rule.pattern.edges():
            if (
                update.label == edge.label
                and (edge.source != edge.target or update.source == update.target)
                and rule.pattern.node(edge.source).matches_label(reference.node(update.source).label)
                and rule.pattern.node(edge.target).matches_label(reference.node(update.target).label)
            ):
                found.append((edge, update.source, update.target, update.is_insertion))
    return found


def _pivot_rules(graph: Graph, count: int) -> list[NGD]:
    """``count`` one- and two-edge rules over the graph's labels, wildcards and a self-loop included."""
    labels = sorted(graph.labels()) + [WILDCARD]
    edge_labels = sorted(graph.edge_labels())
    rules = []
    for index in range(count):
        first, second = edge_labels[index % len(edge_labels)], edge_labels[(index + 1) % len(edge_labels)]
        pattern = Pattern.from_edges(
            f"q{index}",
            nodes=[("x", labels[index % len(labels)]), ("y", labels[(index + 2) % len(labels)]), ("z", WILDCARD)],
            edges=[("x", "y", first), ("y", "z", second)] + ([("z", "z", first)] if index % 3 == 0 else []),
        )
        rules.append(NGD.from_text(pattern, "", "x.val >= 0", name=f"r{index}"))
    return rules


class TestIncrementalMatching:
    @pytest.mark.parametrize("rule_count", [1, 12])
    def test_endpoints_are_resolved_once_per_delta_whatever_the_rule_count(self, rule_count):
        plain = random_labeled_graph(60, 240, num_labels=3, num_edge_labels=3, seed=5)
        delta = UpdateGenerator(seed=9).generate(plain, size=30)
        loop = next(iter(plain.node_ids()))
        delta.insert(loop, loop, sorted(plain.edge_labels())[0])
        before = plain.with_backend(_CountingStore())
        after = apply_update(plain.with_backend(_CountingStore()), delta, in_place=True)
        rules = _pivot_rules(plain, rule_count)
        _CountingStore.lookups = 0
        pivots = [find_update_pivots(rule, delta, before, after) for rule in rules]
        assert _CountingStore.lookups <= 2 * len(delta)
        for rule, found in zip(rules, pivots):
            assert [
                (p.pattern_edge, p.source_node, p.target_node, p.from_insertion) for p in found
            ] == _pivots_by_pattern_scan(rule, delta, before, after)
        assert any(pivots) and any(p.source_node == p.target_node for found in pivots for p in found)

    def test_endpoint_labels_follow_the_batch_and_the_graphs(self, triangle_graph, knows_rule):
        delta = BatchUpdate().delete("a", "b", "knows")
        updated = apply_update(triangle_graph, delta)
        assert len(find_update_pivots(knows_rule, delta, triangle_graph, updated)) == 1
        # growing the batch drops what was remembered about the shorter one
        delta.insert("b", "a", "knows")
        updated = apply_update(triangle_graph, delta)
        assert len(find_update_pivots(knows_rule, delta, triangle_graph, updated)) == 2
        # the same batch against other snapshots is resolved again, not recalled
        empty = Graph()
        assert find_update_pivots(knows_rule, delta, empty, empty) == []
        assert [type(u) for u in pickle.loads(pickle.dumps(delta))] == [type(u) for u in delta]

    def test_pivots_found_for_matching_labels(self, triangle_graph, knows_rule):
        delta = BatchUpdate().delete("a", "b", "knows")
        updated = apply_update(triangle_graph, delta)
        pivots = find_update_pivots(knows_rule, delta, triangle_graph, updated)
        assert len(pivots) == 1
        assert not pivots[0].from_insertion
        assert pivots[0].seed() == {"x": "a", "y": "b"}

    def test_no_pivot_for_unrelated_label(self, triangle_graph, knows_rule):
        delta = BatchUpdate().delete("a", "c", "lives_in")
        updated = apply_update(triangle_graph, delta)
        assert find_update_pivots(knows_rule, delta, triangle_graph, updated) == []

    def test_insertion_pivot_expands_in_updated_graph(self, triangle_graph, knows_rule):
        delta = BatchUpdate().insert("b", "a", "knows")
        updated = apply_update(triangle_graph, delta)
        pivots = find_update_pivots(knows_rule, delta, triangle_graph, updated)
        matcher = IncrementalMatcher(knows_rule, triangle_graph, updated)
        found = [match for pivot in pivots for match in matcher.violations_for_pivot(pivot)]
        # b knows a with 20 >= 10: satisfied, so no new violation
        assert found == []

    def test_deletion_pivot_reports_removed_violation(self, triangle_graph, knows_rule):
        delta = BatchUpdate().delete("a", "b", "knows")
        updated = apply_update(triangle_graph, delta)
        pivots = find_update_pivots(knows_rule, delta, triangle_graph, updated)
        matcher = IncrementalMatcher(knows_rule, triangle_graph, updated)
        found = [match for pivot in pivots for match in matcher.violations_for_pivot(pivot)]
        assert found == [{"x": "a", "y": "b"}]
