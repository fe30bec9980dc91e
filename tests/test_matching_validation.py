"""Unit tests for homomorphism matching, candidate pruning, and batch validation."""

from __future__ import annotations

import importlib
import pickle

import pytest

from repro import obs
from repro.core.ngd import NGD, RuleSet
from repro.core.validation import find_violations, graph_satisfies, satisfies_rule, violations_of_rule
from repro.datasets.kb import yago_like
from repro.datasets.rules import benchmark_rules
from repro.detect.incdect import iter_inc_dect
from repro.detect.observers import drain
from repro.detect.parallel.workunits import WorkUnit, expand_work_unit, first_step_seeds
from repro.detect.session import Detector
from repro.expr.parser import parse_literal_set
from repro.graph.generators import random_labeled_graph, star_graph
from repro.graph.graph import WILDCARD, Graph
from repro.graph.pattern import Pattern
from repro.matching.candidates import REJECT_COUNT_PREFIX, MatchStatistics
from repro.matching.incmatch import find_update_pivots
from repro.matching.matchn import HomomorphismMatcher, assignment_for_match
from repro.matching.plan import GraphStatistics, compile_plan, compile_plans, first_step_candidates
from repro.matching.search import RuleSearch
from repro.graph.store import GraphStore, IndexedStore
from repro.graph.updates import BatchUpdate, UpdateGenerator, apply_update

import naive_reference


def _seed_candidates(graph, pattern, premise="", stats=None):
    """The ids of the candidates of a plan's first step, which scans the label index for ``x``."""
    plan = compile_plan(graph, NGD.from_text(pattern, premise, "", name="seeds"))
    assert plan.order[0] == "x"
    stats = stats if stats is not None else MatchStatistics()
    return [node.id for node in first_step_candidates(graph, plan.rule, plan, plan.order, True, stats)[0]]


class TestCandidates:
    def test_label_filtering(self, triangle_graph, knows_pattern):
        candidates = _seed_candidates(triangle_graph, knows_pattern)
        assert set(candidates) == {"a"}  # only 'a' has an outgoing "knows" edge

    def test_wildcard_candidates(self, triangle_graph):
        pattern = Pattern("p", nodes=[("x", WILDCARD)], edges=[])
        assert len(_seed_candidates(triangle_graph, pattern)) == 3

    def test_unary_premise_pruning(self, triangle_graph, knows_pattern):
        assert _seed_candidates(triangle_graph, knows_pattern, "x.val > 100") == []

    def test_unary_premise_missing_attribute_prunes(self, triangle_graph, knows_pattern):
        assert _seed_candidates(triangle_graph, knows_pattern, "x.population > 0") == []

    def test_each_rejection_is_counted_by_its_reason(self, triangle_graph, knows_pattern):
        def rejected(stats):
            return {key.rsplit("\x1f", 1)[1]: n for key, n in stats.extra.items() if key.startswith(REJECT_COUNT_PREFIX)}

        # the scan of x: b has no outgoing "knows" edge, a fails the unary literal
        stats = MatchStatistics()
        assert _seed_candidates(triangle_graph, knows_pattern, "x.val > 15", stats=stats) == []
        assert stats.candidates_examined == 2 and rejected(stats) == {"edge": 1, "unary": 1}
        # the anchored step of y: a's one lives_in neighbour is a city
        pattern = Pattern("p", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "lives_in")])
        plan = compile_plan(triangle_graph, NGD.from_text(pattern, "", "", name="p"))
        stats = MatchStatistics()
        search = RuleSearch(plan, stats)
        search.start(triangle_graph, plan.order_for_seed(("x",)), ("a",))
        assert search.step() == [] and (search.filtering, search.verification) == (1, 0)
        assert rejected(stats) == {"label": 1}

    def test_a_step_keeps_what_it_examined_less_what_it_rejected(self):
        # every step of a KB detection: examined − rejected (the flushed
        # counters) = kept, that is the seeds a scan hands the search and
        # the candidates each later step verified, as stepping every work
        # unit of the same plans one at a time counts them
        graph = yago_like(scale=0.3)
        rules = benchmark_rules(graph, count=12, max_diameter=3, seed=2)
        kept: dict = {}

        def count(plan, variable, verified):
            key = (plan.rule.name, variable)
            kept[key] = kept.get(key, 0) + verified

        for index, plan in enumerate(compile_plans(graph, rules)):
            if not plan.order:
                continue
            seeds, _ = first_step_seeds(graph, plan, MatchStatistics())
            count(plan, plan.order[0], len(seeds))
            units = [WorkUnit(index, plan.order, ((plan.order[0], node.id),)) for node in seeds]
            while units:
                unit = units.pop()
                outcome = expand_work_unit(graph, unit, MatchStatistics(), plan)
                if unit.depth() < len(plan.order):  # not a seed that bound every variable
                    count(plan, plan.order[unit.depth()], outcome.verification_adjacency)
                units += outcome.new_units
        obs.configure()
        try:
            Detector(rules, engine="batch").run(graph)
            counters = obs.metrics().snapshot()["counters"]
        finally:
            obs.configure()
        left: dict = {}
        reasons = set()
        for name, labels, value in counters:
            labels = dict(labels)
            key = (labels.get("rule"), labels.get("step"))
            if name == "repro_match_candidates_examined":
                left[key] = left.get(key, 0) + value
            elif name == "repro_match_candidates_rejected_total":
                left[key] = left.get(key, 0) - value
                reasons.add(labels["reason"])
        assert reasons == {"label", "unary", "edge"}
        assert {key: value for key, value in left.items() if value} == {key: n for key, n in kept.items() if n}

    def test_statistics_accumulate(self, triangle_graph, knows_pattern):
        stats = MatchStatistics()
        _seed_candidates(triangle_graph, knows_pattern, stats=stats)
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
        pattern = Pattern(
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
        pattern = Pattern(
            "p", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "likes")]
        )
        assert list(HomomorphismMatcher(triangle_graph, pattern).matches()) == []

    def test_disconnected_pattern(self, triangle_graph):
        pattern = Pattern("p", nodes=[("x", "person"), ("y", "city")], edges=[])
        matches = list(HomomorphismMatcher(triangle_graph, pattern).matches())
        assert len(matches) == 2  # two persons × one city

    def test_wildcard_pattern_matches_all(self, triangle_graph):
        pattern = Pattern("p", nodes=[("x", WILDCARD)], edges=[])
        assert len(list(HomomorphismMatcher(triangle_graph, pattern).matches())) == 3

    def test_violations_generator(self, triangle_graph, knows_rule):
        violations = violations_of_rule(triangle_graph, knows_rule)
        assert [violation.mapping() for violation in violations] == [{"x": "a", "y": "b"}]

    def test_pruning_equivalence(self, triangle_graph):
        # the premise prunes during the search: what comes out is every naive match that satisfies it
        pattern = Pattern("p", nodes=[("x", "person"), ("y", WILDCARD)], edges=[("x", "y", "lives_in")])
        for premise in ("", "x.age < 28", "x.val >= y.val", "y.age > 0"):
            literals = parse_literal_set(premise)
            expected = sorted(
                sorted(h.items())
                for h in naive_reference.matches(triangle_graph, pattern)
                if naive_reference.satisfies(triangle_graph, h, literals)
            )
            pruned = HomomorphismMatcher(triangle_graph, pattern, literals).matches()
            assert sorted(sorted(match.items()) for match in pruned) == expected, premise

    def test_star_pattern_matches(self):
        graph = star_graph(4)
        pattern = Pattern(
            "p", nodes=[("h", "hub"), ("l", "leaf")], edges=[("h", "l", "link")]
        )
        assert len(list(HomomorphismMatcher(graph, pattern).matches())) == 4

    def test_assignment_for_match_skips_missing_attributes(self, triangle_graph):
        assignment = assignment_for_match(triangle_graph, {"x": "c"}, frozenset({("x", "age")}))
        assert assignment == {}

    def test_premise_pruning_filters_the_matches(self, triangle_graph):
        pattern = Pattern(
            "p", nodes=[("x", "person"), ("y", "city")], edges=[("x", "y", "lives_in")]
        )
        premise = parse_literal_set("x.val > 15")
        pruned = HomomorphismMatcher(triangle_graph, pattern, premise).matches()
        assert list(pruned) == [{"x": "b", "y": "c"}]
        # with no premise every match comes out
        unfiltered = HomomorphismMatcher(triangle_graph, pattern)
        assert sorted(match["x"] for match in unfiltered.matches()) == ["a", "b"]

    def test_matches_are_billed_to_the_callers_counters(self, triangle_graph):
        pattern = Pattern("p", nodes=[("x", "person"), ("y", WILDCARD)], edges=[])
        stats = MatchStatistics()
        matcher = HomomorphismMatcher(triangle_graph, pattern, stats=stats)
        assert matcher.stats is stats
        assert len(list(matcher.matches())) == 6 == stats.matches_emitted
        assert stats.candidates_examined > 0

    def test_statistics_need_no_edge_list(self, triangle_graph, knows_pattern, monkeypatch):
        # the store keeps the counts, so a snapshot (one per matcher) never walks E
        edge_pass = GraphStore.label_counts(triangle_graph.store)

        def refuse():
            raise AssertionError("the statistics walked the edge list")

        monkeypatch.setattr(triangle_graph.store, "edges", refuse)
        statistics = GraphStatistics.from_graph(triangle_graph)
        assert triangle_graph.store.label_counts() == edge_pass
        assert statistics.edge_label_counts == {"knows": 1, "lives_in": 2}
        assert statistics.source_pairs == {"person": {"knows": 1, "lives_in": 2}}
        assert statistics.target_pairs == {"person": {"knows": 1}, "city": {"lives_in": 2}}
        matcher = HomomorphismMatcher(triangle_graph, knows_pattern)
        assert matcher.plan.statistics == statistics
        assert list(matcher.matches()) == [{"x": "a", "y": "b"}]

    def test_seeded_search(self, triangle_graph):
        # the incremental kernels start the core on a bound prefix (a pivot);
        # the matcher's rule, X → false, keeps every binding it completes
        pattern = Pattern(
            "p", nodes=[("x", "person"), ("y", "city")], edges=[("x", "y", "lives_in")]
        )
        plan = HomomorphismMatcher(triangle_graph, pattern).plan
        order = plan.order_for_seed(("x",))
        search = RuleSearch(plan, MatchStatistics())

        def drained(seed):
            search.start(triangle_graph, order, seed)
            found = []
            while search.stack:
                found.extend(violation.mapping() for violation in search.step())
            return found

        assert drained(["a"]) == [{"x": "a", "y": "c"}]
        assert drained(["c"]) == []  # c has no lives_in edge to extend along

    def test_match_violates_dependency(self, triangle_graph, knows_rule):
        # X -> Y over a complete binding: proven where it is made, then the leaf of a seed that bound it
        plan = compile_plan(triangle_graph, knows_rule)
        schedule = plan.schedule_for(plan.order)
        stats = MatchStatistics()

        def ids(match):
            return [match[variable] for variable in plan.order]

        assert schedule.prove(triangle_graph.store, ids({"x": "a", "y": "b"}), stats)  # 10 >= 20 fails: nothing refuses it
        assert not schedule.prove(triangle_graph.store, ids({"x": "b", "y": "a"}), stats)  # 20 >= 10 holds: refused
        assert stats.literal_evaluations == 2
        search = RuleSearch(plan, stats)
        search.start(triangle_graph, plan.order, ids({"x": "a", "y": "b"}))
        assert [violation.mapping() for violation in search.step()] == [{"x": "a", "y": "b"}]
        assert stats.literal_evaluations == 2  # the proof checked Y: the leaf evaluates nothing again


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

    def test_find_violations_is_the_dect_kernel(self):
        graph = random_labeled_graph(40, 160, num_labels=2, num_edge_labels=2, seed=3)
        rules = _ordering_rules(graph)
        stats = MatchStatistics()
        found = find_violations(graph, rules, stats=stats)
        batch = Detector(rules, engine="batch").run(graph)
        assert found.to_json() == batch.violations.to_json() and len(found) > 0
        assert stats.total_operations() == batch.stats.total_operations()

    def test_graph_satisfies_stops_at_the_first_violation(self, monkeypatch):
        graph = random_labeled_graph(40, 160, num_labels=2, num_edge_labels=2, seed=3)
        rules = _ordering_rules(graph)
        assert len(find_violations(graph, rules)) > 1
        pulled = []
        dect_module = importlib.import_module("repro.detect.dect")
        real = dect_module.iter_dect

        def counting(*args, **kwargs):
            for violation in real(*args, **kwargs):
                pulled.append(violation)
                yield violation

        monkeypatch.setattr(dect_module, "iter_dect", counting)
        assert not graph_satisfies(graph, rules)
        assert len(pulled) == 1


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
                and rule.pattern.node(edge.source).label in (WILDCARD, reference.node(update.source).label)
                and rule.pattern.node(edge.target).label in (WILDCARD, reference.node(update.target).label)
            ):
                seed = (edge.source,) if edge.source == edge.target else (edge.source, edge.target)
                found.append((seed, update.source, update.target, update.is_insertion))
    return found


def _pivot_rules(graph: Graph, count: int) -> list[NGD]:
    """``count`` one- and two-edge rules over the graph's labels, wildcards and a self-loop included."""
    labels = sorted(graph.labels()) + [WILDCARD]
    edge_labels = sorted(graph.edge_labels())
    rules = []
    for index in range(count):
        first, second = edge_labels[index % len(edge_labels)], edge_labels[(index + 1) % len(edge_labels)]
        pattern = Pattern(
            f"q{index}",
            nodes=[("x", labels[index % len(labels)]), ("y", labels[(index + 2) % len(labels)]), ("z", WILDCARD)],
            edges=[("x", "y", first), ("y", "z", second)] + ([("z", "z", first)] if index % 3 == 0 else []),
        )
        rules.append(NGD.from_text(pattern, "", "x.val >= 0", name=f"r{index}"))
    return rules


def _ordering_rules(graph: Graph) -> list[NGD]:
    """The shapes of :func:`_pivot_rules` under a premise and a conclusion that about half the matches fail."""
    return [
        NGD.from_text(rule.pattern, "x.count > 500", "x.val <= y.val", name=rule.name)
        for rule in _pivot_rules(graph, 4)
    ]


class TestIncrementalMatching:
    @pytest.mark.parametrize("rule_count", [1, 12])
    def test_endpoints_are_resolved_once_per_delta_whatever_the_rule_count(self, rule_count):
        plain = random_labeled_graph(60, 240, num_labels=3, num_edge_labels=3, seed=5)
        delta = UpdateGenerator(seed=9).generate(plain, size=30)
        loop = next(iter(plain.node_ids()))
        delta.insert(loop, loop, sorted(plain.edge_labels())[0])
        before = plain.with_backend(_CountingStore())
        after = apply_update(plain.with_backend(_CountingStore()), delta)
        assert isinstance(after.store, _CountingStore)
        rules = _pivot_rules(plain, rule_count)
        _CountingStore.lookups = 0
        pivots = [find_update_pivots(rule, delta, before, after) for rule in rules]
        assert _CountingStore.lookups <= 2 * len(delta)
        for rule, found in zip(rules, pivots):
            assert [
                (p.variables, p.nodes[0], p.nodes[-1], p.from_insertion) for p in found
            ] == _pivots_by_pattern_scan(rule, delta, before, after)
        assert any(pivots) and any(len(p.nodes) == 1 for found in pivots for p in found)

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
        assert len(find_update_pivots(knows_rule, delta, triangle_graph, updated)) == 1
        result = drain(iter_inc_dect(triangle_graph, [knows_rule], delta, graph_after=updated))
        # b knows a with 20 >= 10: satisfied, so no new violation
        assert result.delta.total_changes() == 0

    def test_deletion_pivot_reports_removed_violation(self, triangle_graph, knows_rule):
        delta = BatchUpdate().delete("a", "b", "knows")
        updated = apply_update(triangle_graph, delta)
        result = drain(iter_inc_dect(triangle_graph, [knows_rule], delta, graph_after=updated))
        assert list(result.delta.introduced) == []
        assert [violation.mapping() for violation in result.delta.removed] == [{"x": "a", "y": "b"}]
