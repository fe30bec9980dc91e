"""Tests for the detection algorithms: Dect, IncDect and their agreement with ground truth."""

from __future__ import annotations

import pytest

from repro.core.builtin_rules import phi4
from repro.core.ngd import NGD, RuleSet
from repro.core.validation import find_violations
from repro.core.violations import ViolationDelta
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import Detector
from repro.graph.generators import random_labeled_graph
from repro.graph.neighborhood import update_neighborhood
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, NodePayload, UpdateGenerator, apply_update

import naive_reference


def as_pairs(violations) -> set[tuple]:
    return {(violation.rule, violation.nodes) for violation in violations}


@pytest.fixture(scope="module")
def kb_graph():
    config = KBConfig(
        name="kb-test",
        num_entities=120,
        num_entity_types=4,
        num_value_relations=4,
        num_link_relations=3,
        values_per_entity=3,
        links_per_entity=1.5,
        error_rate=0.1,
        seed=5,
    )
    return knowledge_graph(config)


@pytest.fixture(scope="module")
def kb_rules(kb_graph):
    return benchmark_rules(kb_graph, count=10, max_diameter=4, seed=1)


class TestDect:
    def test_matches_reference_validation(self, kb_graph, kb_rules):
        result = Detector(kb_rules, engine="batch").run(kb_graph)
        assert result.violations == find_violations(kb_graph, kb_rules)
        assert result.cost > 0
        assert result.algorithm == "Dect"

    def test_planted_errors_are_found(self, kb_graph, kb_rules):
        result = Detector(kb_rules, engine="batch").run(kb_graph)
        assert result.violation_count() > 0

    def test_figure1_detection(self, g4):
        result = Detector(RuleSet([phi4()]), engine="batch").run(g4)
        assert result.violation_count() == 1

    @pytest.mark.parametrize("algorithm", ["Dect", "IncDect"])
    def test_literal_pruning_does_not_change_answers(self, kb_graph, kb_rules, algorithm):
        # the pruned search finds exactly Vio(Σ, G) by the paper's definitions
        before = naive_reference.violations(kb_graph, kb_rules)
        if algorithm == "Dect":
            result = Detector(kb_rules, engine="batch").run(kb_graph)
            assert as_pairs(result.violations) == before and before
        else:
            delta = UpdateGenerator(seed=2).generate(kb_graph, 120)
            after = naive_reference.violations(apply_update(kb_graph, delta), kb_rules)
            result = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, delta)
            assert as_pairs(result.introduced()) == after - before
            assert as_pairs(result.removed()) == before - after
            assert result.total_changes() > 0

    def test_single_node_pattern_rules(self, triangle_graph):
        pattern = Pattern("single", nodes=[("x", "person")])
        rule = NGD.from_text(pattern, "", "x.val < 15", name="small_val")
        result = Detector(RuleSet([rule]), engine="batch").run(triangle_graph)
        assert result.violation_count() == 1  # node b has val 20


class TestIncDectCorrectness:
    def _ground_truth(self, graph, rules, delta):
        before = find_violations(graph, rules)
        after = find_violations(apply_update(graph, delta), rules)
        return ViolationDelta.from_sets(before, after)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("insert_ratio", [0.0, 0.5, 1.0])
    def test_agrees_with_recomputation_on_kb(self, kb_graph, kb_rules, seed, insert_ratio):
        delta = UpdateGenerator(seed=seed).generate(kb_graph, 60, insert_ratio=insert_ratio)
        expected = self._ground_truth(kb_graph, kb_rules, delta)
        result = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, delta)
        assert result.delta == expected

    def test_agrees_on_random_graph(self):
        graph = random_labeled_graph(150, 450, num_labels=6, num_edge_labels=4, seed=9)
        pattern = Pattern(
            "p", nodes=[("a", "L0"), ("b", "L1")], edges=[("a", "b", "e0")]
        )
        rules = RuleSet([NGD.from_text(pattern, "", "a.val <= b.val", name="order")])
        delta = UpdateGenerator(seed=3).generate(graph, 120, insert_ratio=0.5)
        expected = self._ground_truth(graph, rules, delta)
        result = Detector(rules, engine="incremental").run_incremental(graph, delta)
        assert result.delta == expected

    def test_empty_update_produces_empty_delta(self, kb_graph, kb_rules):
        result = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, BatchUpdate())
        assert result.delta.is_empty()

    def test_insertion_introduces_violation(self, triangle_graph, knows_rule):
        # b knows c would violate val_order (20 >= 5 holds) — pick an order that fails instead
        delta = BatchUpdate().insert("c", "a", "knows", )
        graph = triangle_graph
        graph.add_node  # no-op, keep fixture as is
        expected = self._ground_truth(graph, RuleSet([knows_rule]), delta)
        result = Detector(RuleSet([knows_rule]), engine="incremental").run_incremental(graph, delta)
        assert result.delta == expected

    def test_deletion_removes_violation(self, triangle_graph, knows_rule):
        delta = BatchUpdate().delete("a", "b", "knows")
        detector = Detector(RuleSet([knows_rule]), engine="incremental")
        result = detector.run_incremental(triangle_graph, delta)
        assert len(result.removed()) == 1
        assert len(result.introduced()) == 0

    def test_mixed_update_on_figure1_g4(self, g4):
        rules = RuleSet([phi4()])
        # delete the real account's status edge and add a second fake-ish account
        delta = BatchUpdate()
        delta.delete("NatWest Help", "NatWest Help/status", "status")
        delta.insert("acct2", "NatWest", "keys", source_payload=NodePayload("account"))
        delta.insert("acct2", "acct2/status", "status", target_payload=NodePayload("boolean", {"val": 1}))
        delta.insert("acct2", "acct2/following", "following", target_payload=NodePayload("integer", {"val": 2}))
        delta.insert("acct2", "acct2/follower", "follower", target_payload=NodePayload("integer", {"val": 1}))
        expected = self._ground_truth(g4, rules, delta)
        result = Detector(rules, engine="incremental").run_incremental(g4, delta)
        assert result.delta == expected
        # deleting the real account's status removes the only violation (Example 6)
        assert len(result.removed()) == 1

    def test_neighborhood_size_is_that_of_the_update_neighborhood(self, kb_graph, kb_rules):
        # G_dΣ(ΔG) taken in G ⊕ ΔG, the region the localizability bound is
        # stated in; the search itself never extracts it
        delta = UpdateGenerator(seed=11).generate(kb_graph, 40, insert_ratio=0.5)
        result = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, delta)
        region = update_neighborhood(apply_update(kb_graph, delta), delta, max(kb_rules.diameter(), 1))
        assert result.neighborhood_size == region.node_count() > 0
        assert result.delta == self._ground_truth(kb_graph, kb_rules, delta)

    def test_graph_after_parameter_is_honoured(self, kb_graph, kb_rules):
        delta = UpdateGenerator(seed=13).generate(kb_graph, 30, insert_ratio=0.5)
        updated = apply_update(kb_graph, delta)
        given = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, delta, graph_after=updated)
        assert given.delta == Detector(kb_rules, engine="incremental").run_incremental(kb_graph, delta).delta


class TestIncDectCostBehaviour:
    def test_cost_grows_with_update_size(self, kb_graph, kb_rules):
        small = UpdateGenerator(seed=2).generate(kb_graph, 10)
        large = UpdateGenerator(seed=2).generate(kb_graph, 150)
        small_cost = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, small).cost
        assert small_cost <= Detector(kb_rules, engine="incremental").run_incremental(kb_graph, large).cost

    def test_incremental_cheaper_than_batch_for_small_updates(self, kb_graph, kb_rules):
        delta = UpdateGenerator(seed=2).generate(kb_graph, max(1, kb_graph.edge_count() // 20))
        incremental = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, delta)
        assert incremental.cost < Detector(kb_rules, engine="batch").run(kb_graph).cost

    def test_batch_cost_independent_of_updates(self, kb_graph, kb_rules):
        first = Detector(kb_rules, engine="batch").run(kb_graph)
        assert first.cost == Detector(kb_rules, engine="batch").run(kb_graph).cost
