"""End-to-end integration tests crossing module boundaries.

Each test exercises a realistic pipeline: build or load a graph, mine or
declare rules, detect violations (batch / incremental / parallel), and check
the pieces agree with each other.
"""

from __future__ import annotations

import pytest

from repro.core.implication import minimal_cover
from repro.core.ngd import RuleSet
from repro.core.satisfiability import is_satisfiable
from repro.core.validation import find_violations
from repro.core.violations import ViolationDelta
from repro.core.builtin_rules import example_rules
from repro.datasets.figure1 import figure1_graphs
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import BalancingPolicy, DetectionOptions, Detector
from repro.discovery import DiscoveryConfig, discover_ngds
from repro.graph.io import load_graph, load_update, save_graph, save_update
from repro.graph.updates import UpdateGenerator, apply_update


@pytest.fixture(scope="module")
def pipeline_graph():
    config = KBConfig(
        name="pipeline",
        num_entities=160,
        num_entity_types=5,
        num_value_relations=4,
        num_link_relations=3,
        values_per_entity=3,
        links_per_entity=1.5,
        error_rate=0.08,
        seed=42,
        hub_link_fraction=0.3,
        num_hubs=2,
    )
    return knowledge_graph(config)


class TestFullPipeline:
    def test_batch_incremental_parallel_agree(self, pipeline_graph):
        rules = benchmark_rules(pipeline_graph, count=12, max_diameter=4, seed=3)
        delta = UpdateGenerator(seed=99).generate(pipeline_graph, 100, insert_ratio=0.5)
        updated = apply_update(pipeline_graph, delta)

        batch_before = Detector(rules, engine="batch").run(pipeline_graph)
        batch_after = Detector(rules, engine="batch").run(updated)
        expected_delta = ViolationDelta.from_sets(batch_before.violations, batch_after.violations)

        inc_dect = Detector(rules, engine="incremental")
        incremental = inc_dect.run_incremental(pipeline_graph, delta, graph_after=updated)
        pinc_dect = Detector(rules, engine="parallel", processors=6)
        parallel = pinc_dect.run_incremental(pipeline_graph, delta, graph_after=updated)
        parallel_batch = Detector(rules, engine="parallel", processors=6).run(updated)

        assert incremental.delta == expected_delta
        assert parallel.delta == expected_delta
        assert parallel_batch.violations == batch_after.violations
        # applying the delta to the old violation set reconstructs the new one
        patched = batch_before.violations.apply_delta(incremental.delta)
        assert patched == batch_after.violations

    def test_discovered_rules_flow_into_detection(self, pipeline_graph):
        mined = discover_ngds(
            pipeline_graph,
            DiscoveryConfig(max_pattern_edges=2, max_rules=8, min_support=5, min_confidence=0.9, seed=2),
        )
        assert len(mined) > 0
        assert is_satisfiable(RuleSet([mined[0]]))
        result = Detector(mined, engine="batch").run(pipeline_graph)
        assert result.violations == find_violations(pipeline_graph, mined)

    def test_minimal_cover_preserves_violations(self, pipeline_graph):
        rules = benchmark_rules(pipeline_graph, count=8, max_diameter=2, seed=5)
        # duplicate rule names differ but several templates repeat → cover should not grow
        cover = minimal_cover(rules)
        assert len(cover) <= len(rules)
        assert find_violations(pipeline_graph, cover).nodes_involved() <= find_violations(
            pipeline_graph, rules
        ).nodes_involved()

    def test_round_trip_through_files(self, pipeline_graph, tmp_path):
        rules = benchmark_rules(pipeline_graph, count=6, max_diameter=2, seed=7)
        delta = UpdateGenerator(seed=1).generate(pipeline_graph, 40)
        graph_path, update_path = tmp_path / "g.json", tmp_path / "d.json"
        save_graph(pipeline_graph, graph_path)
        save_update(delta, update_path)
        reloaded_graph = load_graph(graph_path)
        reloaded_delta = load_update(update_path)
        reloaded = Detector(rules, engine="incremental").run_incremental(reloaded_graph, reloaded_delta)
        assert reloaded.delta == Detector(rules, engine="incremental").run_incremental(pipeline_graph, delta).delta

    def test_figure1_graphs_full_workflow(self):
        rules = example_rules()
        for name, graph in figure1_graphs().items():
            result = Detector(rules, engine="batch").run(graph)
            assert result.violation_count() == 1, name

    def test_balancing_variants_agree_under_skewed_workload(self, pipeline_graph):
        rules = benchmark_rules(pipeline_graph, count=10, max_diameter=4, seed=13)
        delta = UpdateGenerator(seed=77).generate(pipeline_graph, 120, insert_ratio=0.6)
        reference = Detector(rules, engine="incremental").run_incremental(pipeline_graph, delta)
        for policy in (
            BalancingPolicy.hybrid(),
            BalancingPolicy.no_splitting(),
            BalancingPolicy.no_rebalancing(),
            BalancingPolicy.none(),
        ):
            options = DetectionOptions(policy=policy)
            result = Detector(rules, engine="parallel", processors=5, options=options).run_incremental(pipeline_graph, delta)
            assert result.delta == reference.delta
