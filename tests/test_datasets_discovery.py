"""Tests for the datasets (Figure 1, KB analogues, synthetic) and the rule miner."""

from __future__ import annotations

import pytest

from repro.core.validation import find_violations, graph_satisfies
from repro.datasets.figure1 import figure1_graphs
from repro.datasets.kb import DBPEDIA_CONFIG, KBConfig, dbpedia_like, knowledge_graph, pokec_like, yago_like
from repro.datasets.rules import benchmark_rules, graph_schema, rules_with_diameter
from repro.datasets.synthetic import synthetic_graph
from repro.discovery import DiscoveryConfig, discover_ngds, mine_frequent_patterns
from repro.errors import DiscoveryError
from repro.graph.generators import chain_graph
from repro.matching.plan import GraphStatistics


class TestFigure1:
    def test_all_four_graphs_present(self):
        graphs = figure1_graphs()
        assert set(graphs) == {"G1", "G2", "G3", "G4"}
        for graph in graphs.values():
            graph.validate_consistency()

    def test_g2_population_numbers_match_paper(self, g2):
        assert g2.node("female").attribute("val") == 600
        assert g2.node("male").attribute("val") == 722
        assert g2.node("total").attribute("val") == 1572

    def test_g3_ranks_match_paper(self, g3):
        assert g3.node("Corona_rank").attribute("val") == 33
        assert g3.node("Downey_rank").attribute("val") == 11

    def test_each_graph_violates_its_rule(self, figure1_rules):
        graphs = figure1_graphs()
        expected = {"G1": "phi1", "G2": "phi2", "G3": "phi3", "G4": "phi4"}
        for name, graph in graphs.items():
            violations = find_violations(graph, figure1_rules)
            assert violations.rules_violated() == {expected[name]}


class TestKnowledgeGraphs:
    def test_sizes_follow_configuration(self):
        config = KBConfig("t", 50, 5, 4, 3, 3, 1.0, seed=1)
        graph = knowledge_graph(config)
        # one node per entity plus one per numeric fact
        assert graph.node_count() == 50 * (1 + 3)
        assert graph.edge_count() >= 50 * 3

    def test_determinism(self):
        config = KBConfig("t", 40, 4, 4, 3, 3, 1.0, seed=2)
        assert knowledge_graph(config) == knowledge_graph(config)

    def test_error_rate_controls_planted_violations(self):
        clean_cfg = KBConfig("clean", 200, 4, 4, 3, 3, 0.5, error_rate=0.0, seed=3)
        dirty_cfg = KBConfig("dirty", 200, 4, 4, 3, 3, 0.5, error_rate=0.2, seed=3)
        clean, dirty = knowledge_graph(clean_cfg), knowledge_graph(dirty_cfg)
        rules_clean = benchmark_rules(clean, count=8, max_diameter=2)
        rules_dirty = benchmark_rules(dirty, count=8, max_diameter=2)
        assert len(find_violations(clean, rules_clean)) == 0
        assert len(find_violations(dirty, rules_dirty)) > 0

    def test_hub_links_create_skewed_degrees(self):
        graph = knowledge_graph(
            KBConfig("hubby", 300, 4, 4, 3, 3, 2.0, seed=4, hub_link_fraction=0.5, num_hubs=2)
        )
        degrees = sorted((graph.degree(node) for node in graph.node_ids()), reverse=True)
        assert degrees[0] > 10 * (sum(degrees) / len(degrees))

    def test_named_builders_scale(self):
        small = dbpedia_like(scale=0.1)
        base = dbpedia_like(scale=0.2)
        assert small.node_count() < base.node_count()
        assert yago_like(scale=0.1).node_count() > 0
        assert pokec_like(scale=0.1).node_count() > 0

    def test_relative_sizes_mirror_paper(self):
        dbpedia, yago, pokec = dbpedia_like(scale=0.3), yago_like(scale=0.3), pokec_like(scale=0.3)
        assert dbpedia.node_count() > yago.node_count() > pokec.node_count()
        # Pokec is the densest in entity-entity links
        assert pokec.average_degree() > dbpedia.average_degree()

    def test_synthetic_graph_size_knobs(self):
        graph = synthetic_graph(num_nodes=600, num_edges=900, seed=2)
        assert abs(graph.node_count() - 600) < 120
        assert graph.edge_count() > 500


class TestBenchmarkRules:
    def test_schema_introspection(self):
        graph = dbpedia_like(scale=0.1)
        schema = graph_schema(graph)
        assert schema["entity_types"]
        assert schema["value_relations"]
        assert schema["link_relations"]

    def test_requested_count_and_diameter(self):
        graph = dbpedia_like(scale=0.1)
        rules = benchmark_rules(graph, count=30, max_diameter=4)
        assert len(rules) == 30
        assert rules.diameter() <= 4
        assert len({rule.name for rule in rules}) == 30  # unique names

    def test_rules_have_matches_in_their_graph(self):
        graph = dbpedia_like(scale=0.1)
        rules = benchmark_rules(graph, count=6, max_diameter=2)
        from repro.matching.matchn import HomomorphismMatcher

        for rule in rules:
            assert next(iter(HomomorphismMatcher(graph, rule.pattern).matches()), None) is not None

    def test_rules_with_exact_diameter(self):
        graph = dbpedia_like(scale=0.1)
        for diameter in (2, 3, 4, 5, 6):
            rules = rules_with_diameter(graph, diameter, count=10)
            assert rules.diameter() == diameter

    def test_unachievable_diameter_raises(self):
        graph = dbpedia_like(scale=0.1)
        with pytest.raises(ValueError):
            rules_with_diameter(graph, 17, count=5)


class TestDiscovery:
    @pytest.fixture(scope="class")
    def mined(self):
        graph = knowledge_graph(KBConfig("mine", 120, 3, 3, 2, 3, 1.0, error_rate=0.05, seed=6))
        config = DiscoveryConfig(max_pattern_edges=2, max_rules=12, min_support=5, min_confidence=0.9, seed=1)
        return graph, discover_ngds(graph, config)

    def test_discovers_some_rules(self, mined):
        _, rules = mined
        assert len(rules) > 0

    def test_discovered_rules_are_linear_ngds(self, mined):
        _, rules = mined
        assert rules.is_linear()

    def test_discovered_rules_mostly_hold_on_source_graph(self, mined):
        graph, rules = mined
        violations = find_violations(graph, rules)
        from repro.matching.matchn import HomomorphismMatcher

        total_matches = 0
        for rule in rules:
            total_matches += sum(1 for _ in HomomorphismMatcher(graph, rule.pattern).matches())
        # high-confidence rules: violations are a small fraction of all matches
        assert len(violations) <= 0.2 * max(total_matches, 1)

    def test_frequent_patterns_meet_support(self):
        graph = knowledge_graph(KBConfig("sup", 80, 2, 3, 2, 3, 1.0, seed=7))
        config = DiscoveryConfig(max_pattern_edges=2, min_support=10)
        patterns = mine_frequent_patterns(graph, config)
        assert patterns
        from repro.matching.matchn import HomomorphismMatcher

        for pattern in patterns[:5]:
            count = sum(1 for _ in HomomorphismMatcher(graph, pattern).matches())
            assert count >= 10

    def test_unminable_graph_raises(self):
        with pytest.raises(DiscoveryError):
            mine_frequent_patterns(chain_graph(3), DiscoveryConfig(min_support=100))

    def test_one_statistics_pass_serves_every_pattern(self, monkeypatch):
        passes = []
        real = GraphStatistics.from_graph.__func__
        monkeypatch.setattr(
            GraphStatistics, "from_graph", classmethod(lambda cls, graph: passes.append(graph) or real(cls, graph))
        )
        graph = knowledge_graph(KBConfig("sup", 80, 2, 3, 2, 3, 1.0, seed=7))
        config = DiscoveryConfig(max_pattern_edges=2, max_rules=6, min_support=10, seed=1)
        assert len(mine_frequent_patterns(graph, config)) > 1
        assert passes == [graph]
        assert len(discover_ngds(graph, config)) > 0
        assert passes == [graph, graph]
