"""Unit tests for updates, neighbourhoods, generators and graph IO."""

from __future__ import annotations

import pytest

from repro.errors import GraphError, UpdateError
from repro.graph.generators import chain_graph, community_graph, power_law_graph, random_labeled_graph, star_graph
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_update,
    save_graph,
    save_update,
)
from repro.graph.neighborhood import (
    d_neighbor,
    multi_source_nodes_within_hops,
    nodes_within_hops,
    update_neighborhood,
)
from repro.graph.updates import BatchUpdate, EdgeDeletion, EdgeInsertion, NodePayload, UpdateGenerator, apply_update


class TestBatchUpdate:
    def test_builder_and_split(self):
        batch = BatchUpdate().insert("a", "b", "e").delete("c", "d", "e")
        assert len(batch) == 2
        assert len(batch.insertions) == 1
        assert len(batch.deletions) == 1
        assert batch.insertions[0].edge_key() == ("a", "b", "e")
        assert batch.deletions[0].edge_key() == ("c", "d", "e")

    def test_touched_nodes(self):
        batch = BatchUpdate().insert("a", "b", "e").delete("c", "d", "e")
        assert batch.touched_nodes() == frozenset({"a", "b", "c", "d"})

    def test_reversed_roundtrip(self, triangle_graph):
        batch = BatchUpdate().delete("a", "b", "knows")
        updated = apply_update(triangle_graph, batch)
        restored = apply_update(updated, batch.reversed())
        assert restored.has_edge("a", "b", "knows")

    def test_apply_insertion_creates_nodes_with_payload(self, triangle_graph):
        payload = NodePayload("company", {"val": 7})
        batch = BatchUpdate().insert("a", "acme", "works_at", target_payload=payload)
        updated = apply_update(triangle_graph, batch)
        assert updated.node("acme").label == "company"
        assert updated.node("acme").attribute("val") == 7
        assert not triangle_graph.has_node("acme")  # original untouched

    def test_apply_deletion_returns_the_updated_graph(self, triangle_graph):
        batch = BatchUpdate().delete("a", "b", "knows")
        result = apply_update(triangle_graph, batch)
        assert result is not triangle_graph
        assert not result.has_edge("a", "b", "knows")
        assert triangle_graph.has_edge("a", "b", "knows")  # original untouched

    def test_duplicate_insertion_rejected(self, triangle_graph):
        batch = BatchUpdate().insert("a", "b", "knows")
        with pytest.raises(UpdateError):
            apply_update(triangle_graph, batch)

    def test_missing_deletion_rejected(self, triangle_graph):
        batch = BatchUpdate().delete("a", "b", "likes")
        with pytest.raises(UpdateError):
            apply_update(triangle_graph, batch)


class TestUpdateGenerator:
    def test_generated_size_and_determinism(self):
        graph = random_labeled_graph(100, 300, num_labels=5, num_edge_labels=3, seed=1)
        first = UpdateGenerator(seed=4).generate(graph, 50, insert_ratio=0.5)
        second = UpdateGenerator(seed=4).generate(graph, 50, insert_ratio=0.5)
        assert len(first) == 50
        assert [u.edge_key() for u in first] == [u.edge_key() for u in second]

    def test_generated_update_applies_cleanly(self):
        graph = random_labeled_graph(80, 200, num_labels=5, num_edge_labels=3, seed=2)
        delta = UpdateGenerator(seed=9).generate(graph, 40, insert_ratio=0.4)
        updated = apply_update(graph, delta)
        updated.validate_consistency()

    def test_ratio_controls_mix(self):
        graph = random_labeled_graph(80, 200, num_labels=5, num_edge_labels=3, seed=2)
        all_deletes = UpdateGenerator(seed=3).generate(graph, 30, insert_ratio=0.0)
        assert len(all_deletes.insertions) == 0
        all_inserts = UpdateGenerator(seed=3).generate(graph, 30, insert_ratio=1.0)
        assert len(all_inserts.deletions) == 0

    def test_invalid_arguments(self):
        graph = random_labeled_graph(10, 10, seed=0)
        with pytest.raises(UpdateError):
            UpdateGenerator(seed=0).generate(graph, -1)
        with pytest.raises(UpdateError):
            UpdateGenerator(seed=0).generate(graph, 5, insert_ratio=1.5)


class TestNeighborhood:
    def test_nodes_within_hops(self):
        graph = chain_graph(6)
        assert nodes_within_hops(graph, "n0", 0) == frozenset({"n0"})
        assert nodes_within_hops(graph, "n0", 2) == frozenset({"n0", "n1", "n2"})
        assert nodes_within_hops(graph, "missing", 2) == frozenset()

    def test_d_neighbor_is_induced(self):
        graph = chain_graph(6)
        region = d_neighbor(graph, "n2", 1)
        assert set(region.node_ids()) == {"n1", "n2", "n3"}
        assert region.edge_count() == 2

    def test_multi_source_matches_union(self):
        graph = chain_graph(8)
        union = nodes_within_hops(graph, "n0", 2) | nodes_within_hops(graph, "n7", 2)
        assert multi_source_nodes_within_hops(graph, ["n0", "n7", "ghost"], 2) == union

    def test_update_neighborhood(self):
        graph = chain_graph(8)
        delta = BatchUpdate().delete("n3", "n4", "next")
        region = update_neighborhood(graph, delta, 1)
        assert set(region.node_ids()) == {"n2", "n3", "n4", "n5"}


class TestGenerators:
    def test_random_graph_size(self):
        graph = random_labeled_graph(200, 400, seed=1)
        assert graph.node_count() == 200
        assert graph.edge_count() == 400

    def test_random_graph_deterministic(self):
        a = random_labeled_graph(50, 100, seed=3)
        b = random_labeled_graph(50, 100, seed=3)
        assert a == b

    def test_random_graph_rejects_bad_arguments(self):
        with pytest.raises(GraphError):
            random_labeled_graph(-1, 5)
        with pytest.raises(GraphError):
            random_labeled_graph(1, 5)

    def test_power_law_graph_has_hubs(self):
        graph = power_law_graph(300, edges_per_node=3, seed=2)
        degrees = sorted((graph.degree(node) for node in graph.node_ids()), reverse=True)
        assert degrees[0] > 3 * (sum(degrees) / len(degrees))

    def test_star_and_chain(self):
        star = star_graph(5)
        assert star.degree("hub") == 5
        chain = chain_graph(4)
        assert chain.edge_count() == 3

    def test_community_graph_attributes(self):
        graph = community_graph(2, 10, seed=1)
        assert graph.node_count() == 20
        assert graph.node(0).attribute("community") == 0
        assert graph.node(19).attribute("community") == 1


class TestGraphIO:
    def test_dict_roundtrip(self, triangle_graph):
        document = graph_to_dict(triangle_graph)
        restored = graph_from_dict(document)
        assert restored == triangle_graph

    def test_json_file_roundtrip(self, triangle_graph, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(triangle_graph, path)
        assert load_graph(path) == triangle_graph

    def test_update_file_roundtrip(self, tmp_path):
        batch = BatchUpdate()
        batch.insert("a", "b", "e", target_payload=NodePayload("t", {"val": 3}))
        batch.delete("c", "d", "e")
        path = tmp_path / "delta.json"
        save_update(batch, path)
        restored = load_update(path)
        assert len(restored) == 2
        assert isinstance(list(restored)[0], EdgeInsertion)
        assert isinstance(list(restored)[1], EdgeDeletion)

    def test_graph_from_dict_requires_keys(self):
        with pytest.raises(GraphError):
            graph_from_dict({"nodes": []})
