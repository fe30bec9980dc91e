"""Tests for the sharded read-only graph images (`repro.graph.sharded`).

The sharding contract the process executor relies on: every node has an
owner, each shard image contains its fragment's dΣ-halo (so connected-
pattern search seeded at an owned node is exact), spooled images
round-trip and memo-load per process, and rule sets with disconnected
patterns are refused localized matching.
"""

from __future__ import annotations

import json

import pytest

from repro.core.builtin_rules import example_rules
from repro.core.ngd import NGD
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.errors import GraphError, PartitionError
from repro.graph.graph import Graph
from repro.graph.neighborhood import multi_source_nodes_within_hops
from repro.graph.pattern import Pattern
from repro.graph.sharded import (
    ShardedStore,
    clear_spool_cache,
    load_spooled,
    supports_localized_matching,
)


@pytest.fixture(scope="module")
def kb():
    config = KBConfig(
        name="kb-sharded",
        num_entities=80,
        num_entity_types=4,
        num_value_relations=3,
        num_link_relations=3,
        values_per_entity=2,
        links_per_entity=2.0,
        error_rate=0.05,
        seed=13,
    )
    return knowledge_graph(config)


class TestBuild:
    def test_every_node_has_an_owner(self, kb):
        shards = ShardedStore.build(kb, num_shards=4, halo_hops=2)
        assert shards.num_shards == 4
        owners = {shards.owner(node_id) for node_id in kb.node_ids()}
        assert owners <= set(range(4))

    def test_unknown_node_raises(self, kb):
        shards = ShardedStore.build(kb, num_shards=2, halo_hops=1)
        with pytest.raises(PartitionError):
            shards.owner("no-such-node")

    def test_shard_contains_fragment_halo(self, kb):
        halo_hops = 2
        shards = ShardedStore.build(kb, num_shards=3, halo_hops=halo_hops)
        for index in range(3):
            owned = [n for n in kb.node_ids() if shards.owner(n) == index]
            image = shards.shard(index)
            expected = multi_source_nodes_within_hops(kb, owned, halo_hops) | set(owned)
            assert set(image.node_ids()) == expected
            # every edge between halo nodes is present (induced subgraph)
            for edge in kb.edges():
                if edge.source in expected and edge.target in expected:
                    assert image.has_edge(edge.source, edge.target, edge.label)

    def test_images_are_frozen_read_only(self, kb):
        shards = ShardedStore.build(kb, num_shards=2, halo_hops=1)
        image = shards.shard(0)
        assert image.store_backend == "frozen"
        with pytest.raises(GraphError):
            image.add_node("new", "label")

    def test_single_wraps_whole_graph(self, kb):
        store = ShardedStore.single(kb)
        assert store.num_shards == 1
        assert store.owner("anything-at-all") == 0
        assert store.shard(0).node_count() == kb.node_count()
        assert store.shard(0).edge_count() == kb.edge_count()

    def test_build_validates_arguments(self, kb):
        with pytest.raises(PartitionError):
            ShardedStore.build(kb, num_shards=0, halo_hops=1)
        with pytest.raises(PartitionError):
            ShardedStore.build(kb, num_shards=2, halo_hops=1, strategy="metis")

    def test_one_shard_collapses_to_single(self, kb):
        store = ShardedStore.build(kb, num_shards=1, halo_hops=3)
        assert store.strategy == "single"
        assert store.shard(0).node_count() == kb.node_count()


class TestSpool:
    def test_spool_and_load_round_trip(self, kb, tmp_path):
        shards = ShardedStore.build(kb, num_shards=3, halo_hops=2)
        manifest = shards.spool(tmp_path / "spool")
        with open(manifest, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["format"] == "repro-sharded-store"
        assert len(document["shards"]) == 3

        clear_spool_cache()
        reloaded = ShardedStore.load(manifest)
        assert reloaded.num_shards == 3
        assert reloaded.halo_hops == 2
        for index in range(3):
            original = shards.shard(index)
            loaded = reloaded.shard(index)
            assert set(map(str, original.node_ids())) == set(map(str, loaded.node_ids()))
            assert original.edge_count() == loaded.edge_count()

    def test_spool_is_idempotent(self, kb, tmp_path):
        shards = ShardedStore.build(kb, num_shards=2, halo_hops=1)
        first = shards.spool(tmp_path / "spool")
        second = shards.spool(tmp_path / "other")  # already spooled: keeps paths
        assert first == shards.manifest_path or second == shards.manifest_path

    def test_load_rejects_foreign_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(PartitionError):
            ShardedStore.load(path)

    def test_spooled_images_memoize_per_process(self, kb, tmp_path):
        shards = ShardedStore.build(kb, num_shards=2, halo_hops=1)
        shards.spool(tmp_path / "spool")
        clear_spool_cache()
        path = shards._paths[0]
        first = load_spooled(path)
        second = load_spooled(path)
        assert first is second
        assert first.store_backend == "frozen"

    def test_a_manifest_naming_the_removed_csr_engine_reloads(self, kb, tmp_path):
        # images are graph/io JSON whatever engine the manifest names
        directory = tmp_path / "spool"
        shards = ShardedStore.build(kb, num_shards=2, halo_hops=1)
        manifest = shards.spool(directory)
        with open(manifest, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["backend"] = "csr"
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        clear_spool_cache()
        reloaded = ShardedStore.load(manifest)
        adopted = ShardedStore.build(kb, num_shards=2, halo_hops=1)
        assert adopted.spool(directory) == manifest
        for index in range(2):
            image = reloaded.shard(index)
            assert image.store_backend == "frozen"
            assert set(map(str, image.node_ids())) == set(map(str, shards.shard(index).node_ids()))
            assert image.edge_count() == shards.shard(index).edge_count()


class TestLocalizedMatchingSupport:
    def test_connected_rules_are_supported(self):
        assert supports_localized_matching(example_rules())

    def test_disconnected_pattern_is_refused(self):
        pattern = Pattern.from_edges(
            "disconnected",
            nodes=[("x", "person"), ("y", "person"), ("z", "city"), ("w", "city")],
            edges=[("x", "y", "knows"), ("z", "w", "near")],
        )
        rule = NGD.from_text(pattern, "", "x.val >= z.val", name="disc")
        assert not supports_localized_matching([rule])
        assert not supports_localized_matching(list(example_rules()) + [rule])


class TestEmptyAndSmall:
    def test_empty_graph_single(self):
        graph = Graph("empty")
        store = ShardedStore.single(graph)
        assert store.shard(0).node_count() == 0

    def test_halo_zero_keeps_fragments_disjoint_plus_borders(self, kb):
        shards = ShardedStore.build(kb, num_shards=2, halo_hops=0)
        total_owned = sum(
            1 for n in kb.node_ids() if shards.owner(n) in (0, 1)
        )
        assert total_owned == kb.node_count()
