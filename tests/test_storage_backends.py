"""Parity and regression tests for the graph storage engines.

The contract: every engine behind :class:`repro.graph.store.GraphStore` must
be observationally identical through the :class:`Graph` facade — same
violation sets from Dect and IncDect, same subgraphs, same index
consistency after arbitrary interleaved mutation — while the matcher's
enumeration order must be deterministic across interpreter runs (and hence
immune to string-hash randomization).  The shipped engines (``indexed``
and its sealed, read-only form ``frozen``) are checked against the flat
``dict`` oracle of ``tests/dict_store.py``; the suites take all three from
``tests/engines.py``.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.ngd import NGD
from repro.detect import Detector
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.errors import DuplicateNode, GraphError, NodeNotFound, UpdateError
from repro.graph.generators import random_labeled_graph
from repro.graph.graph import WILDCARD, Edge, Graph, Node
from repro.graph.io import graph_from_dict, graph_to_dict, load_graph, save_graph
from repro.graph.neighborhood import (
    d_neighbor_of_nodes,
    multi_source_nodes_within_hops,
    update_neighborhood,
)
from repro.graph.pattern import Pattern
from repro.graph.store import _INS, _OUTS, STORE_REGISTRY, FrozenStore, GraphStore, IndexedStore, make_store
from repro.graph.updates import BatchUpdate, UpdateGenerator, apply_update
from repro.matching.matchn import HomomorphismMatcher
from repro.matching.plan import GraphStatistics

from dict_store import DictStore
from engines import BACKENDS, ENGINES, MUTABLE_BACKENDS, new_store

_TESTS = str(Path(__file__).resolve().parent)
_SRC = str(Path(__file__).resolve().parent.parent / "src")


# ------------------------------------------------------------- store selection


class TestStoreSelection:
    def test_registry_contains_all_engines(self):
        assert set(STORE_REGISTRY) == {"indexed", "frozen"}
        assert "dict" not in STORE_REGISTRY, "the oracle is the tests' own, not an engine"

    def test_default_backend_is_indexed(self):
        assert type(make_store(None)) is IndexedStore
        assert Graph().store_backend == "indexed"

    def test_the_environment_does_not_pick_the_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE", "frozen")
        assert Graph().store_backend == "indexed"
        assert type(make_store(None)) is IndexedStore

    def test_the_package_ships_no_oracle_and_no_switch(self):
        import repro.graph
        import repro.graph.store

        for name in ("DictStore", "default_store_name"):
            assert name not in repro.graph.__all__
            assert not hasattr(repro.graph, name) and not hasattr(repro.graph.store, name)

    def test_every_store_brings_its_own_adjacency_reads(self):
        # one BFS level and the induced edges are each layout's own walk: the
        # base class has no slow fallback that a store could inherit unseen
        assert {"neighbours_of", "edges_between"} <= GraphStore.__abstractmethods__

    def test_store_instance_is_used_as_is(self):
        store = DictStore()
        graph = Graph(store=store)
        assert graph.store is store

    def test_unknown_backend_raises(self):
        with pytest.raises(GraphError):
            make_store("csr-not-yet")

    @pytest.mark.parametrize("name", ["dict", "persistent", "csr"])
    def test_a_deleted_engine_name_is_unknown(self, name):
        with pytest.raises(GraphError, match="registered backends"):
            make_store(name)
        with pytest.raises(GraphError, match=r"\['frozen', 'indexed'\]"):
            Graph(store=name)

    def test_copy_and_subgraphs_preserve_backend(self):
        source = Graph()
        source.add_node("a", "x")
        source.add_node("b", "x")
        source.add_edge("a", "b", "e")
        for backend in BACKENDS:
            graph = source.with_backend(new_store(backend))
            assert graph.copy().store_backend == backend
            assert graph.induced_subgraph(["a", "b"]).store_backend == backend

    def test_with_backend_converts_and_preserves_content(self):
        graph = Graph(store=DictStore())
        graph.add_node("a", "x", {"val": 1})
        graph.add_node("b", "y")
        graph.add_edge("a", "b", "e")
        converted = graph.with_backend("indexed")
        assert converted.store_backend == "indexed"
        assert converted == graph


# ----------------------------------------------------------------- parity suite


def _random_rules(seed: int) -> list[NGD]:
    """Two small NGDs over the random-graph schema of ``_mutated_pair``."""
    knows = Pattern(
        "knows", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "knows")]
    )
    chain = Pattern(
        "chain",
        nodes=[("x", "person"), ("y", "city"), ("z", WILDCARD)],
        edges=[("x", "y", "near"), ("y", "z", "likes")],
    )
    return [
        NGD.from_text(knows, "", "x.val >= y.val", name="val_order"),
        NGD.from_text(chain, "x.val > 0", "y.val + z.val > 0", name="chain_sum"),
    ]


def _mutated_pair(seed: int, operations: int = 220) -> tuple[Graph, Graph]:
    """Build two graphs (one per backend) through one interleaved op sequence.

    The sequence mixes node/edge insertion, edge removal, node removal, and
    attribute updates, exercising every index-maintenance path of both
    engines identically.
    """
    rng = random.Random(seed)
    graphs = (Graph("parity", store=DictStore()), Graph("parity", store="indexed"))
    labels = ["person", "city", "thing"]
    edge_labels = ["knows", "likes", "near"]
    next_id = 0
    for _ in range(operations):
        live = [node.id for node in graphs[0].nodes()]
        op = rng.random()
        if op < 0.45 or len(live) < 2:
            attrs = {"val": rng.randint(-40, 40)}
            label = rng.choice(labels)
            for graph in graphs:
                graph.add_node(f"n{next_id}", label, attrs)
            next_id += 1
        elif op < 0.75:
            source, target = rng.choice(live), rng.choice(live)
            label = rng.choice(edge_labels)
            if source != target:
                for graph in graphs:
                    graph.add_edge(source, target, label)
        elif op < 0.85:
            edges = list(graphs[0].edges())
            if edges:
                victim = rng.choice(edges)
                for graph in graphs:
                    graph.remove_edge(victim.source, victim.target, victim.label)
        elif op < 0.92:
            victim = rng.choice(live)
            for graph in graphs:
                graph.remove_node(victim)
        else:
            target = rng.choice(live)
            value = rng.randint(-40, 40)
            for graph in graphs:
                graph.set_attribute(target, "val", value)
    return graphs


@pytest.mark.parametrize("seed", range(6))
class TestBackendParity:
    def test_interleaved_mutations_keep_engines_identical(self, seed):
        dict_graph, indexed_graph = _mutated_pair(seed)
        dict_graph.validate_consistency()
        indexed_graph.validate_consistency()
        assert dict_graph == indexed_graph
        assert dict_graph.labels() == indexed_graph.labels()
        assert dict_graph.edge_labels() == indexed_graph.edge_labels()
        for node in dict_graph.nodes():
            assert dict_graph.successors(node.id) == indexed_graph.successors(node.id)
            assert dict_graph.predecessors(node.id) == indexed_graph.predecessors(node.id)
            assert dict_graph.neighbours(node.id) == indexed_graph.neighbours(node.id)
            assert dict_graph.degree(node.id) == indexed_graph.degree(node.id)
            for label in dict_graph.edge_labels():
                assert frozenset(dict_graph.successors_by_label(node.id, label)) == frozenset(
                    indexed_graph.successors_by_label(node.id, label)
                )

    def test_dect_violations_identical(self, seed):
        dict_graph, indexed_graph = _mutated_pair(seed)
        rules = _random_rules(seed)
        dict_result = frozenset(Detector(rules, engine="batch").run(dict_graph).violations)
        indexed_result = frozenset(Detector(rules, engine="batch").run(indexed_graph).violations)
        assert dict_result == indexed_result

    def test_inc_dect_deltas_identical(self, seed):
        dict_graph, indexed_graph = _mutated_pair(seed)
        if dict_graph.edge_count() == 0:
            pytest.skip("mutation sequence left no edges to update")
        rules = _random_rules(seed)
        generator = UpdateGenerator(seed=seed + 100)
        delta = generator.generate(dict_graph, size=max(1, dict_graph.edge_count() // 5))
        results = []
        for graph in (dict_graph, indexed_graph):
            outcome = Detector(rules, engine="incremental").run_incremental(graph, delta)
            results.append(
                (frozenset(outcome.introduced()), frozenset(outcome.removed()))
            )
        assert results[0] == results[1]

    def test_apply_update_keeps_consistency_on_both(self, seed):
        dict_graph, indexed_graph = _mutated_pair(seed)
        if dict_graph.edge_count() == 0:
            pytest.skip("mutation sequence left no edges to update")
        generator = UpdateGenerator(seed=seed + 31)
        delta = generator.generate(dict_graph, size=max(1, dict_graph.edge_count() // 4))
        updated_dict = apply_update(dict_graph, delta)
        updated_indexed = apply_update(indexed_graph, delta)
        updated_dict.validate_consistency()
        updated_indexed.validate_consistency()
        assert updated_dict == updated_indexed

    def test_frozen_image_of_the_history_reads_like_the_oracle(self, seed, tmp_path):
        # the read-only engine takes no interleaved writes: it is built from the
        # oracle's final state, removals' rank gaps included, by each of its builds
        dict_graph, _ = _mutated_pair(seed)
        save_graph(dict_graph, tmp_path / "history.json")
        for frozen_graph in (
            dict_graph.with_backend("frozen"),
            graph_from_dict(graph_to_dict(dict_graph), store="frozen"),
            load_graph(tmp_path / "history.json", store="frozen"),
        ):
            assert type(frozen_graph.store) is FrozenStore
            frozen_graph.validate_consistency()
            assert frozen_graph == dict_graph
            assert list(frozen_graph.node_ids()) == list(dict_graph.node_ids())
            assert [e.key() for e in frozen_graph.edges()] == [e.key() for e in dict_graph.edges()]
            for node in dict_graph.nodes():
                assert frozen_graph.successors(node.id) == dict_graph.successors(node.id)
                assert frozen_graph.predecessors(node.id) == dict_graph.predecessors(node.id)
                assert frozen_graph.degree(node.id) == dict_graph.degree(node.id)
                for label in dict_graph.edge_labels():
                    assert frozenset(frozen_graph.successors_by_label(node.id, label)) == frozenset(
                        dict_graph.successors_by_label(node.id, label)
                    )

    def test_frozen_dect_violations_identical(self, seed):
        dict_graph, _ = _mutated_pair(seed)
        rules = _random_rules(seed)
        expected = Detector(rules, engine="batch").run(dict_graph)
        got = Detector(rules, engine="batch").run(dict_graph.with_backend("frozen"))
        assert frozenset(got.violations) == frozenset(expected.violations)
        assert got.stats.total_operations() == expected.stats.total_operations()


# ------------------------------------------------------- deterministic ordering


_ORDER_SCRIPT = r"""
import sys
from engines import new_store
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.matching.matchn import HomomorphismMatcher
from repro.matching.plan import GraphStatistics

graph = Graph()
for index in range(40):
    graph.add_node(f"p{index}", "person", {"val": index})
for index in range(40):
    graph.add_edge(f"p{index}", f"p{(index * 7 + 3) % 40}", "knows")
    graph.add_edge(f"p{index}", f"p{(index * 11 + 5) % 40}", "knows")
graph = graph.with_backend(new_store(sys.argv[1]))
pattern = Pattern(
    "knows", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "knows")]
)
for match in HomomorphismMatcher(graph, pattern).matches():
    print(match["x"], match["y"])
"""


_COSTS_SCRIPT = r"""
import sys
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.graph.updates import BatchUpdate, UpdateGenerator, apply_update
from repro.detect import Detector
from engines import new_store

config = KBConfig(
    name="det", num_entities=120, num_entity_types=4, num_value_relations=3,
    num_link_relations=3, values_per_entity=3, links_per_entity=1.0, seed=5,
)
graph = knowledge_graph(config, store=new_store(sys.argv[1]))
rules = benchmark_rules(graph, count=6, max_diameter=3, seed=0)
delta = UpdateGenerator(seed=7).generate(graph, size=max(1, graph.edge_count() // 10))
updated = apply_update(graph, delta)
print("dect", Detector(rules, engine="batch").run(graph).cost)
print("pdect", Detector(rules, engine="parallel", processors=4).run(graph).cost)
print("inc", Detector(rules, engine="incremental").run_incremental(graph, delta, graph_after=updated).cost)
pinc_dect = Detector(rules, engine="parallel", processors=4)
print("pinc", pinc_dect.run_incremental(graph, delta, graph_after=updated).cost)
print("delta", [(u.is_insertion, str(u.source), str(u.target), u.label) for u in delta])

# induced-subgraph edge order must be hash-seed independent (edges_between
# walks insertion-ordered adjacency)
from repro.graph.neighborhood import d_neighbor_of_nodes

region = d_neighbor_of_nodes(graph, list(graph.node_ids())[:8], hops=2)
print("region_edges", [e.key() for e in region.edges()])
"""


class TestDeterministicEnumeration:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_match_order_stable_across_hash_seeds(self, backend, tmp_path):
        """Enumeration order must survive string-hash randomization.

        The old matcher sorted candidates with ``key=repr`` to paper over
        set-iteration nondeterminism; the store's insertion rank replaces
        that.  Running the same match in subprocesses with different
        ``PYTHONHASHSEED`` values is the only way to actually vary the hash
        seed, so that is what this regression test does.
        """
        script = tmp_path / "enumerate_matches.py"
        script.write_text(_ORDER_SCRIPT, encoding="utf-8")
        outputs = []
        for hash_seed in ("1", "2", "99"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join((_SRC, _TESTS)))
            result = subprocess.run(
                [sys.executable, str(script), backend],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].strip(), "matcher produced no matches"

    @pytest.mark.parametrize("backend", MUTABLE_BACKENDS)
    def test_detection_costs_stable_across_hash_seeds(self, backend, tmp_path):
        """Algorithm costs must be pure functions of (graph, rules, Δ, seed).

        Guards the fixed hash-order leaks: ``UpdateGenerator`` sampling labels
        from frozensets and embedding ``id(graph)`` in new-node ids, and
        the candidate scan returning label-index iteration order.
        """
        script = tmp_path / "costs.py"
        script.write_text(_COSTS_SCRIPT, encoding="utf-8")
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join((_SRC, _TESTS)))
            result = subprocess.run(
                [sys.executable, str(script), backend],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, f"costs varied with PYTHONHASHSEED: {outputs}"

    def test_match_order_is_insertion_order_ranked(self):
        graph = Graph()
        # insert in an order that disagrees with lexicographic order either way
        for node_id in ("mm", "zz", "aa"):
            graph.add_node(node_id, "person", {"val": 1})
        for source in ("mm", "zz", "aa"):
            for target in ("mm", "zz", "aa"):
                if source != target:
                    graph.add_edge(source, target, "knows")
        pattern = Pattern(
            "knows", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "knows")]
        )
        xs = list(dict.fromkeys(m["x"] for m in HomomorphismMatcher(graph, pattern).matches()))
        # x candidates are enumerated by insertion rank (the search stack pops
        # the highest rank first), not by repr order
        assert xs == ["aa", "zz", "mm"]
        assert xs not in (sorted(xs), sorted(xs, reverse=True))

    def test_node_rank_is_monotonic_and_survives_removal(self):
        for backend in MUTABLE_BACKENDS:
            graph = Graph(store=new_store(backend))
            graph.add_node("a", "x")
            graph.add_node("b", "x")
            graph.remove_node("a")
            graph.add_node("c", "x")
            assert graph.node_rank("b") < graph.node_rank("c")
            with pytest.raises(KeyError):
                graph.node_rank("a")


# -------------------------------------------------------- subgraph construction


class TestAdjacencyBuiltSubgraphs:
    def _reference_induced(self, graph: Graph, wanted: set) -> Graph:
        """The old O(|E|) implementation, kept here as the oracle."""
        sub = Graph(f"{graph.name}[oracle]", store=DictStore())
        for node_id in wanted:
            node = graph.node(node_id)
            sub.add_node(node.id, node.label, node.attributes)
        for edge in graph.edges():
            if edge.source in wanted and edge.target in wanted:
                sub.add_edge(edge.source, edge.target, edge.label)
        return sub

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_induced_subgraph_matches_edge_scan_oracle_on_large_sparse_graph(self, backend):
        graph = random_labeled_graph(3000, 4500, num_labels=12, num_edge_labels=6, seed=5)
        graph = graph.with_backend(new_store(backend))
        rng = random.Random(9)
        wanted = set(rng.sample(sorted(graph.node_ids()), 400))
        fast = graph.induced_subgraph(wanted)
        oracle = self._reference_induced(graph, wanted)
        assert fast.store_backend == backend
        assert fast == oracle
        fast.validate_consistency()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_neighborhood_extraction_matches_oracle(self, backend):
        graph = random_labeled_graph(800, 1600, num_labels=6, num_edge_labels=4, seed=3)
        graph = graph.with_backend(new_store(backend))
        seeds = [node_id for node_id in list(graph.node_ids())[:10]]
        fast = d_neighbor_of_nodes(graph, seeds, hops=2)
        slow_union: set = set()
        from repro.graph.neighborhood import nodes_within_hops

        for seed in seeds:
            slow_union |= nodes_within_hops(graph, seed, 2)
        oracle = self._reference_induced(graph, slow_union)
        assert fast == oracle

    @pytest.mark.parametrize("backend", MUTABLE_BACKENDS)
    def test_copy_clone_fast_path_is_equal_and_independent(self, backend):
        graph = random_labeled_graph(200, 400, num_labels=5, num_edge_labels=3, seed=8, store=new_store(backend))
        clone = graph.copy()
        assert clone == graph
        assert clone.store_backend == backend
        some_edge = next(iter(graph.edges()))
        clone.remove_edge(some_edge.source, some_edge.target, some_edge.label)
        assert graph.has_edge(some_edge.source, some_edge.target, some_edge.label)
        clone.validate_consistency()
        graph.validate_consistency()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_update_neighborhood_consistent(self, backend):
        graph = random_labeled_graph(400, 900, num_labels=5, num_edge_labels=4, seed=2)
        graph = graph.with_backend(new_store(backend))
        generator = UpdateGenerator(seed=4)
        delta = generator.generate(graph, size=40)
        region = update_neighborhood(graph, delta, hops=2)
        region.validate_consistency()
        assert region.is_subgraph_of(graph)


# ----------------------------------------------------------- zero-copy views


class TestReadViews:
    def test_views_compare_equal_to_frozensets(self):
        graph = Graph(store="indexed")
        graph.add_node("a", "person")
        graph.add_node("b", "person")
        graph.add_node("c", "city")
        graph.add_edge("a", "b", "knows")
        graph.add_edge("a", "c", "near")
        assert graph.nodes_with_label("person") == frozenset({"a", "b"})
        assert frozenset({"a", "b"}) == graph.nodes_with_label("person")
        assert graph.successors_by_label("a", "knows") == frozenset({"b"})
        assert graph.out_edge_labels("a") == frozenset({"knows", "near"})
        assert ("b", "knows") in graph.successors("a")
        assert len(graph.successors("a")) == 2

    def test_indexed_views_are_zero_copy(self):
        graph = Graph(store="indexed")
        graph.add_node("a", "person")
        graph.add_node("b", "person")
        view = graph.nodes_with_label("person")
        assert set(view) == {"a", "b"}
        graph.add_node("c", "person")
        # the view is live: it reflects mutations made after it was taken
        assert set(view) == {"a", "b", "c"}

    def test_dict_store_reads_are_defensive_copies(self):
        graph = Graph(store=DictStore())
        graph.add_node("a", "person")
        snapshot = graph.nodes_with_label("person")
        graph.add_node("b", "person")
        assert set(snapshot) == {"a"}

    def test_set_operations_on_views(self):
        graph = Graph(store="indexed")
        graph.add_node("a", "person")
        graph.add_node("b", "person")
        graph.add_node("c", "city")
        graph.add_edge("a", "c", "near")
        graph.add_edge("b", "c", "near")
        sources = graph.predecessors_by_label("c", "near")
        assert set(sources) & {"a", "x"} == {"a"}
        anchored = {"a", "b", "zz"}
        anchored.intersection_update(sources)
        assert anchored == {"a", "b"}


# ------------------------------------------- clones: head and past versions

_COW_NODE_LABELS = ["person", "city", "thing"]
_COW_EDGE_LABELS = ["knows", "near"]


def _node_rows(store) -> list:
    return [(node.id, node.label, dict(node.attributes)) for node in store.nodes()]


def _assert_same_content(store, oracle) -> None:
    """``store`` (indexed, possibly sharing buckets) reads exactly like ``oracle`` (dict)."""
    store.validate()
    assert _node_rows(store) == _node_rows(oracle)
    assert list(store.node_ids()) == list(oracle.node_ids())
    assert [e.key() for e in store.edges()] == [e.key() for e in oracle.edges()]
    for node_id in oracle.node_ids():
        assert store.successors(node_id) == oracle.successors(node_id)
        assert store.predecessors(node_id) == oracle.predecessors(node_id)
        assert store.out_degree(node_id) == oracle.out_degree(node_id)
        assert store.in_degree(node_id) == oracle.in_degree(node_id)
        for label in _COW_EDGE_LABELS:
            # in rank order, which the oracle sorts into and the indexed engine keeps under its writes
            assert list(store.successors_by_label(node_id, label)) == list(oracle.successors_by_label(node_id, label))
            assert list(store.predecessors_by_label(node_id, label)) == list(oracle.predecessors_by_label(node_id, label))
    for label in _COW_NODE_LABELS:
        assert store.nodes_with_label(label) == oracle.nodes_with_label(label)


def _counted_statistics(graph: Graph) -> dict:
    """The plan statistics of ``graph`` counted from its node and edge lists, as ``GraphStatistics.to_dict`` reads."""
    labels: dict = {}
    for node in graph.nodes():
        labels[node.label] = labels.get(node.label, 0) + 1
    edge_labels: dict = {}
    sources: dict = {}
    targets: dict = {}
    for edge in graph.edges():
        edge_labels[edge.label] = edge_labels.get(edge.label, 0) + 1
        for pairs, node_id in ((sources, edge.source), (targets, edge.target)):
            by_edge = pairs.setdefault(graph.store.get_node(node_id).label, {})
            by_edge[edge.label] = by_edge.get(edge.label, 0) + 1
    return {
        "node_count": graph.node_count(),
        "edge_count": graph.edge_count(),
        "label_counts": labels,
        "edge_label_counts": edge_labels,
        "source_pairs": sources,
        "target_pairs": targets,
    }


def _assert_statistics_are_kept(graph: Graph) -> None:
    """The store-kept statistics of ``graph`` equal a count of its lists, however the version is read.

    Checked on the version itself (a past version's snapshot must not
    materialize it), on its materialization, on a frozen copy and on a
    pickled copy.
    """
    store = graph.store
    unscanned = store._undo is not None and store._scan is None
    kept = GraphStatistics.from_graph(graph).to_dict()
    if unscanned:
        assert store._scan is None, "a past version's snapshot materialized it"
    expected = _counted_statistics(graph)
    assert kept == expected
    if store._undo is not None:
        assert GraphStatistics.from_graph(Graph(store=store._materialize())).to_dict() == expected
    assert GraphStatistics.from_graph(graph.with_backend("frozen")).to_dict() == expected
    assert GraphStatistics.from_graph(pickle.loads(pickle.dumps(graph))).to_dict() == expected


def _assert_same_order(store, twin) -> None:
    """Every view of ``store`` iterates in the order of ``twin``, a never-cloned deep copy."""
    for node_id in twin.node_ids():
        assert list(store.successors(node_id)) == list(twin.successors(node_id))
        assert list(store.predecessors(node_id)) == list(twin.predecessors(node_id))
    for label in _COW_NODE_LABELS:
        assert list(store.nodes_with_label(label)) == list(twin.nodes_with_label(label))


class CloneChainMachine(RuleBasedStateMachine):
    """Interleaved writes on a chain parent -> child -> grandchild of indexed clones.

    Every live graph is shadowed by a ``DictStore`` graph (the semantic
    oracle) and by an ``IndexedStore`` deep copy that never went through
    ``clone()`` (the iteration-order oracle); each operation is applied to
    all three, and after every step every live store must validate and read
    like its own oracles — whichever of the chain was written to, read from
    point by point (a past version reads through its undo log) or dropped.
    Edges land between random ids, so a neighbour often ranks before those
    a bucket holds, and a removed id added again ranks last: the adjacency
    views must come out in rank order on every version all the same.
    """

    def __init__(self) -> None:
        super().__init__()
        # ``drop`` collects the cycles a forgotten version leaves; frozen, the
        # rest of the test process's heap is not walked by each collection
        gc.freeze()
        parent = Graph("cow", store="indexed")
        for index in range(6):
            parent.add_node(index, _COW_NODE_LABELS[index % 3], {"val": index})
        for index in range(6):
            parent.add_edge(index, (index + 1) % 6, _COW_EDGE_LABELS[index % 2])
        self.live = [parent]
        self.oracles = [parent.with_backend(DictStore())]
        self.twins = [copy.deepcopy(parent)]
        self._clone(0)
        self._clone(1)

    def _clone(self, which: int) -> None:
        self.live.append(self.live[which].copy())
        self.oracles.append(self.oracles[which].copy())
        self.twins.append(copy.deepcopy(self.twins[which]))

    def _each(self, which: int):
        which %= len(self.live)
        return self.live[which], self.oracles[which], self.twins[which]

    which = st.integers(min_value=0, max_value=11)
    node_ids = st.integers(min_value=0, max_value=9)

    @rule(which=which)
    def clone(self, which):
        if len(self.live) < 6:
            which %= len(self.live)
            self._clone(which)
            # the cloned version is past now, and unscanned: its snapshot reads its own counts
            _assert_statistics_are_kept(self.live[which])

    @rule(which=which)
    def drop(self, which):
        """Forget one version of the chain: the versions it shared maps with read on unchanged."""
        if len(self.live) > 1:
            which %= len(self.live)
            for versions in (self.live, self.oracles, self.twins):
                del versions[which]
            gc.collect()

    @rule(which=which, node_id=node_ids)
    def read(self, which, node_id):
        """Point reads, no full scan: a past version answers them through its undo log."""
        graph, oracle, _ = self._each(which)
        store, expected = graph.store, oracle.store
        assert store.has_node(node_id) == expected.has_node(node_id)
        assert store.get_node(node_id) == expected.get_node(node_id)
        assert store.node_count() == expected.node_count()
        assert store.edge_count() == expected.edge_count()
        for label in _COW_NODE_LABELS:
            assert (node_id in store.nodes_with_label(label)) == (node_id in expected.nodes_with_label(label))
            assert len(store.nodes_with_label(label)) == len(expected.nodes_with_label(label))
        if expected.has_node(node_id):
            assert store.node_rank(node_id) == expected.node_rank(node_id)
            assert store.out_degree(node_id) == expected.out_degree(node_id)
            assert store.in_degree(node_id) == expected.in_degree(node_id)
            for label in _COW_EDGE_LABELS:
                assert list(store.successors_by_label(node_id, label)) == list(expected.successors_by_label(node_id, label))
                assert list(store.predecessors_by_label(node_id, label)) == list(expected.predecessors_by_label(node_id, label))
            for target in range(10):
                for label in _COW_EDGE_LABELS:
                    assert store.has_edge_key((node_id, target, label)) == expected.has_edge_key((node_id, target, label))

    @rule(which=which, node_id=node_ids, label=st.sampled_from(_COW_NODE_LABELS), val=st.integers(0, 5))
    def add_node(self, which, node_id, label, val):
        for graph in self._each(which):
            if not graph.has_node(node_id):
                graph.add_node(node_id, label, {"val": val})

    @rule(which=which, tail=node_ids, head=node_ids, label=st.sampled_from(_COW_EDGE_LABELS))
    def add_edge(self, which, tail, head, label):
        for graph in self._each(which):
            if graph.has_node(tail) and graph.has_node(head):
                graph.add_edge(tail, head, label)

    @rule(which=which, pick=st.integers(min_value=0, max_value=99))
    def remove_edge(self, which, pick):
        for graph in self._each(which):
            edges = list(graph.edges())
            if edges:
                edge = edges[pick % len(edges)]
                graph.remove_edge(edge.source, edge.target, edge.label)

    @rule(which=which, node_id=node_ids)
    def remove_node(self, which, node_id):
        for graph in self._each(which):
            if graph.has_node(node_id):
                graph.remove_node(node_id)

    @rule(which=which, node_id=node_ids, val=st.integers(6, 9))
    def replace_node(self, which, node_id, val):
        for graph in self._each(which):
            if graph.has_node(node_id):
                graph.set_attribute(node_id, "val", val)

    def teardown(self):
        gc.unfreeze()

    @invariant()
    def every_version_keeps_its_statistics(self):
        for graph in self.live:
            _assert_statistics_are_kept(graph)

    @invariant()
    def every_store_reads_like_its_oracles(self):
        for graph, oracle, twin in zip(self.live, self.oracles, self.twins):
            _assert_same_content(graph.store, oracle.store)
            _assert_same_order(graph.store, twin.store)


TestCloneChain = CloneChainMachine.TestCase
TestCloneChain.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


def _private_buckets(before: Graph, after: Graph) -> int:
    """Count the per-node adjacency maps of ``after`` that ``before`` (now a past version) does not read."""
    old, new = before.store, after.store
    return sum(
        new_index[node_id] is not old._undo.get(slot, node_id, new_index[node_id])
        for new_index, slot in ((new._out, _OUTS), (new._in, _INS))
        for node_id in new_index
    )


def _per_node_bfs(graph: Graph, sources, hops: int) -> frozenset:
    """The BFS the store-level walk replaced: one ``neighbours`` set per visited node."""
    seen = {source: 0 for source in sources if graph.has_node(source)}
    frontier = list(seen)
    while frontier:
        current = frontier.pop(0)
        if seen[current] < hops:
            for neighbour in graph.neighbours(current):
                if neighbour not in seen:
                    seen[neighbour] = seen[current] + 1
                    frontier.append(neighbour)
    return frozenset(seen)


class TestCopyOnWriteClone:
    def test_write_to_parent_after_clone_does_not_reach_child(self):
        parent = random_labeled_graph(60, 150, num_labels=3, num_edge_labels=2, seed=4, store="indexed")
        child = parent.copy()
        reference = json.dumps(graph_to_dict(child), sort_keys=True, default=str)
        adjacency = {n: (set(child.successors(n)), set(child.predecessors(n))) for n in child.node_ids()}
        edge = next(iter(parent.edges()))
        parent.remove_edge(edge.source, edge.target, edge.label)
        parent.add_edge(edge.target, edge.source, "brand-new-label")
        parent.add_node("late", parent.node(edge.source).label, {"val": 1})
        parent.remove_node(edge.target)
        assert json.dumps(graph_to_dict(child), sort_keys=True, default=str) == reference
        for node_id, (successors, predecessors) in adjacency.items():
            assert set(child.successors(node_id)) == successors
            assert set(child.predecessors(node_id)) == predecessors
        assert "late" not in child.nodes_with_label(parent.node(edge.source).label)
        child.validate_consistency()
        parent.validate_consistency()

    @pytest.mark.parametrize("backend", MUTABLE_BACKENDS)
    def test_failed_apply_update_leaves_graph_before_untouched(self, backend):
        graph = random_labeled_graph(80, 200, num_labels=3, num_edge_labels=2, seed=6, store=new_store(backend))
        reference = json.dumps(graph_to_dict(graph), sort_keys=True, default=str)
        delta = UpdateGenerator(seed=2).generate(graph, size=20)
        first_deletion = delta.deletions[0]
        # a valid prefix, then unit k deletes an edge the prefix already deleted
        delta.delete(first_deletion.source, first_deletion.target, first_deletion.label)
        with pytest.raises(UpdateError):
            apply_update(graph, delta)
        assert json.dumps(graph_to_dict(graph), sort_keys=True, default=str) == reference
        graph.validate_consistency()

    @pytest.mark.parametrize("backend", MUTABLE_BACKENDS)
    def test_a_rejected_update_writes_nothing(self, backend):
        graph = Graph(store=new_store(backend))
        for node_id in "abc":
            graph.add_node(node_id, "person", {"val": 1})
        graph.add_edge("a", "b", "knows")
        reference = json.dumps(graph_to_dict(graph), sort_keys=True, default=str)
        # the first unit is valid on its own; the last deletes an edge that is not there
        delta = BatchUpdate().insert("b", "a", "knows").insert("c", "d", "knows").delete("a", "c", "knows")
        with pytest.raises(UpdateError):
            apply_update(graph, delta)
        assert json.dumps(graph_to_dict(graph), sort_keys=True, default=str) == reference
        graph.validate_consistency()
        if backend == IndexedStore.backend:
            assert graph.store._undo is None, "a rejected copy is never taken: the graph is still the head"

    def test_apply_update_allocates_the_same_at_any_size(self):
        """A 10-unit ΔG on 2.4k and on 19k nodes: the clone and the undo log cost what ΔG touches."""

        def allocated(entities: int) -> int:
            config = KBConfig("kb", entities, num_entity_types=6, num_value_relations=3,
                              num_link_relations=6, values_per_entity=3, links_per_entity=0.6,
                              seed=3, hub_link_fraction=0.3, num_hubs=3)  # fmt: skip
            graph = knowledge_graph(config)
            generator = UpdateGenerator(seed=7)
            sizes = []
            for _ in range(3):
                delta = generator.generate(graph, 10)
                tracemalloc.start()
                try:
                    after = apply_update(graph, delta)
                    sizes.append(tracemalloc.get_traced_memory()[0])
                finally:
                    tracemalloc.stop()
                graph = after
            return sorted(sizes)[1]

        small, large = allocated(600), allocated(4800)
        assert max(small, large) <= 1.5 * min(small, large), (small, large)

    def test_an_old_version_kept_alive_holds_a_bounded_undo_chain(self):
        """The first version outlives 200 ΔG: the logs it reads through stay O(|G|), and it reads the same."""
        graph = random_labeled_graph(200, 500, num_labels=3, num_edge_labels=2, seed=8, store="indexed")
        first, document = graph, json.dumps(graph_to_dict(graph), sort_keys=True, default=str)
        generator = UpdateGenerator(seed=9)
        for _ in range(200):
            graph = apply_update(graph, generator.generate(graph, 10))
        held, log = 0, first.store._undo
        while log is not None:
            held += sum(map(len, log.entries))
            log = log.newer
        assert 0 < held <= graph.node_count() + graph.edge_count()
        assert json.dumps(graph_to_dict(first), sort_keys=True, default=str) == document
        first.validate_consistency()
        graph.validate_consistency()

    @pytest.mark.parametrize("nodes", [500, 5000])
    def test_update_copies_only_the_buckets_it_touches(self, nodes):
        graph = random_labeled_graph(
            nodes, 2 * nodes, num_labels=5, num_edge_labels=3, seed=1, store="indexed"
        )
        delta = UpdateGenerator(seed=3).generate(graph, size=40)
        updated = apply_update(graph, delta)
        new_nodes = updated.node_count() - graph.node_count()
        # out-bucket of the source + in-bucket of the target per unit update, plus
        # the other bucket of each brand-new node: the same bound at either size
        assert 0 < _private_buckets(graph, updated) <= 2 * len(delta) + new_nodes

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_level_bfs_matches_per_node_bfs(self, backend):
        source_graph = Graph("bfs", store="indexed")
        for index in range(40):
            source_graph.add_node(index, _COW_NODE_LABELS[index % 3])
        rng = random.Random(11)
        for _ in range(70):
            source_graph.add_edge(rng.randrange(40), rng.randrange(40), rng.choice(_COW_EDGE_LABELS))
        source_graph.add_edge(7, 7, "knows")  # self-loops must not stall or escape the walk
        graph = source_graph.with_backend(new_store(backend))
        for sources in ([7], [0, 13, 39], ["absent"], [5, "absent", 5], []):
            for hops in (0, 1, 2, 5):
                assert multi_source_nodes_within_hops(graph, sources, hops) == _per_node_bfs(
                    graph, sources, hops
                )


# ------------------------------------------------------------ one-pass build


def _build_by_mutation(document: dict, store: str) -> Graph:
    """What ``graph_from_dict`` was before the bulk build: one facade mutation per entry."""
    if "nodes" not in document or "edges" not in document:
        raise GraphError("graph document must contain 'nodes' and 'edges' lists")
    graph = Graph(document.get("name", "G"), store=new_store(store))
    for entry in document["nodes"]:
        graph.add_node(entry["id"], entry["label"], entry.get("attributes", {}))
    for entry in document["edges"]:
        graph.add_edge(entry["source"], entry["target"], entry["label"])
    return graph


def _build_in_one_pass(document: dict, store: str) -> Graph:
    return graph_from_dict(document, store=new_store(store))


def _mutable_twin(store: str) -> str:
    """The engine whose build by mutation a bulk build on ``store`` is held to.

    The frozen engine takes no single mutations, so its one build is held to
    the mutation build of the layout it seals.
    """
    return store if ENGINES[store].supports_mutation else IndexedStore.backend


def _outcome(build, document: dict, store: str):
    """Return ``(graph, None)`` or ``(None, type of the exception raised)``."""
    try:
        return build(document, store), None
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return None, type(exc)


#: what the server turns into a 4xx body; a malformed document raises nothing else
_DOCUMENT_ERRORS = (KeyError, TypeError, ValueError, AttributeError, GraphError)

_node_entries = st.fixed_dictionaries(
    {"id": st.integers(0, 6), "label": st.sampled_from(_COW_NODE_LABELS)},
    # few distinct payloads, so that a repeated id is sometimes the same node again
    optional={"attributes": st.sampled_from([{}, {"val": 1}, {"val": 2, "name": "n"}, None])},
)
_edge_entries = st.fixed_dictionaries(
    {"source": st.integers(0, 7), "target": st.integers(0, 7), "label": st.sampled_from(_COW_EDGE_LABELS)}
)
_malformations = st.sampled_from(
    ["none", "node without label", "edge without label", "edges not a list", "node not an object",
     "unhashable id", "attributes a string", "label not a string", "no edges key"]
)  # fmt: skip


@st.composite
def _documents(draw) -> dict:
    """Graph documents: repeated ids, dangling edges, repeated edges, and at most one malformed entry."""
    nodes = draw(st.lists(_node_entries, max_size=10))
    edges = draw(st.lists(_edge_entries, max_size=12))
    document: dict = {"name": "generated", "nodes": nodes, "edges": edges}
    malformation = draw(_malformations)
    position = draw(st.integers(0, 12))
    if malformation == "node without label" and nodes:
        del nodes[position % len(nodes)]["label"]
    elif malformation == "edge without label" and edges:
        del edges[position % len(edges)]["label"]
    elif malformation == "edges not a list":
        document["edges"] = draw(st.sampled_from([None, 5, {"source": 0}]))
    elif malformation == "node not an object" and nodes:
        nodes[position % len(nodes)] = draw(st.sampled_from([None, 3, [0, "person"]]))
    elif malformation == "unhashable id" and nodes:
        nodes[position % len(nodes)]["id"] = [0]
    elif malformation == "attributes a string" and nodes:
        nodes[position % len(nodes)]["attributes"] = "val"
    elif malformation == "label not a string" and nodes:
        nodes[position % len(nodes)]["label"] = 7
    elif malformation == "no edges key":
        del document["edges"]
    return document


@st.composite
def _documents_with_repeats(draw) -> dict:
    """Well-formed documents whose edge list names some of its edges again."""
    nodes = draw(st.lists(_node_entries, min_size=1, max_size=10, unique_by=lambda entry: entry["id"]))
    ids = st.sampled_from([entry["id"] for entry in nodes])
    edges = draw(
        st.lists(
            st.fixed_dictionaries({"source": ids, "target": ids, "label": st.sampled_from(_COW_EDGE_LABELS)}),
            min_size=1,
            max_size=12,
        )
    )
    again = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4))
    return {"name": "repeats", "nodes": nodes, "edges": draw(st.permutations(edges + again))}


class TestOnePassBuild:
    """``graph_from_dict`` is one ``GraphStore.bulk_load``; the graph is the one mutation builds."""

    @settings(max_examples=150, deadline=None)
    @given(_documents())
    def test_bulk_build_is_the_build_by_mutation(self, document):
        for backend in BACKENDS:
            expected, expected_error = _outcome(_build_by_mutation, copy.deepcopy(document), _mutable_twin(backend))
            built, error = _outcome(_build_in_one_pass, copy.deepcopy(document), backend)
            assert gc.isenabled()
            assert error is expected_error, backend
            if error is not None:
                assert issubclass(error, _DOCUMENT_ERRORS), backend
                continue
            _assert_same_content(built.store, expected.store)
            _assert_same_order(built.store, expected.store)
            ids = list(expected.node_ids())
            assert [built.node_rank(i) for i in ids] == [expected.node_rank(i) for i in ids], backend
            assert graph_to_dict(built) == graph_to_dict(expected), backend
            assert graph_to_dict(_build_in_one_pass(graph_to_dict(built), backend)) == graph_to_dict(built)

    @settings(max_examples=60, deadline=None)
    @given(_documents_with_repeats())
    def test_a_repeated_edge_is_stored_once_on_every_engine(self, document):
        oracle = _build_by_mutation(copy.deepcopy(document), "dict")
        distinct = {(entry["source"], entry["target"], entry["label"]) for entry in document["edges"]}
        assert oracle.edge_count() == len(distinct)
        for backend in BACKENDS:
            built = _build_in_one_pass(copy.deepcopy(document), backend)
            _assert_same_content(built.store, oracle.store)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "document, error",
        [
            ({"nodes": [{"id": 1, "label": "a"}, {"id": 1, "label": "b"}], "edges": []}, DuplicateNode),
            ({"nodes": [{"id": 1, "label": "a"}, {"id": 1, "label": "a", "attributes": {"v": 1}}], "edges": []}, DuplicateNode),
            ({"nodes": [{"id": 1, "label": "a"}], "edges": [{"source": 1, "target": 2, "label": "p"}]}, NodeNotFound),
            ({"nodes": [{"id": 1, "label": "a"}], "edges": [{"source": 2, "target": 1, "label": "p"}]}, NodeNotFound),
            ({"nodes": [{"id": 1}], "edges": []}, KeyError),
            ({"nodes": [{"id": 1, "label": "a"}], "edges": [{"source": 1, "target": 1}]}, KeyError),
            ({"nodes": [{"id": 1, "label": "a"}], "edges": 5}, TypeError),
            ({"nodes": [{"id": 1, "label": "a"}], "edges": None}, TypeError),
            ({"nodes": []}, GraphError),
        ],
    )  # fmt: skip
    def test_a_malformed_document_raises_what_it_always_raised(self, backend, document, error):
        with pytest.raises(error) as caught:
            _build_in_one_pass(document, backend)
        assert type(caught.value) is error
        assert gc.isenabled(), "the collector stays paused after a build that raised"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_identical_node_again_is_a_no_op_and_ranks_follow_the_document(self, backend):
        node = {"id": "b", "label": "person", "attributes": {"val": 1}}
        document = {
            "nodes": [node, {"id": "a", "label": "city"}, dict(node), {"id": "b", "label": "person", "attributes": {"val": 1}}],
            "edges": [{"source": "b", "target": "a", "label": "near"}] * 2,
        }  # fmt: skip
        graph = _build_in_one_pass(document, backend)
        assert [(n.id, graph.node_rank(n.id)) for n in graph.nodes()] == [("b", 0), ("a", 1)]
        assert [edge.key() for edge in graph.edges()] == [("b", "a", "near")]
        graph.validate_consistency()

    def test_a_build_leaves_a_paused_collector_paused(self):
        gc.disable()
        try:
            graph_from_dict({"nodes": [{"id": 1, "label": "a"}], "edges": []})
            assert not gc.isenabled()
        finally:
            gc.enable()


# ---------------------------------------------------------- frozen store


class TestFrozenStore:
    """The read-only engine: an ``IndexedStore`` filled by one bulk load, then sealed."""

    def _sample_graph(self) -> Graph:
        graph = random_labeled_graph(300, 700, num_labels=8, num_edge_labels=5, seed=11)
        return graph

    def test_with_backend_round_trip_and_adjacency_parity(self):
        graph = self._sample_graph()
        frozen = graph.with_backend("frozen")
        assert frozen.store_backend == "frozen"
        assert frozen == graph
        frozen.validate_consistency()
        for node in graph.nodes():
            assert frozenset(graph.successors(node.id)) == frozenset(frozen.successors(node.id))
            assert frozenset(graph.predecessors(node.id)) == frozenset(frozen.predecessors(node.id))
            assert graph.degree(node.id) == frozen.degree(node.id)
            assert graph.neighbours(node.id) == frozen.neighbours(node.id)
            assert frozenset(graph.out_edge_labels(node.id)) == frozenset(frozen.out_edge_labels(node.id))
            for label in graph.edge_labels():
                assert frozenset(graph.successors_by_label(node.id, label)) == frozenset(
                    frozen.successors_by_label(node.id, label)
                )
                assert frozenset(graph.predecessors_by_label(node.id, label)) == frozenset(
                    frozen.predecessors_by_label(node.id, label)
                )

    @pytest.mark.parametrize(
        "mutation",
        [
            pytest.param(lambda g, s, e, n: g.add_node("fresh", "label"), id="graph.add_node"),
            pytest.param(lambda g, s, e, n: g.add_edge(e.source, e.target, "new-label"), id="graph.add_edge"),
            pytest.param(lambda g, s, e, n: g.set_attribute(e.source, "val", 1), id="graph.set_attribute"),
            pytest.param(lambda g, s, e, n: g.remove_edge(e.source, e.target, e.label), id="graph.remove_edge"),
            pytest.param(lambda g, s, e, n: g.remove_node(e.source), id="graph.remove_node"),
            pytest.param(lambda g, s, e, n: s.add_node(Node("fresh", "label", {})), id="store.add_node"),
            pytest.param(lambda g, s, e, n: s.add_edge(Edge(e.target, e.source, "new-label")), id="store.add_edge"),
            pytest.param(lambda g, s, e, n: s.replace_node(n), id="store.replace_node"),
            pytest.param(lambda g, s, e, n: s.remove_edge(e.key()), id="store.remove_edge"),
            pytest.param(lambda g, s, e, n: s.remove_node(n.id), id="store.remove_node"),
            pytest.param(lambda g, s, e, n: s.bulk_load([("fresh", "label", None)], []), id="store.bulk_load"),
        ],
    )
    def test_every_mutator_raises_after_the_build(self, mutation):
        graph = self._sample_graph().with_backend("frozen")
        reference = graph_to_dict(graph)
        some_edge = next(iter(graph.edges()))
        with pytest.raises(GraphError, match="frozen store"):
            mutation(graph, graph.store, some_edge, graph.node(some_edge.source))
        assert graph_to_dict(graph) == reference
        graph.validate_consistency()

    def test_clone_is_the_store(self):
        graph = self._sample_graph().with_backend("frozen")
        store = graph.store
        assert store.clone() is store
        assert graph.copy().store is store

    def test_its_adjacency_is_linked_on_the_first_read(self):
        graph = self._sample_graph()
        store = FrozenStore()
        assert store.edge_labels() == frozenset()  # what this read links, the build must drop
        store.bulk_load(((n.id, n.label, n.attributes) for n in graph.nodes()), (e.key() for e in graph.edges()))
        assert "_out" not in vars(store), "a loaded copy holds no adjacency until it is read"
        _assert_same_content(store, graph.store)
        _assert_same_order(store, graph.store)

    def test_single_mutations_never_fill_it(self):
        graph = Graph(store="frozen")
        with pytest.raises(GraphError):
            graph.add_node("a", "x")
        assert graph.node_count() == 0

    def test_apply_update_refused_on_frozen_graph(self):
        graph = self._sample_graph().with_backend("frozen")
        generator = UpdateGenerator(seed=3)
        delta = generator.generate(graph, size=5)
        with pytest.raises(GraphError):
            apply_update(graph, delta)

    def test_induced_subgraph_stays_frozen(self):
        graph = self._sample_graph()
        frozen = graph.with_backend("frozen")
        wanted = sorted(graph.node_ids())[:60]
        sub = frozen.induced_subgraph(wanted)
        assert sub.store_backend == "frozen"
        assert sub == graph.induced_subgraph(wanted)

    def test_detection_matches_mutable_backends(self):
        graph = self._sample_graph()
        # the random schema has no 'person' labels here; use label-wildcard rules
        pattern = Pattern(
            "link", nodes=[("x", WILDCARD), ("y", WILDCARD)], edges=[("x", "y", "e0")]
        )
        rules = [NGD.from_text(pattern, "", "x.val >= y.val", name="wild_order")]
        expected = frozenset(Detector(rules, engine="batch").run(graph).violations)
        got = Detector(rules, engine="batch").run(graph.with_backend("frozen"))
        assert frozenset(got.violations) == expected
        assert got.violations
