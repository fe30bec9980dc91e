"""Parity and regression tests for the pluggable graph storage engines.

The refactor's contract: every backend behind :class:`repro.graph.store.GraphStore`
must be observationally identical through the :class:`Graph` facade — same
violation sets from ``dect``/``inc_dect``, same subgraphs, same index
consistency after arbitrary interleaved mutation — while the matcher's
enumeration order must be deterministic across interpreter runs (and hence
immune to string-hash randomization).
"""

from __future__ import annotations

import copy
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.ngd import NGD
from repro.detect import dect, inc_dect
from repro.errors import DuplicateNode, GraphError, NodeNotFound, UpdateError
from repro.graph.generators import random_labeled_graph
from repro.graph.graph import WILDCARD, Graph
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.neighborhood import (
    d_neighbor_of_nodes,
    multi_source_nodes_within_hops,
    update_neighborhood,
)
from repro.graph.pattern import Pattern
from repro.graph.store import (
    STORE_REGISTRY,
    DictStore,
    IndexedStore,
    default_store_name,
    make_store,
)
from repro.graph.sharded import ShardedStore
from repro.graph.updates import BatchUpdate, UpdateGenerator, apply_update
from repro.matching.matchn import HomomorphismMatcher

BACKENDS = sorted(STORE_REGISTRY)
#: Engines whose stores accept interleaved mutation (the CSR engine is
#: append-only and freezes on first adjacency read).
MUTABLE_BACKENDS = [name for name in BACKENDS if STORE_REGISTRY[name].supports_mutation]


# ------------------------------------------------------------- store selection


class TestStoreSelection:
    def test_registry_contains_all_engines(self):
        assert {"dict", "indexed", "csr"} <= set(STORE_REGISTRY)

    def test_default_backend_is_indexed(self, monkeypatch):
        monkeypatch.delenv("REPRO_GRAPH_STORE", raising=False)
        assert default_store_name() == "indexed"
        assert Graph().store_backend == "indexed"

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE", "dict")
        assert Graph().store_backend == "dict"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE", "dict")
        assert Graph(store="indexed").store_backend == "indexed"

    def test_store_instance_is_used_as_is(self):
        store = DictStore()
        graph = Graph(store=store)
        assert graph.store is store

    def test_unknown_backend_raises(self):
        with pytest.raises(GraphError):
            make_store("csr-not-yet")

    def test_copy_and_subgraphs_preserve_backend(self):
        for backend in BACKENDS:
            graph = Graph(store=backend)
            graph.add_node("a", "x")
            graph.add_node("b", "x")
            graph.add_edge("a", "b", "e")
            assert graph.copy().store_backend == backend
            assert graph.induced_subgraph(["a", "b"]).store_backend == backend

    def test_with_backend_converts_and_preserves_content(self):
        graph = Graph(store="dict")
        graph.add_node("a", "x", {"val": 1})
        graph.add_node("b", "y")
        graph.add_edge("a", "b", "e")
        converted = graph.with_backend("indexed")
        assert converted.store_backend == "indexed"
        assert converted == graph


# ----------------------------------------------------------------- parity suite


def _random_rules(seed: int) -> list[NGD]:
    """Two small NGDs over the random-graph schema of ``_mutated_pair``."""
    knows = Pattern.from_edges(
        "knows", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "knows")]
    )
    chain = Pattern.from_edges(
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
    graphs = (Graph("parity", store="dict"), Graph("parity", store="indexed"))
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
        dict_result = frozenset(dect(dict_graph, rules).violations)
        indexed_result = frozenset(dect(indexed_graph, rules).violations)
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
            outcome = inc_dect(graph, rules, delta)
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

    def test_signature_index_parity_after_mutations(self, seed):
        dict_graph, indexed_graph = _mutated_pair(seed)
        signatures = {
            (dict_graph.node(e.source).label, e.label, dict_graph.node(e.target).label)
            for e in dict_graph.edges()
        }
        for source_label, edge_label, target_label in signatures:
            expected = {e.key() for e in dict_graph.edges_with_signature(source_label, edge_label, target_label)}
            actual = {e.key() for e in indexed_graph.edges_with_signature(source_label, edge_label, target_label)}
            assert expected == actual
        # wildcard endpoint queries go through the generic signature walk
        for edge_label in dict_graph.edge_labels():
            expected = {e.key() for e in dict_graph.edges_with_signature(WILDCARD, edge_label, WILDCARD)}
            actual = {e.key() for e in indexed_graph.edges_with_signature(WILDCARD, edge_label, WILDCARD)}
            assert expected == actual


# ------------------------------------------------------- deterministic ordering


_ORDER_SCRIPT = r"""
import sys
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.matching.matchn import HomomorphismMatcher

graph = Graph(store=sys.argv[1])
for index in range(40):
    graph.add_node(f"p{index}", "person", {"val": index})
for index in range(40):
    graph.add_edge(f"p{index}", f"p{(index * 7 + 3) % 40}", "knows")
    graph.add_edge(f"p{index}", f"p{(index * 11 + 5) % 40}", "knows")
pattern = Pattern.from_edges(
    "knows", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "knows")]
)
for match in HomomorphismMatcher(graph, pattern).matches():
    print(match["x"], match["y"])
"""


_COSTS_SCRIPT = r"""
import sys
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.graph.sharded import ShardedStore
from repro.graph.updates import BatchUpdate, UpdateGenerator, apply_update
from repro.detect import dect, inc_dect, p_dect, pinc_dect

config = KBConfig(
    name="det", num_entities=120, num_entity_types=4, num_value_relations=3,
    num_link_relations=3, values_per_entity=3, links_per_entity=1.0, seed=5,
)
graph = knowledge_graph(config, store=sys.argv[1])
rules = benchmark_rules(graph, count=6, max_diameter=3, seed=0)
delta = UpdateGenerator(seed=7).generate(graph, size=max(1, graph.edge_count() // 10))
updated = apply_update(graph, delta)
print("dect", dect(graph, rules).cost)
print("pdect", p_dect(graph, rules, processors=4).cost)
print("inc", inc_dect(graph, rules, delta, graph_after=updated).cost)
print("pinc", pinc_dect(graph, rules, delta, processors=4, graph_after=updated).cost)
print("delta", [(u.is_insertion, str(u.source), str(u.target), u.label) for u in delta])

# induced-subgraph edge order feeds the vertex-cut partitioner: both must be
# hash-seed independent (edges_between walks insertion-ordered adjacency)
from repro.graph.neighborhood import d_neighbor_of_nodes
from repro.graph.partition import greedy_vertex_cut

region = d_neighbor_of_nodes(graph, list(graph.node_ids())[:8], hops=2)
print("region_edges", [e.key() for e in region.edges()])
cut = greedy_vertex_cut(region, 3)
print("fragments", [sorted(map(str, f.nodes)) for f in cut.fragments])
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
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("1", "2", "99"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
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
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
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
        pattern = Pattern.from_edges(
            "knows", nodes=[("x", "person"), ("y", "person")], edges=[("x", "y", "knows")]
        )
        xs = list(dict.fromkeys(m["x"] for m in HomomorphismMatcher(graph, pattern).matches()))
        # x candidates are enumerated by insertion rank (the search stack pops
        # the highest rank first), not by repr order
        assert xs == ["aa", "zz", "mm"]
        assert xs not in (sorted(xs), sorted(xs, reverse=True))

    def test_node_rank_is_monotonic_and_survives_removal(self):
        for backend in MUTABLE_BACKENDS:
            graph = Graph(store=backend)
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
        sub = Graph(f"{graph.name}[oracle]", store=graph.store_backend)
        for node_id in wanted:
            node = graph.node(node_id)
            sub.add_node(node.id, node.label, node.attributes)
        for edge in graph.edges():
            if edge.source in wanted and edge.target in wanted:
                sub.add_edge(edge.source, edge.target, edge.label)
        return sub

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_induced_subgraph_matches_edge_scan_oracle_on_large_sparse_graph(self, backend):
        graph = random_labeled_graph(
            3000, 4500, num_labels=12, num_edge_labels=6, seed=5, store=backend
        )
        rng = random.Random(9)
        wanted = set(rng.sample(sorted(graph.node_ids()), 400))
        fast = graph.induced_subgraph(wanted)
        oracle = self._reference_induced(graph, wanted)
        assert fast == oracle
        fast.validate_consistency()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_neighborhood_extraction_matches_oracle(self, backend):
        graph = random_labeled_graph(
            800, 1600, num_labels=6, num_edge_labels=4, seed=3, store=backend
        )
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
        graph = random_labeled_graph(200, 400, num_labels=5, num_edge_labels=3, seed=8, store=backend)
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
        graph = random_labeled_graph(400, 900, num_labels=5, num_edge_labels=4, seed=2, store=backend)
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
        graph = Graph(store="dict")
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


# ------------------------------------------------------ copy-on-write clones

_COW_NODE_LABELS = ["person", "city", "thing"]
_COW_EDGE_LABELS = ["knows", "near"]


def _signature_buckets(store) -> dict:
    return {sig: [edge.key() for edge in edges] for sig, edges in store.signature_items()}


def _node_rows(store) -> list:
    return [(node.id, node.label, dict(node.attributes)) for node in store.nodes()]


def _assert_same_content(store, oracle, signatures: bool) -> None:
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
            assert store.successors_by_label(node_id, label) == oracle.successors_by_label(node_id, label)
            assert store.predecessors_by_label(node_id, label) == oracle.predecessors_by_label(node_id, label)
    for label in _COW_NODE_LABELS:
        assert store.nodes_with_label(label) == oracle.nodes_with_label(label)
    if signatures:
        assert _signature_buckets(store) == _signature_buckets(oracle)


def _assert_same_order(store, twin, signatures: bool) -> None:
    """Every view of ``store`` iterates in the order of ``twin``, a never-cloned deep copy."""
    for node_id in twin.node_ids():
        assert list(store.successors(node_id)) == list(twin.successors(node_id))
        assert list(store.predecessors(node_id)) == list(twin.predecessors(node_id))
    for label in _COW_NODE_LABELS:
        assert list(store.nodes_with_label(label)) == list(twin.nodes_with_label(label))
    if signatures:
        assert list(_signature_buckets(store).items()) == list(_signature_buckets(twin).items())


class CloneChainMachine(RuleBasedStateMachine):
    """Interleaved writes on a chain parent -> child -> grandchild of indexed clones.

    Every live graph is shadowed by a ``DictStore`` graph (the semantic
    oracle) and by an ``IndexedStore`` deep copy that never went through
    ``clone()`` (the iteration-order oracle); each operation is applied to
    all three, and after every step every live store must validate and read
    like its own oracles — whichever of the chain was written to.
    """

    def __init__(self) -> None:
        super().__init__()
        parent = Graph("cow", store="indexed")
        for index in range(6):
            parent.add_node(index, _COW_NODE_LABELS[index % 3], {"val": index})
        for index in range(6):
            parent.add_edge(index, (index + 1) % 6, _COW_EDGE_LABELS[index % 2])
        self.live = [parent]
        self.oracles = [parent.with_backend("dict")]
        self.twins = [copy.deepcopy(parent)]
        self.signatures_built = [False]
        self._clone(0)
        self._clone(1)

    def _clone(self, which: int) -> None:
        self.live.append(self.live[which].copy())
        self.oracles.append(self.oracles[which].copy())
        self.twins.append(copy.deepcopy(self.twins[which]))
        self.signatures_built.append(self.signatures_built[which])

    def _each(self, which: int):
        which %= len(self.live)
        return self.live[which], self.oracles[which], self.twins[which]

    which = st.integers(min_value=0, max_value=11)
    node_ids = st.integers(min_value=0, max_value=9)

    @rule(which=which)
    def clone(self, which):
        if len(self.live) < 6:
            self._clone(which % len(self.live))

    @rule(which=which)
    def build_signatures(self, which):
        self.signatures_built[which % len(self.live)] = True

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

    @invariant()
    def every_store_reads_like_its_oracles(self):
        for graph, oracle, twin, signatures in zip(
            self.live, self.oracles, self.twins, self.signatures_built
        ):
            _assert_same_content(graph.store, oracle.store, signatures)
            _assert_same_order(graph.store, twin.store, signatures)


TestCloneChain = CloneChainMachine.TestCase
TestCloneChain.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


def _private_buckets(before: Graph, after: Graph) -> int:
    """Count the per-node adjacency buckets of ``after`` that are not ``before``'s objects."""
    old, new = before.store, after.store
    return sum(
        new_index[node_id] is not old_index.get(node_id)
        for old_index, new_index in ((old._out, new._out), (old._in, new._in))
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
        graph = random_labeled_graph(80, 200, num_labels=3, num_edge_labels=2, seed=6, store=backend)
        reference = json.dumps(graph_to_dict(graph), sort_keys=True, default=str)
        delta = UpdateGenerator(seed=2).generate(graph, size=20)
        first_deletion = delta.deletions[0]
        # a valid prefix, then unit k deletes an edge the prefix already deleted
        delta.delete(first_deletion.source, first_deletion.target, first_deletion.label)
        with pytest.raises(UpdateError):
            apply_update(graph, delta)
        assert json.dumps(graph_to_dict(graph), sort_keys=True, default=str) == reference
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

    @pytest.mark.parametrize("backend", BACKENDS + ["sharded"])
    def test_level_bfs_matches_per_node_bfs(self, backend):
        source_graph = Graph("bfs", store="indexed")
        for index in range(40):
            source_graph.add_node(index, _COW_NODE_LABELS[index % 3])
        rng = random.Random(11)
        for _ in range(70):
            source_graph.add_edge(rng.randrange(40), rng.randrange(40), rng.choice(_COW_EDGE_LABELS))
        source_graph.add_edge(7, 7, "knows")  # self-loops must not stall or escape the walk
        if backend == "sharded":
            graphs = [
                ShardedStore.build(source_graph, num_shards=3, halo_hops=2).shard(index)
                for index in range(3)
            ]
        else:
            graphs = [source_graph.with_backend(backend)]
        for graph in graphs:
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
    graph = Graph(document.get("name", "G"), store=store)
    for entry in document["nodes"]:
        graph.add_node(entry["id"], entry["label"], entry.get("attributes", {}))
    for entry in document["edges"]:
        graph.add_edge(entry["source"], entry["target"], entry["label"])
    return graph


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


class TestOnePassBuild:
    """``graph_from_dict`` is one ``GraphStore.bulk_load``; the graph is the one mutation builds."""

    @settings(max_examples=150, deadline=None)
    @given(_documents())
    def test_bulk_build_is_the_build_by_mutation(self, document):
        for backend in BACKENDS:
            expected, expected_error = _outcome(_build_by_mutation, copy.deepcopy(document), backend)
            built, error = _outcome(graph_from_dict, copy.deepcopy(document), backend)
            assert gc.isenabled()
            assert error is expected_error, backend
            if error is not None:
                assert issubclass(error, _DOCUMENT_ERRORS), backend
                continue
            _assert_same_content(built.store, expected.store, signatures=True)
            _assert_same_order(built.store, expected.store, signatures=True)
            ids = list(expected.node_ids())
            assert [built.node_rank(i) for i in ids] == [expected.node_rank(i) for i in ids], backend
            assert graph_to_dict(built) == graph_to_dict(expected), backend
            assert graph_to_dict(graph_from_dict(graph_to_dict(built), store=backend)) == graph_to_dict(built)

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
            graph_from_dict(document, store=backend)
        assert type(caught.value) is error
        assert gc.isenabled(), "the collector stays paused after a build that raised"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_identical_node_again_is_a_no_op_and_ranks_follow_the_document(self, backend):
        node = {"id": "b", "label": "person", "attributes": {"val": 1}}
        document = {
            "nodes": [node, {"id": "a", "label": "city"}, dict(node), {"id": "b", "label": "person", "attributes": {"val": 1}}],
            "edges": [{"source": "b", "target": "a", "label": "near"}] * 2,
        }  # fmt: skip
        graph = graph_from_dict(document, store=backend)
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


# ------------------------------------------------------------ frozen CSR store


class TestCsrStore:
    """The ROADMAP's frozen compressed-sparse-row engine."""

    def _sample_graph(self) -> Graph:
        graph = random_labeled_graph(300, 700, num_labels=8, num_edge_labels=5, seed=11)
        return graph

    def test_with_backend_round_trip_and_adjacency_parity(self):
        graph = self._sample_graph()
        csr = graph.with_backend("csr")
        assert csr.store_backend == "csr"
        assert csr == graph
        csr.validate_consistency()
        for node in graph.nodes():
            assert frozenset(graph.successors(node.id)) == frozenset(csr.successors(node.id))
            assert frozenset(graph.predecessors(node.id)) == frozenset(csr.predecessors(node.id))
            assert graph.degree(node.id) == csr.degree(node.id)
            assert graph.neighbours(node.id) == csr.neighbours(node.id)
            assert frozenset(graph.out_edge_labels(node.id)) == frozenset(csr.out_edge_labels(node.id))
            for label in graph.edge_labels():
                assert frozenset(graph.successors_by_label(node.id, label)) == frozenset(
                    csr.successors_by_label(node.id, label)
                )
                assert frozenset(graph.predecessors_by_label(node.id, label)) == frozenset(
                    csr.predecessors_by_label(node.id, label)
                )

    def test_mutation_raises_after_freeze(self):
        graph = self._sample_graph().with_backend("csr")
        graph.node_rank(next(iter(graph.node_ids())))  # building reads don't freeze
        list(graph.successors(next(iter(graph.node_ids()))))  # adjacency read freezes
        assert graph.store.frozen
        some_edge = next(iter(graph.edges()))
        with pytest.raises(GraphError):
            graph.add_node("fresh", "label")
        with pytest.raises(GraphError):
            graph.add_edge(some_edge.source, some_edge.target, "new-label")
        with pytest.raises(GraphError):
            graph.set_attribute(some_edge.source, "val", 1)

    def test_removal_refused_even_while_building(self):
        graph = Graph(store="csr")
        graph.add_node("a", "x")
        graph.add_node("b", "x")
        graph.add_edge("a", "b", "e")
        with pytest.raises(GraphError):
            graph.remove_edge("a", "b", "e")
        with pytest.raises(GraphError):
            graph.remove_node("a")

    def test_apply_update_refused_on_frozen_graph(self):
        graph = self._sample_graph().with_backend("csr")
        generator = UpdateGenerator(seed=3)
        delta = generator.generate(graph, size=5)
        with pytest.raises(GraphError):
            apply_update(graph, delta)

    def test_induced_subgraph_and_signature_queries(self):
        graph = self._sample_graph()
        csr = graph.with_backend("csr")
        wanted = sorted(graph.node_ids())[:60]
        assert csr.induced_subgraph(wanted) == graph.induced_subgraph(wanted)
        for edge in list(graph.edges())[:25]:
            signature = (
                graph.node(edge.source).label,
                edge.label,
                graph.node(edge.target).label,
            )
            expected = {e.key() for e in graph.edges_with_signature(*signature)}
            assert {e.key() for e in csr.edges_with_signature(*signature)} == expected

    def test_views_support_len_contains_and_set_operations(self):
        graph = Graph(store="csr")
        for name in ("a", "b", "c", "d"):
            graph.add_node(name, "person")
        graph.add_edge("a", "b", "knows")
        graph.add_edge("a", "c", "knows")
        graph.add_edge("a", "d", "likes")
        view = graph.successors_by_label("a", "knows")
        assert len(view) == 2
        assert "b" in view and "d" not in view
        assert view == frozenset({"b", "c"})
        assert set(view) & {"b", "zz"} == {"b"}
        pairs = graph.successors("a")
        assert len(pairs) == 3
        assert ("d", "likes") in pairs and ("d", "knows") not in pairs

    def test_detection_matches_mutable_backends(self):
        graph = self._sample_graph()
        rules = _random_rules(0)
        # the random schema has no 'person' labels here; use label-wildcard rules
        pattern = Pattern.from_edges(
            "link", nodes=[("x", WILDCARD), ("y", WILDCARD)], edges=[("x", "y", "e0")]
        )
        rules = [NGD.from_text(pattern, "", "x.val >= y.val", name="wild_order")]
        expected = frozenset(dect(graph, rules).violations)
        got = dect(graph.with_backend("csr"), rules)
        assert frozenset(got.violations) == expected
        assert got.violations


# ----------------------------------------------------------- persistent engine


class TestPersistentStore:
    """Durability-specific behaviour of the SQLite-backed ``persistent`` engine.

    Cross-backend parity (violations, determinism, index consistency) is
    covered by the parametrized suites above, which auto-enroll every
    registered engine; here we exercise what only a disk-backed store has:
    close/reopen round trips, rank persistence across removals, and clone
    isolation from the backing file.
    """

    def _populated(self, path):
        from repro.storage import PersistentStore

        store = PersistentStore(path)
        graph = Graph("durable", store=store)
        graph.add_node("a", "person", {"val": 3})
        graph.add_node("b", "person", {"val": 5})
        graph.add_node("c", "city", {"val": -1})
        graph.add_edge("a", "b", "knows")
        graph.add_edge("b", "c", "near")
        return graph

    def test_registered_in_engine_registry(self):
        assert "persistent" in STORE_REGISTRY
        assert STORE_REGISTRY["persistent"].supports_mutation

    def test_reopen_round_trip_preserves_content_and_ranks(self, tmp_path):
        from repro.storage import PersistentStore

        path = str(tmp_path / "graph.db")
        graph = self._populated(path)
        graph.remove_node("b")  # leaves a rank gap that must survive reopen
        graph.add_node("d", "person", {"val": 9})
        expected_ranks = {n.id: graph.store.node_rank(n.id) for n in graph.nodes()}
        graph.store.close()

        reopened = Graph("durable", store=PersistentStore.open(path))
        assert sorted(reopened.node_ids()) == ["a", "c", "d"]
        assert {n.id: reopened.store.node_rank(n.id) for n in reopened.nodes()} == expected_ranks
        assert reopened.node("d").attributes["val"] == 9
        assert not reopened.has_edge("a", "b", "knows")
        reopened.store.validate()

    def test_reopened_graph_detects_identically(self, tmp_path):
        from repro.storage import PersistentStore

        path = str(tmp_path / "parity.db")
        reference, _ = _mutated_pair(3)
        store = PersistentStore(path)
        durable = Graph("parity", store=store)
        for node in reference.nodes():
            durable.add_node(node.id, node.label, dict(node.attributes))
        for edge in reference.edges():
            durable.add_edge(edge.source, edge.target, edge.label)
        store.flush()
        store.close()
        reopened = Graph("parity", store=PersistentStore.open(path))
        rules = _random_rules(3)
        assert frozenset(dect(reopened, rules).violations) == frozenset(
            dect(reference, rules).violations
        )

    def test_clone_is_independent_of_backing_file(self, tmp_path):
        graph = self._populated(str(tmp_path / "clone.db"))
        snapshot = graph.copy()
        graph.remove_node("a")
        assert snapshot.has_node("a")
        assert snapshot.has_edge("a", "b", "knows")
        assert not graph.has_node("a")
        snapshot.store.validate()
        graph.store.validate()

    def test_nested_tuple_node_ids_round_trip(self, tmp_path):
        from repro.storage import PersistentStore

        path = str(tmp_path / "nested.db")
        store = PersistentStore(path)
        graph = Graph("nested", store=store)
        graph.add_node(("a", (1, 2)), "person", {"val": 1})
        graph.add_node(("b", ("x", (3,))), "person", {"val": 2})
        graph.add_edge(("a", (1, 2)), ("b", ("x", (3,))), "knows")
        store.close()

        # ('a', (1, 2)) must decode back to itself, not the unhashable
        # ('a', [1, 2]) — the store may not accept ids it cannot read back
        reopened = Graph("nested", store=PersistentStore.open(path))
        assert reopened.has_node(("a", (1, 2)))
        assert reopened.has_edge(("a", (1, 2)), ("b", ("x", (3,))), "knows")
        assert reopened.node(("a", (1, 2))).attributes["val"] == 1
        reopened.store.validate()

    def test_non_json_attribute_values_are_rejected(self, tmp_path):
        from repro.storage import PersistentStore

        graph = Graph("strict", store=PersistentStore(str(tmp_path / "strict.db")))
        # default=str would silently persist str(object) and reopen with a
        # different value type than the live process held; fail loudly instead
        with pytest.raises(GraphError, match="JSON"):
            graph.add_node("a", "person", {"when": object()})

    def test_file_backed_store_defaults_to_crash_safe_journal(self, tmp_path):
        from repro.storage import PersistentStore

        safe = PersistentStore(str(tmp_path / "safe.db"))
        assert safe._connection.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        safe.close()
        fast = PersistentStore(str(tmp_path / "fast.db"), fast_unsafe=True)
        assert fast._connection.execute("PRAGMA journal_mode").fetchone()[0] == "memory"
        fast.close()

    def test_csr_image_is_cached_and_invalidated(self, tmp_path):
        graph = self._populated(str(tmp_path / "csr.db"))
        first = graph.store.csr_store()
        assert graph.store.csr_store() is first
        graph.add_node("z", "person", {"val": 0})
        rebuilt = graph.store.csr_store()
        assert rebuilt is not first
        assert rebuilt.has_node("z")

    def test_non_json_node_ids_are_refused(self, tmp_path):
        graph = Graph(store="persistent")
        with pytest.raises(GraphError):
            graph.add_node(object(), "person")

    def test_detection_parity_across_execution_modes(self):
        """Acceptance: persistent detection is byte-identical to indexed
        across serial, simulated and process execution."""
        from repro.detect import DetectionOptions, Detector
        from repro.datasets.rules import benchmark_rules
        from repro.datasets.kb import KBConfig, knowledge_graph

        config = KBConfig(
            name="persist-parity",
            num_entities=60,
            num_entity_types=4,
            num_value_relations=3,
            num_link_relations=2,
            values_per_entity=2,
            links_per_entity=1.0,
            seed=11,
        )
        base = knowledge_graph(config)
        rules = benchmark_rules(base, count=4, max_diameter=3, seed=11)
        reference = frozenset(dect(base, rules).violations)
        assert reference, "workload must produce violations for parity to mean anything"

        durable = base.with_backend("persistent")
        serial = Detector(rules, engine="batch").run(durable)
        assert frozenset(serial.violations) == reference
        simulated = Detector(rules, engine="parallel", processors=2).run(durable)
        assert frozenset(simulated.violations) == reference
        processes = Detector(
            rules,
            engine="parallel",
            processors=2,
            options=DetectionOptions(execution="processes"),
        ).run(durable)
        assert frozenset(processes.violations) == reference
