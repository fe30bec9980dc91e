"""The storage oracle: the flat, copy-on-read engine the parity suites check the shipped ones against.

:class:`DictStore` is the layout the project started with, kept because it
is simple enough to check by reading: one flat ``{(neighbour, edge_label)}``
map per node and direction, label-filtered reads that scan and filter,
defensive copies and an eager ``clone``.  It is not registered
in :data:`repro.graph.store.STORE_REGISTRY`; a test builds one directly
(``Graph(store=DictStore())``) or by name through :mod:`engines`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Set as AbstractSet
from typing import Optional

from repro.errors import GraphError
from repro.graph.model import Edge, Node
from repro.graph.store import EdgeKey, GraphStore

__all__ = ["DictStore"]

_EMPTY_DICT: dict = {}


class DictStore(GraphStore):
    """The reference engine: flat adjacency maps with copy-on-read semantics.

    This preserves the behaviour (and cost profile) of the original in-Graph
    layout: adjacency is one flat ``{(neighbour, edge_label)}`` collection per
    node and direction, every read returns a defensive copy (a ``frozenset``,
    or for the label index and a label-filtered view a fresh dict's keys,
    which keep the rank order the contract asks for), and label-filtered
    lookups scan, filter and sort the whole adjacency list.  It
    exists as the easy-to-audit baseline the parity suite and the storage
    benchmarks compare :class:`IndexedStore` against.

    (The flat collections are insertion-ordered dicts used as sets, so edge
    iteration stays deterministic across interpreter runs; the keying and the
    read costs are unchanged from the original implementation.)
    """

    backend = "dict"

    def __init__(self) -> None:
        self._nodes: dict[Hashable, Node] = {}
        self._rank: dict[Hashable, int] = {}
        self._next_rank = 0
        self._edges: dict[EdgeKey, Edge] = {}
        # adjacency: node id -> ordered set of (neighbour id, edge label)
        self._out: dict[Hashable, dict[tuple[Hashable, str], None]] = {}
        self._in: dict[Hashable, dict[tuple[Hashable, str], None]] = {}
        self._label_index: dict[str, dict[Hashable, None]] = {}

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> None:
        self._nodes[node.id] = node
        self._rank[node.id] = self._next_rank
        self._next_rank += 1
        self._out[node.id] = {}
        self._in[node.id] = {}
        self._label_index.setdefault(node.label, {})[node.id] = None

    def replace_node(self, node: Node) -> None:
        self._nodes[node.id] = node

    def remove_node(self, node_id: Hashable) -> None:
        node = self._nodes.pop(node_id)
        del self._rank[node_id]
        self._out.pop(node_id, None)
        self._in.pop(node_id, None)
        bucket = self._label_index.get(node.label)
        if bucket is not None:
            bucket.pop(node_id, None)
            if not bucket:
                del self._label_index[node.label]

    def get_node(self, node_id: Hashable) -> Optional[Node]:
        return self._nodes.get(node_id)

    def has_node(self, node_id: Hashable) -> bool:
        return node_id in self._nodes

    def node_count(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[Hashable]:
        return iter(self._nodes.keys())

    def all_node_ids(self):
        return dict.fromkeys(self._nodes).keys()

    def node_rank(self, node_id: Hashable) -> int:
        return self._rank[node_id]

    def nodes_with_label(self, label: str):
        return dict.fromkeys(self._label_index.get(label, _EMPTY_DICT)).keys()

    def labels(self) -> frozenset[str]:
        return frozenset(self._label_index.keys())

    # ------------------------------------------------------------------ edges

    def add_edge(self, edge: Edge) -> None:
        key = edge.key()
        self._edges[key] = edge
        self._out[edge.source][(edge.target, edge.label)] = None
        self._in[edge.target][(edge.source, edge.label)] = None

    def remove_edge(self, key: EdgeKey) -> None:
        source, target, label = key
        del self._edges[key]
        self._out[source].pop((target, label), None)
        self._in[target].pop((source, label), None)

    def get_edge(self, key: EdgeKey) -> Optional[Edge]:
        return self._edges.get(key)

    def has_edge_key(self, key: EdgeKey) -> bool:
        return key in self._edges

    def has_any_edge(self, source: Hashable, target: Hashable) -> bool:
        return any(nbr == target for nbr, _ in self._out.get(source, _EMPTY_DICT))

    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def edge_labels(self) -> frozenset[str]:
        return frozenset(edge.label for edge in self._edges.values())

    # -------------------------------------------------------------- adjacency

    def successors(self, node_id: Hashable) -> frozenset[tuple[Hashable, str]]:
        return frozenset(self._out[node_id])

    def predecessors(self, node_id: Hashable) -> frozenset[tuple[Hashable, str]]:
        return frozenset(self._in[node_id])

    def successors_by_label(self, node_id: Hashable, edge_label: str):
        return self._ranked(nbr for nbr, label in self._out[node_id] if label == edge_label)

    def predecessors_by_label(self, node_id: Hashable, edge_label: str):
        return self._ranked(nbr for nbr, label in self._in[node_id] if label == edge_label)

    def _ranked(self, ids: Iterable[Hashable]):
        """A fresh dict's keys of ``ids`` in rank order, the order the contract gives a label-filtered view."""
        return dict.fromkeys(sorted(ids, key=self._rank.__getitem__)).keys()

    def out_edge_labels(self, node_id: Hashable) -> frozenset[str]:
        return frozenset(label for _, label in self._out[node_id])

    def in_edge_labels(self, node_id: Hashable) -> frozenset[str]:
        return frozenset(label for _, label in self._in[node_id])

    def out_degree(self, node_id: Hashable) -> int:
        return len(self._out[node_id])

    def in_degree(self, node_id: Hashable) -> int:
        return len(self._in[node_id])

    def neighbours_of(self, node_ids: Iterable[Hashable]) -> set[Hashable]:
        ids: set[Hashable] = set()
        for node_id in node_ids:
            ids.update(nbr for nbr, _ in self._out[node_id])
            ids.update(nbr for nbr, _ in self._in[node_id])
        return ids

    def edges_between(self, wanted: AbstractSet) -> Iterator[Edge]:
        # walk the insertion-ordered adjacency dicts directly, not the
        # frozenset copies successors() returns, whose order is hash-dependent
        edges = self._edges
        for node_id in sorted(wanted, key=self._rank.__getitem__):
            for target, label in self._out[node_id]:
                if target in wanted:
                    yield edges[(node_id, target, label)]

    # ------------------------------------------------------------- lifecycle

    def clone(self) -> "DictStore":
        other = DictStore()
        other._nodes = dict(self._nodes)
        other._rank = dict(self._rank)
        other._next_rank = self._next_rank
        other._edges = dict(self._edges)
        other._out = {node: dict(pairs) for node, pairs in self._out.items()}
        other._in = {node: dict(pairs) for node, pairs in self._in.items()}
        other._label_index = {label: dict(ids) for label, ids in self._label_index.items()}
        return other

    def validate(self) -> None:
        for (source, target, label), edge in self._edges.items():
            if source not in self._nodes or target not in self._nodes:
                raise GraphError(f"edge {edge!r} references a missing node")
            if (target, label) not in self._out.get(source, _EMPTY_DICT):
                raise GraphError(f"out-adjacency missing for {edge!r}")
            if (source, label) not in self._in.get(target, _EMPTY_DICT):
                raise GraphError(f"in-adjacency missing for {edge!r}")
        for label, ids in self._label_index.items():
            for node_id in ids:
                node = self._nodes.get(node_id)
                if node is None or node.label != label:
                    raise GraphError(f"label index corrupt for label {label!r}, node {node_id!r}")
        for node_id in self._nodes:
            if node_id not in self._rank:
                raise GraphError(f"missing insertion rank for node {node_id!r}")
