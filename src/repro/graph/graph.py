"""Directed property graphs.

The paper (Section 2) works with directed graphs ``G = (V, E, L, F_A)``:

* ``V`` — a finite set of nodes;
* ``E ⊆ V × V`` — directed edges, each carrying a label;
* ``L`` — a labelling function on nodes and edges;
* ``F_A`` — for each node, a tuple of attribute/value pairs carrying the
  node's content (numbers, strings, dates).

:class:`Graph` is a *facade*: it owns the semantics of the model (duplicate
and missing-node errors, wildcard labels, subgraph construction) and
delegates the physical layout to a pluggable storage engine
(:mod:`repro.graph.store`).  The engine provides the indexes the detection
algorithms need:

* forward and reverse adjacency (``successors`` / ``predecessors``), plus
  the label-filtered forms (``successors_by_label`` and friends) the
  matchers use so candidate filtering costs O(result), not O(degree);
* a label index over nodes (``nodes_with_label``) used for candidate
  selection in pattern matching;
* a deterministic insertion-order rank (``node_rank``) giving the matchers
  a cheap, stable candidate ordering.

A graph lives on the mutable ``indexed`` engine unless it is loaded onto the
read-only ``frozen`` engine (``load_graph(path, store="frozen")`` or
``graph.with_backend("frozen")``) or handed a store instance.

Unlike the formal model, parallel edges with *different labels* between the
same pair of nodes are allowed (real knowledge graphs have them); a second
edge with the same label is a no-op.  Node attribute values may be integers,
floats, or strings — literals only ever see the numeric ones.

Adjacency and label reads may return live zero-copy views (depending on the
engine): do not mutate the graph while iterating one.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Optional, Union

from repro.errors import DuplicateNode, EdgeNotFound, NodeNotFound
from repro.graph.model import WILDCARD, Edge, Node
from repro.graph.store import GraphStore, make_store

__all__ = ["Node", "Edge", "Graph", "WILDCARD"]


class Graph:
    """A directed property graph over a pluggable storage engine.

    All mutating operations keep the engine's indexes consistent; the facade
    itself holds no graph state beyond the engine and the name.
    """

    __slots__ = ("name", "_store")

    def __init__(self, name: str = "G", store: Union[str, GraphStore, None] = None) -> None:
        self.name = name
        self._store = make_store(store)

    # ------------------------------------------------------------------ store

    @property
    def store(self) -> GraphStore:
        """Return the backing storage engine."""
        return self._store

    @property
    def store_backend(self) -> str:
        """Return the registry name of the backing engine (e.g. ``"indexed"``)."""
        return self._store.backend

    def with_backend(self, store: Union[str, GraphStore], name: Optional[str] = None) -> "Graph":
        """Return a copy of this graph rebuilt on another storage engine.

        One :meth:`~repro.graph.store.GraphStore.bulk_load`, as
        :func:`~repro.graph.io.graph_from_dict` builds: how a graph reaches
        the read-only ``frozen`` engine, and how the tests put identical
        data on each engine they compare.
        """
        converted = Graph(name or self.name, store=store)
        converted._store.bulk_load(
            ((node.id, node.label, node.attributes) for node in self._store.nodes()),
            (edge.key() for edge in self._store.edges()),
        )
        return converted

    # ------------------------------------------------------------------ nodes

    def add_node(
        self,
        node_id: Hashable,
        label: str,
        attributes: Optional[Mapping[str, object]] = None,
    ) -> Node:
        """Add a node and return it.

        Re-adding an identical node is a no-op; re-adding with a different
        label or attributes raises :class:`DuplicateNode`.
        """
        existing = self._store.get_node(node_id)
        if existing is not None:
            if existing.label == label and dict(existing.attributes) == dict(attributes or {}):
                return existing
            raise DuplicateNode(node_id)
        node = Node(node_id, label, dict(attributes or {}))
        self._store.add_node(node)
        return self._store.get_node(node_id)  # engines may intern the label

    def node(self, node_id: Hashable) -> Node:
        """Return the node with id ``node_id`` or raise :class:`NodeNotFound`."""
        node = self._store.get_node(node_id)
        if node is None:
            raise NodeNotFound(node_id)
        return node

    def has_node(self, node_id: Hashable) -> bool:
        """Return True when ``node_id`` is in the graph."""
        return self._store.has_node(node_id)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes in insertion order."""
        return self._store.nodes()

    def node_ids(self) -> Iterator[Hashable]:
        """Iterate over all node ids in insertion order."""
        return self._store.node_ids()

    def node_rank(self, node_id: Hashable) -> int:
        """Return the node's deterministic insertion-order rank.

        ``sorted(ids, key=graph.node_rank)`` reproduces insertion order with
        an O(1) key; the matchers use it for stable candidate enumeration.
        """
        return self._store.node_rank(node_id)

    def nodes_with_label(self, label: str):
        """Return the ids of all nodes carrying ``label`` (read-only set).

        The wildcard label returns every node id, matching the pattern
        semantics of Section 2 (wildcard matches any label).  Depending on
        the engine the result may be a live zero-copy view.
        """
        if label == WILDCARD:
            return self._store.all_node_ids()
        return self._store.nodes_with_label(label)

    def set_attribute(self, node_id: Hashable, name: str, value: object) -> Node:
        """Set attribute ``name`` of node ``node_id`` to ``value`` and return the new node."""
        updated = self.node(node_id).with_attribute(name, value)
        self._store.replace_node(updated)
        return updated

    def remove_node(self, node_id: Hashable) -> None:
        """Remove a node and all edges incident to it."""
        if not self._store.has_node(node_id):
            raise NodeNotFound(node_id)
        for neighbour, label in list(self._store.successors(node_id)):
            self._store.remove_edge((node_id, neighbour, label))
        for neighbour, label in list(self._store.predecessors(node_id)):
            self._store.remove_edge((neighbour, node_id, label))
        self._store.remove_node(node_id)

    # ------------------------------------------------------------------ edges

    def add_edge(self, source: Hashable, target: Hashable, label: str) -> Edge:
        """Add a labelled edge; endpoints must already exist.

        Adding an edge that is already present is a no-op and returns the
        existing edge object.
        """
        if not self._store.has_node(source):
            raise NodeNotFound(source)
        if not self._store.has_node(target):
            raise NodeNotFound(target)
        key = (source, target, label)
        existing = self._store.get_edge(key)
        if existing is not None:
            return existing
        self._store.add_edge(Edge(source, target, label))
        return self._store.get_edge(key)

    def edge(self, source: Hashable, target: Hashable, label: str) -> Edge:
        """Return the edge or raise :class:`EdgeNotFound`."""
        found = self._store.get_edge((source, target, label))
        if found is None:
            raise EdgeNotFound(source, target, label)
        return found

    def has_edge(self, source: Hashable, target: Hashable, label: Optional[str] = None) -> bool:
        """Return True when an edge from ``source`` to ``target`` exists.

        When ``label`` is None, any label counts.
        """
        if label is not None:
            return self._store.has_edge_key((source, target, label))
        return self._store.has_any_edge(source, target)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in insertion order."""
        return self._store.edges()

    def remove_edge(self, source: Hashable, target: Hashable, label: str) -> None:
        """Remove an edge; raises :class:`EdgeNotFound` when absent."""
        key = (source, target, label)
        if not self._store.has_edge_key(key):
            raise EdgeNotFound(source, target, label)
        self._store.remove_edge(key)

    # -------------------------------------------------------------- adjacency

    def successors(self, node_id: Hashable):
        """Return the ``(target id, edge label)`` pairs leaving ``node_id`` (read-only set)."""
        if not self._store.has_node(node_id):
            raise NodeNotFound(node_id)
        return self._store.successors(node_id)

    def predecessors(self, node_id: Hashable):
        """Return the ``(source id, edge label)`` pairs entering ``node_id`` (read-only set)."""
        if not self._store.has_node(node_id):
            raise NodeNotFound(node_id)
        return self._store.predecessors(node_id)

    def successors_by_label(self, node_id: Hashable, edge_label: str):
        """Return the target ids reachable from ``node_id`` over ``edge_label`` edges.

        The label-filtered access path of the matchers: on the indexed engine
        this is an O(result) index probe with no copying.
        """
        if not self._store.has_node(node_id):
            raise NodeNotFound(node_id)
        return self._store.successors_by_label(node_id, edge_label)

    def predecessors_by_label(self, node_id: Hashable, edge_label: str):
        """Return the source ids reaching ``node_id`` over ``edge_label`` edges."""
        if not self._store.has_node(node_id):
            raise NodeNotFound(node_id)
        return self._store.predecessors_by_label(node_id, edge_label)

    def out_edge_labels(self, node_id: Hashable):
        """Return the set of edge labels leaving ``node_id`` (read-only set).

        Used by candidate filtering for the degree-signature check without
        materializing the adjacency list.
        """
        if not self._store.has_node(node_id):
            raise NodeNotFound(node_id)
        return self._store.out_edge_labels(node_id)

    def in_edge_labels(self, node_id: Hashable):
        """Return the set of edge labels entering ``node_id`` (read-only set)."""
        if not self._store.has_node(node_id):
            raise NodeNotFound(node_id)
        return self._store.in_edge_labels(node_id)

    def neighbours(self, node_id: Hashable) -> frozenset[Hashable]:
        """Return ids adjacent to ``node_id`` ignoring direction and labels."""
        if not self._store.has_node(node_id):
            raise NodeNotFound(node_id)
        return self._store.neighbour_ids(node_id)

    def degree(self, node_id: Hashable) -> int:
        """Return the total (in + out) degree of ``node_id``."""
        if not self._store.has_node(node_id):
            raise NodeNotFound(node_id)
        return self._store.out_degree(node_id) + self._store.in_degree(node_id)

    def adjacency_size(self, node_id: Hashable) -> int:
        """Alias of :meth:`degree`; the cost model of PIncDect uses |v.adj|."""
        return self.degree(node_id)

    # ------------------------------------------------------------- subgraphs

    def induced_subgraph(self, node_ids: Iterable[Hashable], name: Optional[str] = None) -> "Graph":
        """Return the subgraph induced by ``node_ids`` (Section 2).

        The result contains exactly the requested nodes (with their labels and
        attributes) and every edge of this graph whose endpoints both fall in
        the requested set.  Built from the adjacency of the wanted nodes —
        O(sum of their degrees) — rather than scanning all of E, so extracting
        a d-neighbourhood of a large sparse graph costs only the neighbourhood.
        The result uses the same storage backend as this graph and is built by
        one :meth:`~repro.graph.store.GraphStore.bulk_load`, so it works on the
        read-only engine too.
        """
        wanted = set(node_ids)
        store = self._store
        missing = [node_id for node_id in wanted if not store.has_node(node_id)]
        if missing:
            raise NodeNotFound(sorted(missing, key=repr)[0])
        sub = Graph(name or f"{self.name}[induced]", store=store.fresh())
        nodes = map(store.get_node, sorted(wanted, key=store.node_rank))
        sub._store.bulk_load(
            ((node.id, node.label, node.attributes) for node in nodes),
            (edge.key() for edge in store.edges_between(wanted)),
        )
        return sub

    def copy(self, name: Optional[str] = None) -> "Graph":
        """Return an independent copy of this graph (same backend).

        Uses the engine's :meth:`~repro.graph.store.GraphStore.clone` instead
        of re-inserting every node and edge through the checked facade
        operations.  Writes to either graph never show in the other.  On the
        indexed engine the copy is O(1): the copy becomes the head and takes
        the maps, and this graph becomes a past version that reads them
        through an undo log (writing to it, or scanning all of it, first
        rebuilds it in maps of its own).
        """
        return Graph(name or self.name, store=self._store.clone())

    def is_subgraph_of(self, other: "Graph") -> bool:
        """Return True when every node and edge of this graph occurs in ``other``.

        Node labels and attributes must agree exactly, per the subgraph
        definition in Section 2 of the paper.  Backends may differ.
        """
        for node in self._store.nodes():
            other_node = other._store.get_node(node.id)
            if other_node is None:
                return False
            if other_node.label != node.label:
                return False
            if dict(other_node.attributes) != dict(node.attributes):
                return False
        return all(other._store.has_edge_key(edge.key()) for edge in self._store.edges())

    # ------------------------------------------------------------- statistics

    def node_count(self) -> int:
        """Return |V|."""
        return self._store.node_count()

    def edge_count(self) -> int:
        """Return |E|."""
        return self._store.edge_count()

    def density(self) -> float:
        """Return |E| / (|V| * (|V| - 1)), the density measure used in Section 7."""
        n = self._store.node_count()
        if n <= 1:
            return 0.0
        return self._store.edge_count() / (n * (n - 1))

    def average_degree(self) -> float:
        """Return the average total degree."""
        if not self._store.node_count():
            return 0.0
        return 2 * self._store.edge_count() / self._store.node_count()

    def labels(self) -> frozenset[str]:
        """Return the set of node labels present in the graph."""
        return self._store.labels()

    def edge_labels(self) -> frozenset[str]:
        """Return the set of edge labels present in the graph."""
        return self._store.edge_labels()

    # ---------------------------------------------------------------- dunders

    def __contains__(self, node_id: Hashable) -> bool:
        return self._store.has_node(node_id)

    def __len__(self) -> int:
        return self._store.node_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same_nodes = {n.id: (n.label, dict(n.attributes)) for n in self.nodes()} == {
            n.id: (n.label, dict(n.attributes)) for n in other.nodes()
        }
        return same_nodes and {e.key() for e in self.edges()} == {e.key() for e in other.edges()}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Graph({self.name!r}, |V|={self._store.node_count()}, "
            f"|E|={self._store.edge_count()}, store={self._store.backend!r})"
        )

    # ---------------------------------------------------------------- helpers

    def total_size(self) -> int:
        """Return |V| + |E|, the size measure |G| used in the complexity analyses."""
        return self._store.node_count() + self._store.edge_count()

    def validate_consistency(self) -> None:
        """Check internal index consistency; raises :class:`GraphError` on corruption.

        Intended for tests and for use after bulk operations; the cost is
        linear in |G|.  Each engine validates its own index structures.
        """
        self._store.validate()
