"""Storage engines behind the :class:`~repro.graph.graph.Graph` facade.

The detection algorithms (``Matchn``, ``Dect``, ``IncDect`` and the simulated
parallel variants) bottom out in adjacency lookups, so the physical layout of
the adjacency indexes dominates the hot path.  This module separates that
layout from the graph *semantics*:

* :class:`GraphStore` — the storage contract: node/edge CRUD, label-filtered
  adjacency, the label and edge-signature indexes, and a deterministic
  insertion-order rank used by the matchers in place of ``sorted(key=repr)``;
* :class:`IndexedStore` — the one layout, and the engine every graph gets
  unless asked otherwise: interned labels, adjacency keyed ``node ->
  edge_label -> neighbour ids`` so a label-filtered lookup is O(result)
  instead of O(degree), zero-copy read views, and copy-on-write clones;
* :class:`FrozenStore` — the read-only engine: the same layout, filled by one
  :meth:`~GraphStore.bulk_load` and sealed, so that it can be shared
  (snapshots, forked shard images) without a copy; its adjacency is linked
  on the first read.

The facade owns the *semantic* checks of single mutations (missing nodes,
duplicate edges, wildcard handling); ``add_node`` / ``add_edge`` and the
other mutators may assume their preconditions hold.  The one exception is
:meth:`GraphStore.bulk_load`, the build of a whole document, which makes
those checks itself so that each element is looked up and built once.  A new
engine drops in behind the same contract and is tested against the flat
reference engine of the test suite — see ``docs/ARCHITECTURE.md``.

Stores are selected by name through :func:`make_store`; without a name a
graph is stored on ``"indexed"``.
"""

from __future__ import annotations

import gc
import sys
from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable, Iterator, Mapping, Set as AbstractSet
from typing import Optional, Union

from repro.errors import DuplicateNode, GraphError, NodeNotFound
from repro.graph.model import Edge, Node

__all__ = [
    "GraphStore",
    "IndexedStore",
    "FrozenStore",
    "STORE_REGISTRY",
    "make_store",
]

EdgeKey = tuple[Hashable, Hashable, str]
Signature = tuple[str, str, str]

_EMPTY_DICT: dict = {}
#: Shared empty zero-copy view (a keys view over a dict nothing mutates).
_EMPTY_KEYS = _EMPTY_DICT.keys()
#: Positions in :attr:`IndexedStore._private`, one key set per bucket index.
_OUT, _IN, _LABELS, _SIGNATURES = range(4)


class _PairsView(AbstractSet):
    """Zero-copy view of ``(neighbour, edge_label)`` pairs over label-keyed adjacency.

    Backed by one node's ``{edge_label: {neighbour: None}}`` mapping of the
    :class:`IndexedStore`; the pair count is tracked by the store's degree
    counters and injected so ``len`` stays O(1).
    """

    __slots__ = ("_buckets", "_degrees", "_node_id")

    def __init__(self, buckets: dict, degrees: dict, node_id: Hashable) -> None:
        self._buckets = buckets
        self._degrees = degrees
        self._node_id = node_id

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, tuple) or len(item) != 2:
            return False
        neighbour, label = item
        return neighbour in self._buckets.get(label, _EMPTY_DICT)

    def __iter__(self) -> Iterator[tuple[Hashable, str]]:
        for label, neighbours in self._buckets.items():
            for neighbour in neighbours:
                yield (neighbour, label)

    def __len__(self) -> int:
        return self._degrees.get(self._node_id, 0)

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PairsView({set(self)!r})"


class GraphStore(ABC):
    """Storage contract shared by every graph backend.

    Mutators may assume the facade already enforced the semantic
    preconditions: endpoints of ``add_edge`` exist, ``remove_node`` is called
    only after incident edges are gone, keys passed to ``remove_edge`` are
    present.  Read methods return *read-only* collections; whether they are
    zero-copy views or defensive copies is up to the backend.
    """

    #: Registry name of the backend (``"indexed"`` or ``"frozen"``).
    backend: str = "abstract"

    #: False for the read-only engine (:class:`FrozenStore`): every mutator
    #: raises outside its one bulk build.  The parity suites use this to
    #: scope the interleaved-mutation tests to engines that support them.
    supports_mutation: bool = True

    def fresh(self) -> "GraphStore":
        """Return a new, empty store of the same backend."""
        return type(self)()

    # ------------------------------------------------------------------ nodes

    @abstractmethod
    def add_node(self, node: Node) -> None:
        """Store a new node (id known to be absent) and assign its rank."""

    @abstractmethod
    def replace_node(self, node: Node) -> None:
        """Replace the stored node with the same id (label unchanged)."""

    @abstractmethod
    def remove_node(self, node_id: Hashable) -> None:
        """Forget a node with no remaining incident edges."""

    @abstractmethod
    def get_node(self, node_id: Hashable) -> Optional[Node]:
        """Return the node or None."""

    @abstractmethod
    def has_node(self, node_id: Hashable) -> bool:
        """Return True when the id is stored."""

    @abstractmethod
    def node_count(self) -> int:
        """Return |V|."""

    @abstractmethod
    def nodes(self) -> Iterator[Node]:
        """Iterate nodes in insertion order."""

    @abstractmethod
    def node_ids(self) -> Iterator[Hashable]:
        """Iterate node ids in insertion order."""

    @abstractmethod
    def all_node_ids(self):
        """Return a read-only set-like collection of every node id."""

    @abstractmethod
    def node_rank(self, node_id: Hashable) -> int:
        """Return the node's deterministic insertion-order rank.

        Ranks are assigned monotonically when nodes are added and never
        reused, so ``sorted(ids, key=store.node_rank)`` reproduces insertion
        order with an O(1) key — the matcher's replacement for the old
        ``sorted(key=repr)`` determinism hack.
        """

    @abstractmethod
    def nodes_with_label(self, label: str):
        """Return a read-only set-like collection of ids carrying ``label``."""

    @abstractmethod
    def labels(self) -> frozenset[str]:
        """Return the node labels present."""

    # ------------------------------------------------------------------ edges

    @abstractmethod
    def add_edge(self, edge: Edge) -> None:
        """Store a new edge (key known to be absent, endpoints present)."""

    @abstractmethod
    def remove_edge(self, key: EdgeKey) -> None:
        """Forget a stored edge."""

    @abstractmethod
    def get_edge(self, key: EdgeKey) -> Optional[Edge]:
        """Return the edge or None."""

    @abstractmethod
    def has_edge_key(self, key: EdgeKey) -> bool:
        """Return True when the exact (source, target, label) edge is stored."""

    @abstractmethod
    def has_any_edge(self, source: Hashable, target: Hashable) -> bool:
        """Return True when any edge source -> target exists, whatever its label."""

    @abstractmethod
    def edge_count(self) -> int:
        """Return |E|."""

    @abstractmethod
    def edges(self) -> Iterator[Edge]:
        """Iterate edges in insertion order."""

    @abstractmethod
    def edge_labels(self) -> frozenset[str]:
        """Return the edge labels present."""

    @abstractmethod
    def edges_with_exact_signature(self, signature: Signature) -> list[Edge]:
        """Return edges matching a fully-specified (src label, edge label, dst label)."""

    @abstractmethod
    def signature_items(self) -> Iterator[tuple[Signature, list[Edge]]]:
        """Iterate the signature index (for wildcard queries in the facade)."""

    # -------------------------------------------------------------- adjacency

    @abstractmethod
    def successors(self, node_id: Hashable):
        """Return read-only ``(target, edge_label)`` pairs leaving the node."""

    @abstractmethod
    def predecessors(self, node_id: Hashable):
        """Return read-only ``(source, edge_label)`` pairs entering the node."""

    @abstractmethod
    def successors_by_label(self, node_id: Hashable, edge_label: str):
        """Return read-only target ids reachable over ``edge_label`` edges."""

    @abstractmethod
    def predecessors_by_label(self, node_id: Hashable, edge_label: str):
        """Return read-only source ids reaching the node over ``edge_label`` edges."""

    @abstractmethod
    def out_edge_labels(self, node_id: Hashable):
        """Return the read-only set of edge labels leaving the node."""

    @abstractmethod
    def in_edge_labels(self, node_id: Hashable):
        """Return the read-only set of edge labels entering the node."""

    @abstractmethod
    def out_degree(self, node_id: Hashable) -> int:
        """Return the number of outgoing edges."""

    @abstractmethod
    def in_degree(self, node_id: Hashable) -> int:
        """Return the number of incoming edges."""

    def neighbours_of(self, node_ids: Iterable[Hashable]) -> set[Hashable]:
        """Return the union of the ids adjacent to any of ``node_ids`` (all stored).

        One BFS level of the neighbourhood extraction, direction and labels
        ignored; backends override it to walk their adjacency layout directly,
        building one set per level instead of one per node.
        """
        ids: set[Hashable] = set()
        for node_id in node_ids:
            ids.update(nbr for nbr, _ in self.successors(node_id))
            ids.update(nbr for nbr, _ in self.predecessors(node_id))
        return ids

    def neighbour_ids(self, node_id: Hashable) -> frozenset[Hashable]:
        """Return ids adjacent to the node, ignoring direction and labels."""
        return frozenset(self.neighbours_of((node_id,)))

    def edges_between(self, wanted: AbstractSet) -> Iterator[Edge]:
        """Yield every stored edge with both endpoints in ``wanted``.

        Walks the adjacency of the wanted nodes (O(sum of their degrees))
        instead of scanning all of E; nodes are visited in rank order so the
        emission order is deterministic.
        """
        ordered = sorted(wanted, key=self.node_rank)
        for node_id in ordered:
            for target, label in self.successors(node_id):
                if target in wanted:
                    edge = self.get_edge((node_id, target, label))
                    if edge is not None:
                        yield edge

    # ------------------------------------------------------------- bulk build

    def bulk_load(
        self,
        nodes: Iterable[tuple[Hashable, str, Optional[Mapping[str, object]]]],
        edges: Iterable[EdgeKey],
    ) -> None:
        """Add ``(id, label, attributes)`` nodes, then ``(source, target, label)`` edges.

        The one-pass build behind :func:`repro.graph.io.graph_from_dict`.  It
        makes the facade's ``add_node`` / ``add_edge`` checks itself, once per
        element, in document order: a node id stored with the same label and
        attributes is skipped and with other data raises
        :class:`DuplicateNode`; an edge naming an absent endpoint raises
        :class:`NodeNotFound`; a stored edge is skipped.  Each ``Node`` and
        ``Edge`` is built once, with the label interned, and ranks follow
        the order of ``nodes``.

        The cyclic collector is paused meanwhile.  Everything the build
        allocates stays alive, so each full collection it would trigger walks
        the whole heap and frees nothing — a third of the build's time on a
        5 000-node document in a process that already holds two such graphs.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            get_node, add_node, intern = self.get_node, self.add_node, sys.intern
            for node_id, label, attributes in nodes:
                existing = get_node(node_id)
                if existing is None:
                    # interned here so that no engine rebuilds the node to intern it
                    if type(label) is str:
                        label = intern(label)
                    add_node(Node(node_id, label, dict(attributes or {})))
                elif existing.label != label or dict(existing.attributes) != dict(attributes or {}):
                    raise DuplicateNode(node_id)
            has_node, has_edge_key, add_edge = self.has_node, self.has_edge_key, self.add_edge
            for source, target, label in edges:
                if not has_node(source):
                    raise NodeNotFound(source)
                if not has_node(target):
                    raise NodeNotFound(target)
                if not has_edge_key((source, target, label)):
                    add_edge(Edge(source, target, intern(label) if type(label) is str else label))
        finally:
            if collecting:
                gc.enable()

    # ------------------------------------------------------------- lifecycle

    @abstractmethod
    def clone(self) -> "GraphStore":
        """Return an independent copy of this store (same backend).

        Writes to either side never show on the other; a backend may share
        unmodified structure between the two (:class:`IndexedStore` does),
        and one that takes no writes may return itself (:class:`FrozenStore`).
        """

    @abstractmethod
    def validate(self) -> None:
        """Check internal index consistency; raise :class:`GraphError` on corruption."""


class IndexedStore(GraphStore):
    """The optimized engine: label-keyed adjacency with zero-copy read views.

    * node and edge labels are interned (:func:`sys.intern`), so index probes
      compare by pointer on the hot path;
    * adjacency is ``node -> edge_label -> {neighbour: None}``, making
      ``successors_by_label`` O(result) instead of O(degree) — the lookup the
      matcher's candidate filtering performs per expansion step;
    * every read returns a live zero-copy view (a dict keys view, or
      :class:`_PairsView` for ``(neighbour, label)`` pairs) instead of a
      defensive frozenset copy;
    * degree counters keep ``len(successors(v))`` and the PIncDect cost model's
      ``|v.adj|`` O(1);
    * :meth:`clone` is copy-on-write: a clone shares every per-node adjacency
      bucket and every per-label / per-signature id bucket with its parent,
      and whichever side first writes a shared bucket copies that one bucket.

    All inner collections are insertion-ordered dicts, so iteration order —
    and therefore match enumeration order — is deterministic across runs
    regardless of string-hash randomization.
    """

    backend = "indexed"

    def __init__(self) -> None:
        self._nodes: dict[Hashable, Node] = {}
        self._rank: dict[Hashable, int] = {}
        self._next_rank = 0
        self._edges: dict[EdgeKey, Edge] = {}
        # adjacency: node id -> edge label -> ordered set of neighbour ids
        self._out: dict[Hashable, dict[str, dict[Hashable, None]]] = {}
        self._in: dict[Hashable, dict[str, dict[Hashable, None]]] = {}
        self._out_degree: dict[Hashable, int] = {}
        self._in_degree: dict[Hashable, int] = {}
        self._label_index: dict[str, dict[Hashable, None]] = {}
        # The signature index is built lazily on the first signature query
        # (None = not built) and maintained incrementally afterwards; batch
        # loads and subgraph extractions that never ask for signatures skip
        # its maintenance cost entirely.  Node labels never change after
        # insertion (replace_node only swaps attributes), so deferring the
        # build is safe.
        self._signatures: Optional[dict[Signature, dict[EdgeKey, None]]] = None
        # Copy-on-write state.  None until the first clone(): every bucket is
        # this store's alone and is written in place.  From then on, per
        # bucket index (_OUT, _IN, _LABELS, _SIGNATURES) the keys of the
        # buckets this store has copied since its last clone(); any other
        # bucket may be shared with a snapshot and is copied before a write.
        self._private: Optional[tuple[set, set, set, set]] = None

    # ---------------------------------------------------------- copy-on-write

    @staticmethod
    def _unshare_adjacency(index: dict, private: set, node_id: Hashable) -> None:
        """Replace one node's ``edge label -> neighbours`` buckets by a private copy."""
        if node_id not in private:
            index[node_id] = {label: dict(ids) for label, ids in index[node_id].items()}
            private.add(node_id)

    @staticmethod
    def _unshare_ids(index: dict, private: set, key: Hashable) -> None:
        """Replace one flat id bucket (label or signature index) by a private copy."""
        if key not in private:
            bucket = index.get(key)
            if bucket is not None:
                index[key] = dict(bucket)
            private.add(key)

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> None:
        node_id = self._store_node(node)
        self._out[node_id] = {}
        self._in[node_id] = {}
        self._out_degree[node_id] = 0
        self._in_degree[node_id] = 0

    def _store_node(self, node: Node) -> Hashable:
        """Record a node (label interned), its rank and its label-index entry; return its id."""
        label = sys.intern(node.label)
        if label is not node.label:
            node = Node(node.id, label, node.attributes)
        node_id = node.id
        self._nodes[node_id] = node
        self._rank[node_id] = self._next_rank
        self._next_rank += 1
        if self._private is not None:
            self._unshare_ids(self._label_index, self._private[_LABELS], label)
        bucket = self._label_index.get(label)
        if bucket is None:
            self._label_index[label] = bucket = {}
        bucket[node_id] = None
        return node_id

    def replace_node(self, node: Node) -> None:
        self._nodes[node.id] = node

    def remove_node(self, node_id: Hashable) -> None:
        node = self._nodes.pop(node_id)
        del self._rank[node_id]
        self._out.pop(node_id, None)
        self._in.pop(node_id, None)
        self._out_degree.pop(node_id, None)
        self._in_degree.pop(node_id, None)
        if self._private is not None:
            self._unshare_ids(self._label_index, self._private[_LABELS], node.label)
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
        return self._nodes.keys()

    def node_rank(self, node_id: Hashable) -> int:
        return self._rank[node_id]

    def nodes_with_label(self, label: str):
        bucket = self._label_index.get(label)
        return bucket.keys() if bucket is not None else _EMPTY_KEYS

    def labels(self) -> frozenset[str]:
        return frozenset(self._label_index.keys())

    # ------------------------------------------------------------------ edges

    def add_edge(self, edge: Edge) -> None:
        label = sys.intern(edge.label)
        if label is not edge.label:
            edge = Edge(edge.source, edge.target, label)
        source, target = edge.source, edge.target
        key = (source, target, label)
        self._edges[key] = edge
        private = self._private
        if private is not None:
            self._unshare_adjacency(self._out, private[_OUT], source)
            self._unshare_adjacency(self._in, private[_IN], target)
        out_buckets = self._out[source]
        bucket = out_buckets.get(label)
        if bucket is None:
            out_buckets[label] = bucket = {}
        bucket[target] = None
        in_buckets = self._in[target]
        bucket = in_buckets.get(label)
        if bucket is None:
            in_buckets[label] = bucket = {}
        bucket[source] = None
        self._out_degree[source] += 1
        self._in_degree[target] += 1
        if self._signatures is not None:
            signature = (self._nodes[source].label, label, self._nodes[target].label)
            if private is not None:
                self._unshare_ids(self._signatures, private[_SIGNATURES], signature)
            sig_bucket = self._signatures.get(signature)
            if sig_bucket is None:
                self._signatures[signature] = sig_bucket = {}
            sig_bucket[key] = None

    def remove_edge(self, key: EdgeKey) -> None:
        source, target, label = key
        del self._edges[key]
        private = self._private
        if private is not None:
            self._unshare_adjacency(self._out, private[_OUT], source)
            self._unshare_adjacency(self._in, private[_IN], target)
        out_bucket = self._out[source].get(label)
        if out_bucket is not None:
            out_bucket.pop(target, None)
            if not out_bucket:
                del self._out[source][label]
        in_bucket = self._in[target].get(label)
        if in_bucket is not None:
            in_bucket.pop(source, None)
            if not in_bucket:
                del self._in[target][label]
        self._out_degree[source] -= 1
        self._in_degree[target] -= 1
        if self._signatures is not None:
            signature = (self._nodes[source].label, label, self._nodes[target].label)
            if private is not None:
                self._unshare_ids(self._signatures, private[_SIGNATURES], signature)
            sig_bucket = self._signatures.get(signature)
            if sig_bucket is not None:
                sig_bucket.pop(key, None)
                if not sig_bucket:
                    del self._signatures[signature]

    def get_edge(self, key: EdgeKey) -> Optional[Edge]:
        return self._edges.get(key)

    def has_edge_key(self, key: EdgeKey) -> bool:
        return key in self._edges

    def has_any_edge(self, source: Hashable, target: Hashable) -> bool:
        buckets = self._out.get(source, _EMPTY_DICT)
        return any(target in neighbours for neighbours in buckets.values())

    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def edge_labels(self) -> frozenset[str]:
        labels: set[str] = set()
        for buckets in self._out.values():
            labels.update(buckets)
        return frozenset(labels)

    def _built_signatures(self) -> dict[Signature, dict[EdgeKey, None]]:
        """Build the signature index on first use (one O(|E|) pass)."""
        if self._signatures is None:
            nodes = self._nodes
            signatures: dict[Signature, dict[EdgeKey, None]] = {}
            for key, edge in self._edges.items():
                signature = (nodes[edge.source].label, edge.label, nodes[edge.target].label)
                bucket = signatures.get(signature)
                if bucket is None:
                    signatures[signature] = bucket = {}
                bucket[key] = None
            self._signatures = signatures
        return self._signatures

    def edges_with_exact_signature(self, signature: Signature) -> list[Edge]:
        keys = self._built_signatures().get(signature, _EMPTY_DICT)
        return [self._edges[key] for key in keys]

    def signature_items(self) -> Iterator[tuple[Signature, list[Edge]]]:
        for signature, keys in self._built_signatures().items():
            yield signature, [self._edges[key] for key in keys]

    # -------------------------------------------------------------- adjacency

    def successors(self, node_id: Hashable) -> _PairsView:
        return _PairsView(self._out[node_id], self._out_degree, node_id)

    def predecessors(self, node_id: Hashable) -> _PairsView:
        return _PairsView(self._in[node_id], self._in_degree, node_id)

    def successors_by_label(self, node_id: Hashable, edge_label: str):
        bucket = self._out[node_id].get(edge_label)
        return bucket.keys() if bucket is not None else _EMPTY_KEYS

    def predecessors_by_label(self, node_id: Hashable, edge_label: str):
        bucket = self._in[node_id].get(edge_label)
        return bucket.keys() if bucket is not None else _EMPTY_KEYS

    def out_edge_labels(self, node_id: Hashable):
        return self._out[node_id].keys()

    def in_edge_labels(self, node_id: Hashable):
        return self._in[node_id].keys()

    def out_degree(self, node_id: Hashable) -> int:
        return self._out_degree[node_id]

    def in_degree(self, node_id: Hashable) -> int:
        return self._in_degree[node_id]

    def neighbours_of(self, node_ids: Iterable[Hashable]) -> set[Hashable]:
        ids: set[Hashable] = set()
        out, inc = self._out, self._in
        for node_id in node_ids:
            for bucket in out[node_id].values():
                ids.update(bucket)
            for bucket in inc[node_id].values():
                ids.update(bucket)
        return ids

    def edges_between(self, wanted: AbstractSet) -> Iterator[Edge]:
        edges = self._edges
        for node_id in sorted(wanted, key=self._rank.__getitem__):
            for label, bucket in self._out[node_id].items():
                for target in bucket:
                    if target in wanted:
                        yield edges[(node_id, target, label)]

    # ------------------------------------------------------------- lifecycle

    def clone(self) -> "IndexedStore":
        """Return a copy-on-write clone: flat maps copied, every bucket shared.

        The clone gets its own top-level dicts (pointer copies) and shares
        each per-node, per-label and per-signature bucket with this store.
        Both sides forget which buckets they had to themselves: a bucket
        reachable from two stores must not be written in place by either.
        """
        other = IndexedStore()
        other._nodes = dict(self._nodes)
        other._rank = dict(self._rank)
        other._next_rank = self._next_rank
        other._edges = dict(self._edges)
        other._out = dict(self._out)
        other._in = dict(self._in)
        other._out_degree = dict(self._out_degree)
        other._in_degree = dict(self._in_degree)
        other._label_index = dict(self._label_index)
        if self._signatures is not None:
            other._signatures = dict(self._signatures)
        self._private = (set(), set(), set(), set())
        other._private = (set(), set(), set(), set())
        return other

    def validate(self) -> None:
        for (source, target, label), edge in self._edges.items():
            if source not in self._nodes or target not in self._nodes:
                raise GraphError(f"edge {edge!r} references a missing node")
            if target not in self._out.get(source, _EMPTY_DICT).get(label, _EMPTY_DICT):
                raise GraphError(f"out-adjacency missing for {edge!r}")
            if source not in self._in.get(target, _EMPTY_DICT).get(label, _EMPTY_DICT):
                raise GraphError(f"in-adjacency missing for {edge!r}")
        if self._signatures is not None:
            total = sum(len(keys) for keys in self._signatures.values())
            if total != len(self._edges):
                raise GraphError("signature index drifted from the edge set")
            for signature, keys in self._signatures.items():
                for key in keys:
                    if key not in self._edges:
                        raise GraphError(f"signature index holds stale edge {key!r}")
        for label, ids in self._label_index.items():
            for node_id in ids:
                node = self._nodes.get(node_id)
                if node is None or node.label != label:
                    raise GraphError(f"label index corrupt for label {label!r}, node {node_id!r}")
        for node_id in self._nodes:
            if node_id not in self._rank:
                raise GraphError(f"missing insertion rank for node {node_id!r}")
            out_total = sum(len(bucket) for bucket in self._out[node_id].values())
            in_total = sum(len(bucket) for bucket in self._in[node_id].values())
            if out_total != self._out_degree[node_id]:
                raise GraphError(f"out-degree counter drifted for node {node_id!r}")
            if in_total != self._in_degree[node_id]:
                raise GraphError(f"in-degree counter drifted for node {node_id!r}")


#: The four maps a :class:`FrozenStore` links from its edge set on the first read.
_ADJACENCY = ("_out", "_in", "_out_degree", "_in_degree")


class _LinkedOnFirstRead:
    """One adjacency map of a :class:`FrozenStore`, linked from its edges on the first read.

    A non-data descriptor: the first read links all four maps into the
    store's ``__dict__``, where every later read finds them by a plain
    attribute lookup, so the read methods are :class:`IndexedStore`'s own.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, store: Optional["FrozenStore"], owner: Optional[type] = None):
        if store is None:
            return self
        store._link()
        return store.__dict__[self.name]


class FrozenStore(IndexedStore):
    """The read-only engine: an :class:`IndexedStore` filled by one bulk load, then sealed.

    The one way in is :meth:`bulk_load` (``graph_from_dict`` and
    ``load_graph``, ``Graph.with_backend``, ``Graph.induced_subgraph``),
    and the store seals as that build starts: ``add_node`` and ``add_edge``
    run only inside it, while every other mutator, a single mutation outside
    it and a second build raise :class:`GraphError`.  Nothing can change a
    sealed store, so :meth:`clone` returns the store itself: a batch run's
    snapshot is free, and a process that inherits the store shares it.

    The build records nodes, ranks, the label index and the edges; the
    adjacency maps are linked from the edges in one pass on the first
    adjacency read (:class:`_LinkedOnFirstRead`), so a frozen copy that is
    loaded and not yet read holds no adjacency.  No read method is
    overridden: detection on a frozen graph runs :class:`IndexedStore`'s
    code.  To modify a frozen graph, rebuild it on the mutable engine
    (``graph.with_backend("indexed")``).
    """

    backend = "frozen"
    supports_mutation = False

    _out = _LinkedOnFirstRead()
    _in = _LinkedOnFirstRead()
    _out_degree = _LinkedOnFirstRead()
    _in_degree = _LinkedOnFirstRead()

    def __init__(self) -> None:
        super().__init__()
        self._unlink()
        self._sealed = False
        self._loading = False

    def _refuse(self, operation: str) -> None:
        raise GraphError(
            f"frozen store: {operation} is not supported (rebuild the graph on a "
            "mutable engine, e.g. graph.with_backend('indexed'))"
        )

    def _unlink(self) -> None:
        """Drop the adjacency maps; the next read links them from the edges."""
        for name in _ADJACENCY:
            self.__dict__.pop(name, None)

    def _link(self) -> None:
        """Build the adjacency maps in edge order, as ``IndexedStore.add_edge`` would.

        Built aside and published in one update, so that two threads reading
        first each build a whole set rather than writing into one.
        """
        ids = self._nodes
        out, inc = {node_id: {} for node_id in ids}, {node_id: {} for node_id in ids}
        out_degree, in_degree = dict.fromkeys(ids, 0), dict.fromkeys(ids, 0)
        for source, target, label in self._edges:
            out[source].setdefault(label, {})[target] = None
            inc[target].setdefault(label, {})[source] = None
            out_degree[source] += 1
            in_degree[target] += 1
        self.__dict__.update(_out=out, _in=inc, _out_degree=out_degree, _in_degree=in_degree)

    def bulk_load(
        self,
        nodes: Iterable[tuple[Hashable, str, Optional[Mapping[str, object]]]],
        edges: Iterable[EdgeKey],
    ) -> None:
        if self._sealed:
            self._refuse("a second bulk_load")
        self._sealed = self._loading = True
        self._unlink()  # a read of the empty store may have linked it
        try:
            super().bulk_load(nodes, edges)
        finally:
            self._loading = False

    def add_node(self, node: Node) -> None:
        if not self._loading:
            self._refuse("add_node")
        self._store_node(node)

    def add_edge(self, edge: Edge) -> None:
        if not self._loading:
            self._refuse("add_edge")
        self._edges[(edge.source, edge.target, sys.intern(edge.label))] = edge

    def replace_node(self, node: Node) -> None:
        self._refuse("replace_node")

    def remove_node(self, node_id: Hashable) -> None:
        self._refuse("remove_node")

    def remove_edge(self, key: EdgeKey) -> None:
        self._refuse("remove_edge")

    def clone(self) -> "FrozenStore":
        return self


#: Name -> backend class: the one mutable engine and its sealed, read-only form.
STORE_REGISTRY: dict[str, type[GraphStore]] = {
    IndexedStore.backend: IndexedStore,
    FrozenStore.backend: FrozenStore,
}


def make_store(spec: Union[str, GraphStore, None] = None) -> GraphStore:
    """Resolve a backend spec into a store instance.

    ``spec`` may be a store instance (used as-is), a registry name, or None
    (a new :class:`IndexedStore`).  Unknown names raise :class:`GraphError`
    listing the registered backends.
    """
    if isinstance(spec, GraphStore):
        return spec
    if spec is None:
        return IndexedStore()
    try:
        factory = STORE_REGISTRY[spec]
    except KeyError:
        raise GraphError(
            f"unknown graph store {spec!r}; registered backends: {sorted(STORE_REGISTRY)}"
        ) from None
    return factory()
