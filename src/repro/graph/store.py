"""Storage engines behind the :class:`~repro.graph.graph.Graph` facade.

The detection algorithms (``Matchn``, ``Dect``, ``IncDect`` and the simulated
parallel variants) bottom out in adjacency lookups, so the physical layout of
the adjacency indexes dominates the hot path.  This module separates that
layout from the graph *semantics*:

* :class:`GraphStore` — the storage contract: node/edge CRUD, label-filtered
  adjacency, the label and edge-signature indexes, and a deterministic
  insertion-order rank used by the matchers in place of ``sorted(key=repr)``;
* :class:`IndexedStore` — the engine every graph gets unless asked
  otherwise: interned labels, adjacency keyed ``node -> edge_label ->
  neighbour ids`` so a label-filtered lookup is O(result) instead of
  O(degree), zero-copy read views, and copy-on-write clones;
* :class:`CsrStore` — the read-only engine: append-only build, then one pass
  compacts the adjacency into rank arrays for batch detection.

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
from array import array
from bisect import bisect_left
from collections.abc import Hashable, Iterable, Iterator, Mapping, Set as AbstractSet
from typing import Optional, Union

from repro.errors import DuplicateNode, GraphError, NodeNotFound
from repro.graph.model import Edge, Node

__all__ = [
    "GraphStore",
    "IndexedStore",
    "CsrStore",
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

    #: Registry name of the backend (``"indexed"`` or ``"csr"``).
    backend: str = "abstract"

    #: False for frozen engines (:class:`CsrStore`): mutation raises once the
    #: compact layout is built.  The parity suites use this to scope the
    #: interleaved-mutation tests to engines that support them.
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
        unmodified structure between the two (:class:`IndexedStore` does).
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
        label = sys.intern(node.label)
        if label is not node.label:
            node = Node(node.id, label, node.attributes)
        node_id = node.id
        self._nodes[node_id] = node
        self._rank[node_id] = self._next_rank
        self._next_rank += 1
        self._out[node_id] = {}
        self._in[node_id] = {}
        self._out_degree[node_id] = 0
        self._in_degree[node_id] = 0
        if self._private is not None:
            self._unshare_ids(self._label_index, self._private[_LABELS], label)
        bucket = self._label_index.get(label)
        if bucket is None:
            self._label_index[label] = bucket = {}
        bucket[node_id] = None

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


class _CsrNeighboursView(AbstractSet):
    """Zero-copy view of the neighbour ids behind one (node, label) CSR slice.

    Backed by a contiguous ``array('q')`` slice of neighbour *ranks* sorted
    ascending, so ``len`` is O(1), iteration is a sequential array walk (the
    cache-friendly scan the backend exists for), and membership is a binary
    search.
    """

    __slots__ = ("_ranks", "_start", "_stop", "_ids", "_index")

    def __init__(self, ranks: array, start: int, stop: int, ids: list, index: dict) -> None:
        self._ranks = ranks
        self._start = start
        self._stop = stop
        self._ids = ids
        self._index = index

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self) -> Iterator[Hashable]:
        ids = self._ids
        ranks = self._ranks
        for position in range(self._start, self._stop):
            yield ids[ranks[position]]

    def __contains__(self, item: object) -> bool:
        rank = self._index.get(item)
        if rank is None:
            return False
        position = bisect_left(self._ranks, rank, self._start, self._stop)
        return position < self._stop and self._ranks[position] == rank

    def rank_slice(self) -> tuple[array, int, int, list]:
        """Expose ``(ranks, start, stop, ids)`` for sorted-rank intersection.

        ``ranks[start:stop]`` is this view's ascending neighbour-rank slice
        and ``ids[rank]`` resolves a rank back to a node id — what the
        compiled anchored strategy merges instead of hash-probing
        (:func:`repro.matching.compiled.csr_sorted_intersection`).
        """
        return self._ranks, self._start, self._stop, self._ids

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CsrNeighboursView({set(self)!r})"


class _CsrPairsView(AbstractSet):
    """Zero-copy ``(neighbour, edge_label)`` pairs over one node's CSR slices."""

    __slots__ = ("_slices", "_ranks", "_ids", "_index", "_degree")

    def __init__(self, slices: dict, ranks: array, ids: list, index: dict, degree: int) -> None:
        self._slices = slices
        self._ranks = ranks
        self._ids = ids
        self._index = index
        self._degree = degree

    def __len__(self) -> int:
        return self._degree

    def __iter__(self) -> Iterator[tuple[Hashable, str]]:
        ids = self._ids
        ranks = self._ranks
        for label, (start, stop) in self._slices.items():
            for position in range(start, stop):
                yield (ids[ranks[position]], label)

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, tuple) or len(item) != 2:
            return False
        neighbour, label = item
        bounds = self._slices.get(label)
        if bounds is None:
            return False
        rank = self._index.get(neighbour)
        if rank is None:
            return False
        start, stop = bounds
        position = bisect_left(self._ranks, rank, start, stop)
        return position < stop and self._ranks[position] == rank

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CsrPairsView({set(self)!r})"


class CsrStore(GraphStore):
    """A frozen compressed-sparse-row engine for cache-friendly batch detection.

    The build protocol is append-only: load nodes and edges (``Graph.
    with_backend("csr")``, ``graph/io.load_graph(store="csr")``, or any bulk
    build that only adds), then the first adjacency read *freezes* the store —
    one pass over E compacts the adjacency into flat ``array('q')`` rank
    arrays:

    * per node and direction, a ``{edge_label: (start, stop)}`` slice table
      into one shared neighbour-rank array, neighbours sorted by rank inside
      each slice — ``successors_by_label`` is an O(1) table probe returning a
      zero-copy array-slice view, membership a binary search, iteration a
      sequential array walk;
    * node ranks are dense (0..|V|-1 in insertion order, no removals can
      have happened), so ranks double as array indexes.

    After the freeze every mutator raises :class:`GraphError`; removals are
    refused even while building (they would break rank density).  ``clone()``
    of a frozen store returns the store itself — it is immutable, so sharing
    is safe and free, which is exactly what the planner's repeated batch
    passes want.  To modify a CSR graph, rebuild it on a mutable engine
    (``graph.with_backend("indexed")``).
    """

    backend = "csr"
    supports_mutation = False

    def __init__(self) -> None:
        self._nodes: dict[Hashable, Node] = {}
        self._rank: dict[Hashable, int] = {}
        self._edges: dict[EdgeKey, Edge] = {}
        self._label_index: dict[str, dict[Hashable, None]] = {}
        self._frozen = False
        # built by _freeze():
        self._ids: list[Hashable] = []
        self._out_ranks: array = array("q")
        self._in_ranks: array = array("q")
        self._out_slices: list[dict[str, tuple[int, int]]] = []
        self._in_slices: list[dict[str, tuple[int, int]]] = []
        self._out_degree: array = array("q")
        self._in_degree: array = array("q")
        # the signature index is lazy, exactly as on IndexedStore
        self._signatures: Optional[dict[Signature, dict[EdgeKey, None]]] = None

    # ------------------------------------------------------------- freezing

    def _refuse_mutation(self, operation: str) -> None:
        raise GraphError(
            f"csr store is frozen: {operation} is not supported (rebuild the "
            "graph on a mutable backend, e.g. graph.with_backend('indexed'))"
        )

    def _freeze(self) -> None:
        """Compact the adjacency into CSR arrays (first adjacency read)."""
        if self._frozen:
            return
        ids = list(self._nodes.keys())
        rank = self._rank
        n = len(ids)
        out_groups: list[dict[str, list[int]]] = [{} for _ in range(n)]
        in_groups: list[dict[str, list[int]]] = [{} for _ in range(n)]
        for edge in self._edges.values():
            source_rank = rank[edge.source]
            target_rank = rank[edge.target]
            out_groups[source_rank].setdefault(edge.label, []).append(target_rank)
            in_groups[target_rank].setdefault(edge.label, []).append(source_rank)
        for groups, ranks, slices, degrees in (
            (out_groups, self._out_ranks, self._out_slices, self._out_degree),
            (in_groups, self._in_ranks, self._in_slices, self._in_degree),
        ):
            for node_rank in range(n):
                table: dict[str, tuple[int, int]] = {}
                degree = 0
                for label, neighbour_ranks in groups[node_rank].items():
                    neighbour_ranks.sort()
                    start = len(ranks)
                    ranks.extend(neighbour_ranks)
                    table[label] = (start, len(ranks))
                    degree += len(neighbour_ranks)
                slices.append(table)
                degrees.append(degree)
        self._ids = ids
        self._frozen = True

    @property
    def frozen(self) -> bool:
        """Return True once the CSR arrays have been built."""
        return self._frozen

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> None:
        if self._frozen:
            self._refuse_mutation("add_node")
        label = sys.intern(node.label)
        if label is not node.label:
            node = Node(node.id, label, node.attributes)
        self._nodes[node.id] = node
        self._rank[node.id] = len(self._rank)
        bucket = self._label_index.get(label)
        if bucket is None:
            self._label_index[label] = bucket = {}
        bucket[node.id] = None

    def replace_node(self, node: Node) -> None:
        if self._frozen:
            self._refuse_mutation("replace_node")
        self._nodes[node.id] = node

    def remove_node(self, node_id: Hashable) -> None:
        self._refuse_mutation("remove_node")

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
        if self._frozen:
            self._refuse_mutation("add_edge")
        label = sys.intern(edge.label)
        if label is not edge.label:
            edge = Edge(edge.source, edge.target, label)
        self._edges[(edge.source, edge.target, label)] = edge

    def remove_edge(self, key: EdgeKey) -> None:
        self._refuse_mutation("remove_edge")

    def get_edge(self, key: EdgeKey) -> Optional[Edge]:
        return self._edges.get(key)

    def has_edge_key(self, key: EdgeKey) -> bool:
        return key in self._edges

    def has_any_edge(self, source: Hashable, target: Hashable) -> bool:
        if not self._frozen:
            return any(
                edge_source == source and edge_target == target
                for edge_source, edge_target, _ in self._edges
            )
        source_rank = self._rank.get(source)
        target_rank = self._rank.get(target)
        if source_rank is None or target_rank is None:
            return False
        ranks = self._out_ranks
        for start, stop in self._out_slices[source_rank].values():
            position = bisect_left(ranks, target_rank, start, stop)
            if position < stop and ranks[position] == target_rank:
                return True
        return False

    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def edge_labels(self) -> frozenset[str]:
        return frozenset(edge.label for edge in self._edges.values())

    def _built_signatures(self) -> dict[Signature, dict[EdgeKey, None]]:
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

    def successors(self, node_id: Hashable) -> _CsrPairsView:
        self._freeze()
        rank = self._rank[node_id]
        return _CsrPairsView(
            self._out_slices[rank], self._out_ranks, self._ids, self._rank, self._out_degree[rank]
        )

    def predecessors(self, node_id: Hashable) -> _CsrPairsView:
        self._freeze()
        rank = self._rank[node_id]
        return _CsrPairsView(
            self._in_slices[rank], self._in_ranks, self._ids, self._rank, self._in_degree[rank]
        )

    def successors_by_label(self, node_id: Hashable, edge_label: str):
        self._freeze()
        bounds = self._out_slices[self._rank[node_id]].get(edge_label)
        if bounds is None:
            return _EMPTY_KEYS
        return _CsrNeighboursView(self._out_ranks, bounds[0], bounds[1], self._ids, self._rank)

    def predecessors_by_label(self, node_id: Hashable, edge_label: str):
        self._freeze()
        bounds = self._in_slices[self._rank[node_id]].get(edge_label)
        if bounds is None:
            return _EMPTY_KEYS
        return _CsrNeighboursView(self._in_ranks, bounds[0], bounds[1], self._ids, self._rank)

    def out_edge_labels(self, node_id: Hashable):
        self._freeze()
        return self._out_slices[self._rank[node_id]].keys()

    def in_edge_labels(self, node_id: Hashable):
        self._freeze()
        return self._in_slices[self._rank[node_id]].keys()

    def out_degree(self, node_id: Hashable) -> int:
        self._freeze()
        return self._out_degree[self._rank[node_id]]

    def in_degree(self, node_id: Hashable) -> int:
        self._freeze()
        return self._in_degree[self._rank[node_id]]

    def neighbours_of(self, node_ids: Iterable[Hashable]) -> set[Hashable]:
        self._freeze()
        reached: set[int] = set()
        for node_id in node_ids:
            rank = self._rank[node_id]
            for ranks, slices in (
                (self._out_ranks, self._out_slices[rank]),
                (self._in_ranks, self._in_slices[rank]),
            ):
                for start, stop in slices.values():
                    reached.update(ranks[start:stop])
        return set(map(self._ids.__getitem__, reached))

    def edges_between(self, wanted: AbstractSet) -> Iterator[Edge]:
        self._freeze()
        edges = self._edges
        ids = self._ids
        ranks = self._out_ranks
        for node_id in sorted(wanted, key=self._rank.__getitem__):
            for label, (start, stop) in self._out_slices[self._rank[node_id]].items():
                for position in range(start, stop):
                    target = ids[ranks[position]]
                    if target in wanted:
                        yield edges[(node_id, target, label)]

    # ------------------------------------------------------------- lifecycle

    def clone(self) -> "CsrStore":
        if self._frozen:
            # a frozen store is immutable: sharing it is safe and free
            return self
        other = CsrStore()
        other._nodes = dict(self._nodes)
        other._rank = dict(self._rank)
        other._edges = dict(self._edges)
        other._label_index = {label: dict(ids) for label, ids in self._label_index.items()}
        return other

    def validate(self) -> None:
        self._freeze()
        for (source, target, label), edge in self._edges.items():
            if source not in self._nodes or target not in self._nodes:
                raise GraphError(f"edge {edge!r} references a missing node")
            bounds = self._out_slices[self._rank[source]].get(label)
            if bounds is None or target not in _CsrNeighboursView(
                self._out_ranks, bounds[0], bounds[1], self._ids, self._rank
            ):
                raise GraphError(f"out-CSR slice missing for {edge!r}")
            bounds = self._in_slices[self._rank[target]].get(label)
            if bounds is None or source not in _CsrNeighboursView(
                self._in_ranks, bounds[0], bounds[1], self._ids, self._rank
            ):
                raise GraphError(f"in-CSR slice missing for {edge!r}")
        if len(self._out_ranks) != len(self._edges) or len(self._in_ranks) != len(self._edges):
            raise GraphError("CSR arrays drifted from the edge set")
        for label, ids in self._label_index.items():
            for node_id in ids:
                node = self._nodes.get(node_id)
                if node is None or node.label != label:
                    raise GraphError(f"label index corrupt for label {label!r}, node {node_id!r}")
        for position, node_id in enumerate(self._ids):
            if self._rank[node_id] != position:
                raise GraphError(f"rank table corrupt for node {node_id!r}")


#: Name -> backend class: the one mutable engine and the read-only one.
STORE_REGISTRY: dict[str, type[GraphStore]] = {
    IndexedStore.backend: IndexedStore,
    CsrStore.backend: CsrStore,
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
