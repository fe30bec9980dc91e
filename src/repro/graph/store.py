"""Storage engines behind the :class:`~repro.graph.graph.Graph` facade.

The detection algorithms (``Matchn``, ``Dect``, ``IncDect`` and the simulated
parallel variants) bottom out in adjacency lookups, so the physical layout of
the adjacency indexes dominates the hot path.  This module separates that
layout from the graph *semantics*:

* :class:`GraphStore` — the storage contract: node/edge CRUD, label-filtered
  adjacency, the label index, and a deterministic insertion-order rank used
  by the matchers in place of ``sorted(key=repr)``;
* :class:`IndexedStore` — the one layout, and the engine every graph gets
  unless asked otherwise: interned labels, adjacency keyed ``node ->
  edge_label -> neighbour ids`` so a label-filtered lookup is O(result)
  instead of O(degree), zero-copy read views, and O(1) clones (the clone
  takes the maps; the original reads them through an undo log);
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
import weakref
from abc import ABC, abstractmethod
from bisect import bisect_right
from collections.abc import Hashable, Iterable, Iterator, Mapping, Set as AbstractSet
from itertools import islice
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

_EMPTY_DICT: dict = {}
#: Shared empty zero-copy view (a keys view over a dict nothing mutates).
_EMPTY_KEYS = _EMPTY_DICT.keys()
#: Positions in :attr:`IndexedStore._private`: per direction, the nodes whose
#: ``edge label -> neighbours`` map, and the ``(node, edge label)`` buckets,
#: the head has copied since its last clone.
_OUT, _IN, _OUT_BUCKETS, _IN_BUCKETS = range(4)
#: Slots of an :class:`_UndoLog`, one per live map of an :class:`IndexedStore`.
_NODES, _RANKS, _EDGES, _EDGE_RANKS, _OUTS, _INS, _LABELS = range(7)
#: The undo-log value of a key the past version did not hold.
_ABSENT = object()
#: The ``(ids, count)`` label bucket of a label no node carries.
_NO_IDS: tuple = ((), 0)


class _PairsView(AbstractSet):
    """Zero-copy view of ``(neighbour, edge_label)`` pairs over label-keyed adjacency.

    Backed by one node's ``{edge_label: {neighbour: None}}`` mapping of the
    :class:`IndexedStore`.
    """

    __slots__ = ("_buckets",)

    def __init__(self, buckets: dict) -> None:
        self._buckets = buckets

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
        return sum(map(len, self._buckets.values()))

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PairsView({set(self)!r})"


class _LabelView(AbstractSet):
    """The ids carrying one node label, in rank order, as the store holds them when read.

    Backed by the label's id list, which a newer version only ever appends
    to: the view reads the store's ``(ids, count)`` afresh on every call, so
    it is live on the head and frozen on a past version.
    """

    __slots__ = ("_store", "_label")

    def __init__(self, store: "IndexedStore", label: str) -> None:
        self._store = store
        self._label = label

    def __contains__(self, node_id: object) -> bool:
        node = self._store.get_node(node_id)
        return node is not None and node.label == self._label

    def __iter__(self) -> Iterator[Hashable]:
        ids, count = self._store._label_bucket(self._label)
        return islice(ids, count)

    def __len__(self) -> int:
        return self._store._label_bucket(self._label)[1]

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LabelView({self._label!r}, {list(self)!r})"


class _ViaMethods:
    """A direction of :meth:`GraphStore.reader` through the store's methods: ``reader[node].get(label, default)``."""

    __slots__ = ("_view", "_labels", "_node")

    def __init__(self, view, labels, node: Hashable = None) -> None:
        self._view, self._labels, self._node = view, labels, node

    def __getitem__(self, node_id: Hashable) -> "_ViaMethods":
        return _ViaMethods(self._view, self._labels, node_id)

    def get(self, label: str, default=None):
        return self._view(self._node, label)

    def keys(self):
        return self._labels(self._node)


class _PastMap:
    """A live map of an :class:`IndexedStore` as a past version holds it: ``past[key]`` is its value there, or None."""

    __slots__ = ("_live", "_undo", "_slot")

    def __init__(self, live: dict, undo: "_UndoLog", slot: int) -> None:
        self._live, self._undo, self._slot = live, undo, slot

    def __getitem__(self, key: Hashable):
        # _UndoLog.get written out, so that a search's read is one call: the live map first, then the logs
        value = self._live.get(key)
        log, slot = self._undo, self._slot
        while log is not None:
            entries = log.entries[slot]
            if key in entries:
                value = entries[key]
                return None if value is _ABSENT else value
            log = log.newer
        return value


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

    #: What :meth:`reader` hands out is good while this is the object it came
    #: with (:class:`IndexedStore` replaces it); a store without versions keeps None.
    _stamp = None

    def reader(self) -> tuple:
        """Return ``(stamp, out, into, node_of)``, what a search reads this version through.

        ``out[node][edge_label]`` and ``into[node][edge_label]`` are the
        node's neighbours over that label, in rank order (read with
        ``.get(edge_label, default)``; ``.keys()`` are its edge labels), and
        ``node_of(id)`` is the node.  The readers hold while
        ``store._stamp is stamp``.  This default goes through the
        label-filtered methods, one call per read; :class:`IndexedStore`
        hands out its maps.
        """
        return (
            None,
            _ViaMethods(self.successors_by_label, self.out_edge_labels),
            _ViaMethods(self.predecessors_by_label, self.in_edge_labels),
            self.get_node,
        )

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
        """Return a read-only set-like collection of every node id, iterated in rank order."""

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
        """Return a read-only set-like collection of ids carrying ``label``, iterated in rank order."""

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

    def label_counts(self) -> tuple[dict[str, int], dict[tuple[str, str], int], dict[tuple[str, str], int]]:
        """Return the counts the plan statistics read, as new dicts.

        ``(nodes per node label, edges per (source label, edge label), edges
        per (target label, edge label))``; a pair is listed in the order of
        the first edge it counts, and a count is never 0.  This is one pass
        over E with two node reads per edge; :class:`IndexedStore` keeps the
        three under its writes instead.
        """
        nodes = {label: len(self.nodes_with_label(label)) for label in self.labels()}
        sources: dict[tuple[str, str], int] = {}
        targets: dict[tuple[str, str], int] = {}
        get_node = self.get_node
        for edge in self.edges():
            for counts, node_id in ((sources, edge.source), (targets, edge.target)):
                key = (get_node(node_id).label, edge.label)
                counts[key] = counts.get(key, 0) + 1
        return nodes, sources, targets

    # -------------------------------------------------------------- adjacency

    @abstractmethod
    def successors(self, node_id: Hashable):
        """Return read-only ``(target, edge_label)`` pairs leaving the node."""

    @abstractmethod
    def predecessors(self, node_id: Hashable):
        """Return read-only ``(source, edge_label)`` pairs entering the node."""

    @abstractmethod
    def successors_by_label(self, node_id: Hashable, edge_label: str):
        """Return read-only target ids reachable over ``edge_label`` edges, iterated in rank order.

        Rank order (:meth:`node_rank`) is what the matchers enumerate
        candidates in, so a pool read from this view needs no sort.
        """

    @abstractmethod
    def predecessors_by_label(self, node_id: Hashable, edge_label: str):
        """Return read-only source ids reaching the node over ``edge_label`` edges, iterated in rank order."""

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

    @abstractmethod
    def neighbours_of(self, node_ids: Iterable[Hashable]) -> set[Hashable]:
        """Return the union of the ids adjacent to any of ``node_ids`` (all stored).

        One BFS level of the neighbourhood extraction, direction and labels
        ignored, built as one set per level instead of one per node.
        """

    def neighbour_ids(self, node_id: Hashable) -> frozenset[Hashable]:
        """Return ids adjacent to the node, ignoring direction and labels."""
        return frozenset(self.neighbours_of((node_id,)))

    @abstractmethod
    def edges_between(self, wanted: AbstractSet) -> Iterator[Edge]:
        """Yield every stored edge with both endpoints in ``wanted``.

        Walks the adjacency of the wanted nodes (O(sum of their degrees))
        instead of scanning all of E, visiting the nodes in rank order so
        the emission order is deterministic.
        """

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
        structure between the two (:class:`IndexedStore` hands its maps to
        the copy), and one that takes no writes may return itself
        (:class:`FrozenStore`).
        """

    @abstractmethod
    def validate(self) -> None:
        """Check internal index consistency; raise :class:`GraphError` on corruption."""


class _UndoLog:
    """What a past version of an :class:`IndexedStore` held where a newer version has written.

    One dict per live map (the ``_NODES`` … ``_LABELS`` slots): key -> the
    value this version held before the newer version's first overwrite of
    the key, or ``_ABSENT``.  The head records the old value *before* it
    overwrites the live map.  ``newer`` is the log of the next version once
    that one became past as well, so a version ``k`` snapshots behind the head
    reads through ``k`` logs, its own first.  The counts and rank counters
    are the version's own, fixed when it became past.
    """

    __slots__ = ("entries", "newer", "backlog", "nodes", "edges", "next_rank", "next_edge_rank", "__weakref__")

    def __init__(self, store: "IndexedStore") -> None:
        self.entries: tuple[dict, ...] = tuple({} for _ in range(_LABELS + 1))
        self.newer: Optional[_UndoLog] = None
        #: entries the older logs of the chain hold, while a version can read them
        self.backlog = 0
        self.nodes = len(store._nodes)
        self.edges = len(store._edges)
        self.next_rank = store._next_rank
        self.next_edge_rank = store._next_edge_rank

    def get(self, slot: int, key: Hashable, live: object, absent: object = None) -> object:
        """Return the version's value of ``key``, given ``live``, read from the live map just before.

        Reading the live map first and the logs second is what makes the
        lookup safe against a head writing in another thread: a value the
        head overwrote after the live read is in a log by the time it is
        checked.
        """
        log: Optional[_UndoLog] = self
        while log is not None:
            entries = log.entries[slot]
            if key in entries:
                value = entries[key]
                return absent if value is _ABSENT else value
            log = log.newer
        return live


def _in_rank_order(entries: dict, ranks: dict, restored: set) -> dict:
    """Return ``entries`` in rank order, given that only the ``restored`` keys may be out of it."""
    if not restored:
        return entries
    order = [key for key in entries if key not in restored]
    for key in sorted(restored, key=ranks.__getitem__):
        order.insert(bisect_right(order, ranks[key], key=ranks.__getitem__), key)
    return dict(zip(order, map(entries.__getitem__, order)))


def _place(bucket: dict, node_id: Hashable, ranks: dict) -> None:
    """Add ``node_id`` to an adjacency bucket in rank order, before the neighbours that rank after it."""
    rank = ranks[node_id]
    tail = []
    for other in reversed(bucket):
        if ranks[other] < rank:
            break
        tail.append(other)
    for other in tail:
        del bucket[other]
    bucket[node_id] = None
    for other in reversed(tail):
        bucket[other] = None


def _order_buckets(index: dict, ranks: dict) -> None:
    """Put every ``node -> label -> neighbours`` bucket of ``index`` in rank order, in place.

    A bucket already in order is left as it is, so one a past version shares is never written.
    """
    rank = ranks.__getitem__
    for buckets in index.values():
        for bucket in buckets.values():
            if len(bucket) > 1:
                order = list(map(rank, bucket))
                if order != sorted(order):
                    ids = sorted(bucket, key=rank)
                    bucket.clear()
                    bucket.update(dict.fromkeys(ids))


def _count(counts: dict, key: Hashable, change: int) -> None:
    """Add ``change`` to a count, dropping the key at 0."""
    count = counts.get(key, 0) + change
    if count:
        counts[key] = count
    else:
        del counts[key]


def _remember(entries: dict, live: dict, key: Hashable) -> None:
    """Record the live value of ``key`` (or its absence) in an undo log, unless already there."""
    if key not in entries:
        entries[key] = live.get(key, _ABSENT)


class IndexedStore(GraphStore):
    """The optimized engine: label-keyed adjacency with zero-copy read views.

    * node and edge labels are interned (:func:`sys.intern`), so index probes
      compare by pointer on the hot path;
    * adjacency is ``node -> edge_label -> {neighbour: None}``, making
      ``successors_by_label`` O(result) instead of O(degree) — the lookup the
      matcher's candidate filtering performs per expansion step — and every
      bucket is kept in rank order: a write places its neighbour by rank (an
      append, for a neighbour newer than the rest), and a bulk load orders
      each bucket once, after its edges;
    * every read returns a live zero-copy view (a dict keys view,
      :class:`_PairsView` for ``(neighbour, label)`` pairs, :class:`_LabelView`
      for a label's ids) instead of a defensive frozenset copy;
    * :meth:`clone` is O(1) (Baker's rerooted persistent arrays): the clone
      becomes the *head* and takes the live maps, and this store becomes a
      *past version* that reads them through an :class:`_UndoLog`.  The head
      records a key's old value before it overwrites it, copies a per-node
      adjacency map or a ``(node, label)`` bucket the first time it writes one
      after the clone (never one reachable from a past version), and only
      appends to label id lists.  A write to a past version, a clone of one
      or a full scan of one first materializes it, in its exact former order
      (nodes by ``_rank``, edges by ``_edge_rank``);
    * it counts nodes per label and edges per ``(source label, edge label)``
      and ``(target label, edge label)`` as it is written, so
      :meth:`label_counts` reads no node or edge.  A clone copies these
      small maps for the new head, and the past version keeps its own;
    * a search reads through :meth:`reader`, bound once per search: the head
      hands out its live ``_out`` / ``_in`` maps and ``_nodes.get``, a past
      version readers over its undo log (``_PastMap``), each with the
      store's ``_stamp``.  Live maps are this version's only while it is the
      head: a clone (in any thread) makes the next head's writes land in
      them, and so replaces the stamp, as does the materialization of a past
      version, whose maps become its own.  A step tests ``store._stamp is
      stamp`` after its reads, and where the stamp moved it binds again.

    All inner collections are insertion-ordered, so iteration order — and
    therefore match enumeration order — is deterministic across runs
    regardless of string-hash randomization.
    """

    backend = "indexed"
    #: True while a bulk load adds edges unordered, to order each bucket once at its end.
    _appending = False

    def __init__(self) -> None:
        self._nodes: dict[Hashable, Node] = {}
        self._rank: dict[Hashable, int] = {}
        self._next_rank = 0
        self._edges: dict[EdgeKey, Edge] = {}
        self._edge_rank: dict[EdgeKey, int] = {}
        self._next_edge_rank = 0
        # adjacency: node id -> edge label -> ordered set of neighbour ids
        self._out: dict[Hashable, dict[str, dict[Hashable, None]]] = {}
        self._in: dict[Hashable, dict[str, dict[Hashable, None]]] = {}
        # node label -> its node ids in rank order
        self._label_index: dict[str, list[Hashable]] = {}
        # what label_counts() returns: nodes per label, edges per (source label,
        # edge label) and per (target label, edge label); never written on a past version
        self._label_counts: dict[str, int] = {}
        self._source_pairs: dict[tuple[str, str], int] = {}
        self._target_pairs: dict[tuple[str, str], int] = {}
        # A past version's undo log (None on the head and on a store never cloned).
        self._undo: Optional[_UndoLog] = None
        # On a head: a weak reference to the log of the version it superseded
        # (None while no past version reads its maps), and per position (_OUT …
        # _IN_BUCKETS) what it copied since its last clone (None on a store
        # that never shared its adjacency maps and buckets).
        self._log: Optional[weakref.ref] = None
        self._private: Optional[tuple[set, set, set, set]] = None
        # A past version's materialization, read by its full scans.
        self._scan: Optional[IndexedStore] = None
        # Replaced whenever the maps reader() hands out stop being this version's.
        self._stamp = object()

    # ------------------------------------------------------------ versions

    def _writer(self) -> Optional[_UndoLog]:
        """Prepare a write: materialize a past version; return the log that keeps old values."""
        if self._undo is not None:
            vars(self).update(vars(self._materialized()))
            self._stamp = object()  # what a search bound before is another head's now
        if self._log is None:
            return None
        log = self._log()
        if log is not None and 2 * log.backlog <= len(self._nodes) + len(self._edges):
            return log
        if log is not None:
            # The past versions read through more undo entries than half the
            # graph's elements: move to maps of this store's own, which they do
            # not read, so that the chain they keep alive stops growing.  O(|G|)
            # once per |G|/2 logged entries; the adjacency maps and buckets are
            # still shared, and still copied before a write.
            for name in _LIVE_MAPS[:-1]:
                setattr(self, name, dict(getattr(self, name)))
            self._label_index = {label: list(ids) for label, ids in self._label_index.items()}
        self._log = None
        return None

    def _materialized(self) -> "IndexedStore":
        """Return this past version built as a store of its own (memoised; never written)."""
        scan = self._scan
        if scan is None:
            scan = self._scan = self._materialize()
        return scan

    def _materialize(self) -> "IndexedStore":
        """Build this past version as a store of its own, in its exact former order.

        The live maps are copied, then the logs laid over the copies, this
        version's own last so that it wins, and nodes and edges put back in
        rank order.  The adjacency maps and buckets are shared, not copied:
        the new store copies one before its first write to it, as the head of
        this lineage does.
        """
        # the live maps are read before the logs (see _UndoLog.get)
        maps = [dict(getattr(self, name)) for name in _LIVE_MAPS[:-1]]
        maps.append({label: (ids, len(ids)) for label, ids in list(self._label_index.items())})
        logs = []
        log = self._undo
        while log is not None:
            logs.append(log)
            log = log.newer
        restored: tuple[set, ...] = tuple(set() for _ in maps)  # keys a log put back with a value
        for log in reversed(logs):
            for target, entries, values in zip(maps, log.entries, restored):
                for key, value in list(entries.items()):
                    if value is _ABSENT:
                        target.pop(key, None)
                        values.discard(key)
                    else:
                        target[key] = value
                        values.add(key)
        nodes, ranks, edges, edge_ranks, store_out, store_in, labels = maps
        store = IndexedStore()
        store._nodes = _in_rank_order(nodes, ranks, restored[_NODES])
        store._edges = _in_rank_order(edges, edge_ranks, restored[_EDGES])
        store._rank, store._edge_rank, store._out, store._in = ranks, edge_ranks, store_out, store_in
        store._label_index = {label: ids[:count] for label, (ids, count) in labels.items()}
        store._next_rank, store._next_edge_rank = self._undo.next_rank, self._undo.next_edge_rank
        store._copy_counts(self)
        store._private = (set(), set(), set(), set())
        return store

    def _copy_counts(self, other: "IndexedStore") -> None:
        """Take copies of ``other``'s label counts (O(labels + label pairs))."""
        self._label_counts = dict(other._label_counts)
        self._source_pairs = dict(other._source_pairs)
        self._target_pairs = dict(other._target_pairs)

    def _adjacency(self, index: dict, slot: int, node_id: Hashable) -> dict:
        """Return the node's ``edge label -> neighbours`` map in this version."""
        buckets = index.get(node_id)
        if self._undo is not None:
            buckets = self._undo.get(slot, node_id, buckets)
        if buckets is None:
            raise KeyError(node_id)
        return buckets

    def _label_bucket(self, label: str) -> tuple:
        """Return ``(ids, count)``: this version's ids with ``label`` are ``ids[:count]``."""
        ids = self._label_index.get(label)
        bucket = (ids, len(ids)) if ids is not None else _NO_IDS
        if self._undo is not None:
            bucket = self._undo.get(_LABELS, label, bucket, _NO_IDS)
        return bucket

    def _writable_bucket(self, index: dict, slot: int, side: int, node_id: Hashable, label: str, log) -> dict:
        """Return the head's ``node -> label`` bucket for a write, copying what a past version reads."""
        buckets = index[node_id]
        private = self._private
        if private is None:
            bucket = buckets.get(label)
            if bucket is None:
                buckets[label] = bucket = {}
            return bucket
        nodes, copied = private[side], private[side + 2]
        if node_id not in nodes:
            if log is not None:
                _remember(log.entries[slot], index, node_id)
            buckets = index[node_id] = dict(buckets)
            nodes.add(node_id)
        bucket = buckets.get(label)
        if bucket is None or (node_id, label) not in copied:
            buckets[label] = bucket = dict(bucket or _EMPTY_DICT)
            copied.add((node_id, label))
        return bucket

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> None:
        log = self._writer() if self._log is not None or self._undo is not None else None
        node_id = self._store_node(node, log)
        if log is not None:
            entries = log.entries
            _remember(entries[_OUTS], self._out, node_id)
            _remember(entries[_INS], self._in, node_id)
        if self._private is not None:
            self._private[_OUT].add(node_id)
            self._private[_IN].add(node_id)
        self._out[node_id] = {}
        self._in[node_id] = {}

    def _store_node(self, node: Node, log: Optional[_UndoLog] = None) -> Hashable:
        """Record a node (label interned), its rank and its label-index entry; return its id."""
        label = sys.intern(node.label)
        if label is not node.label:
            node = Node(node.id, label, node.attributes)
        node_id = node.id
        ids = self._label_index.get(label)
        if log is not None:
            entries = log.entries
            _remember(entries[_NODES], self._nodes, node_id)
            _remember(entries[_RANKS], self._rank, node_id)
            if label not in entries[_LABELS]:
                entries[_LABELS][label] = (ids, len(ids)) if ids is not None else _ABSENT
        self._nodes[node_id] = node
        self._rank[node_id] = self._next_rank
        self._next_rank += 1
        _count(self._label_counts, label, 1)
        if ids is None:
            self._label_index[label] = [node_id]
        else:
            ids.append(node_id)  # a past version reads a prefix of the list: appending is safe
        return node_id

    def replace_node(self, node: Node) -> None:
        log = self._writer() if self._log is not None or self._undo is not None else None
        if log is not None:
            _remember(log.entries[_NODES], self._nodes, node.id)
        self._nodes[node.id] = node

    def remove_node(self, node_id: Hashable) -> None:
        log = self._writer() if self._log is not None or self._undo is not None else None
        label = self._nodes[node_id].label
        ids = self._label_index[label]
        if log is not None:
            entries = log.entries
            for slot, live in ((_NODES, self._nodes), (_RANKS, self._rank), (_OUTS, self._out), (_INS, self._in)):
                _remember(entries[slot], live, node_id)
            if label not in entries[_LABELS]:
                entries[_LABELS][label] = (ids, len(ids))
        del self._nodes[node_id], self._rank[node_id]
        del self._out[node_id], self._in[node_id]
        _count(self._label_counts, label, -1)
        if self._private is None:
            ids.remove(node_id)
        else:  # a past version may be reading the list: replace it
            ids = self._label_index[label] = [other for other in ids if other != node_id]
        if not ids:
            del self._label_index[label]

    def get_node(self, node_id: Hashable) -> Optional[Node]:
        node = self._nodes.get(node_id)
        if self._undo is not None:
            return self._undo.get(_NODES, node_id, node)
        return node

    def has_node(self, node_id: Hashable) -> bool:
        found = node_id in self._nodes
        if self._undo is not None:
            return self._undo.get(_NODES, node_id, found or None) is not None
        return found

    def node_count(self) -> int:
        count = len(self._nodes)
        return self._undo.nodes if self._undo is not None else count

    def nodes(self) -> Iterator[Node]:
        nodes = list(self._nodes.values())
        return self._materialized().nodes() if self._undo is not None else iter(nodes)

    def node_ids(self) -> Iterator[Hashable]:
        ids = list(self._nodes)
        return self._materialized().node_ids() if self._undo is not None else iter(ids)

    def all_node_ids(self):
        ids = dict.fromkeys(self._nodes).keys()
        return self._materialized().all_node_ids() if self._undo is not None else ids

    def node_rank(self, node_id: Hashable) -> int:
        rank = self._rank.get(node_id)
        if self._undo is not None:
            rank = self._undo.get(_RANKS, node_id, rank)
        if rank is None:
            raise KeyError(node_id)
        return rank

    def nodes_with_label(self, label: str) -> _LabelView:
        return _LabelView(self, label)

    def reader(self) -> tuple:
        # the stamp is read first: a clone sets _undo before it replaces the stamp
        stamp, undo = self._stamp, self._undo
        if undo is None:
            return stamp, self._out, self._in, self._nodes.get
        return stamp, _PastMap(self._out, undo, _OUTS), _PastMap(self._in, undo, _INS), _PastMap(self._nodes, undo, _NODES).__getitem__

    def labels(self) -> frozenset[str]:
        return frozenset(self._label_counts)

    # ------------------------------------------------------------------ edges

    def add_edge(self, edge: Edge) -> None:
        label = sys.intern(edge.label)
        if label is not edge.label:
            edge = Edge(edge.source, edge.target, label)
        source, target = edge.source, edge.target
        key = (source, target, label)
        log = self._writer() if self._log is not None or self._undo is not None else None
        if log is not None:
            entries = log.entries
            _remember(entries[_EDGES], self._edges, key)
            _remember(entries[_EDGE_RANKS], self._edge_rank, key)
        self._edges[key] = edge
        self._edge_rank[key] = self._next_edge_rank
        self._next_edge_rank += 1
        self._count_edge(source, target, label, 1)
        ranks, appending = self._rank, self._appending
        # a neighbour that ranks last, as a new node does, is appended
        out = self._writable_bucket(self._out, _OUTS, _OUT, source, label, log)
        if appending or not out or ranks[next(reversed(out))] < ranks[target]:
            out[target] = None
        else:
            _place(out, target, ranks)
        into = self._writable_bucket(self._in, _INS, _IN, target, label, log)
        if appending or not into or ranks[next(reversed(into))] < ranks[source]:
            into[source] = None
        else:
            _place(into, source, ranks)

    def remove_edge(self, key: EdgeKey) -> None:
        source, target, label = key
        log = self._writer() if self._log is not None or self._undo is not None else None
        if log is not None:
            entries = log.entries
            _remember(entries[_EDGES], self._edges, key)
            _remember(entries[_EDGE_RANKS], self._edge_rank, key)
        del self._edges[key], self._edge_rank[key]
        self._count_edge(source, target, label, -1)
        for index, slot, side, node_id, neighbour in (
            (self._out, _OUTS, _OUT, source, target),
            (self._in, _INS, _IN, target, source),
        ):
            bucket = self._writable_bucket(index, slot, side, node_id, label, log)
            del bucket[neighbour]
            if not bucket:
                del index[node_id][label]

    def bulk_load(
        self,
        nodes: Iterable[tuple[Hashable, str, Optional[Mapping[str, object]]]],
        edges: Iterable[EdgeKey],
    ) -> None:
        # the edges are appended in document order and each bucket is ordered once at the end
        self._appending = True
        try:
            super().bulk_load(nodes, edges)
        finally:
            self._appending = False
            _order_buckets(self._out, self._rank)
            _order_buckets(self._in, self._rank)

    def _count_edge(self, source: Hashable, target: Hashable, label: str, change: int) -> None:
        """Count an edge in (or out of) the label pairs of its endpoints."""
        nodes = self._nodes
        _count(self._source_pairs, (nodes[source].label, label), change)
        _count(self._target_pairs, (nodes[target].label, label), change)

    def label_counts(self) -> tuple[dict[str, int], dict[tuple[str, str], int], dict[tuple[str, str], int]]:
        # a past version's counts are its own, so nothing is materialized
        return dict(self._label_counts), dict(self._source_pairs), dict(self._target_pairs)

    def get_edge(self, key: EdgeKey) -> Optional[Edge]:
        edge = self._edges.get(key)
        if self._undo is not None:
            return self._undo.get(_EDGES, key, edge)
        return edge

    def has_edge_key(self, key: EdgeKey) -> bool:
        found = key in self._edges
        if self._undo is not None:
            return self._undo.get(_EDGES, key, found or None) is not None
        return found

    def has_any_edge(self, source: Hashable, target: Hashable) -> bool:
        buckets = self._out.get(source, _EMPTY_DICT)
        if self._undo is not None:
            buckets = self._undo.get(_OUTS, source, buckets, _EMPTY_DICT)
        return any(target in neighbours for neighbours in buckets.values())

    def edge_count(self) -> int:
        count = len(self._edges)
        return self._undo.edges if self._undo is not None else count

    def edges(self) -> Iterator[Edge]:
        edges = list(self._edges.values())
        return self._materialized().edges() if self._undo is not None else iter(edges)

    def edge_labels(self) -> frozenset[str]:
        return frozenset([label for _, label in self._source_pairs])

    # -------------------------------------------------------------- adjacency

    def successors(self, node_id: Hashable) -> _PairsView:
        return _PairsView(self._adjacency(self._out, _OUTS, node_id))

    def predecessors(self, node_id: Hashable) -> _PairsView:
        return _PairsView(self._adjacency(self._in, _INS, node_id))

    def successors_by_label(self, node_id: Hashable, edge_label: str):
        buckets = self._out.get(node_id)
        if self._undo is not None:
            buckets = self._undo.get(_OUTS, node_id, buckets)
        bucket = buckets.get(edge_label)
        return bucket.keys() if bucket is not None else _EMPTY_KEYS

    def predecessors_by_label(self, node_id: Hashable, edge_label: str):
        buckets = self._in.get(node_id)
        if self._undo is not None:
            buckets = self._undo.get(_INS, node_id, buckets)
        bucket = buckets.get(edge_label)
        return bucket.keys() if bucket is not None else _EMPTY_KEYS

    def out_edge_labels(self, node_id: Hashable):
        buckets = self._out.get(node_id)
        if self._undo is not None:
            buckets = self._undo.get(_OUTS, node_id, buckets)
        return buckets.keys()

    def in_edge_labels(self, node_id: Hashable):
        buckets = self._in.get(node_id)
        if self._undo is not None:
            buckets = self._undo.get(_INS, node_id, buckets)
        return buckets.keys()

    def out_degree(self, node_id: Hashable) -> int:
        return sum(map(len, self._adjacency(self._out, _OUTS, node_id).values()))

    def in_degree(self, node_id: Hashable) -> int:
        return sum(map(len, self._adjacency(self._in, _INS, node_id).values()))

    def neighbours_of(self, node_ids: Iterable[Hashable]) -> set[Hashable]:
        ids: set[Hashable] = set()
        adjacency, out, inc = self._adjacency, self._out, self._in
        for node_id in node_ids:
            for bucket in adjacency(out, _OUTS, node_id).values():
                ids.update(bucket)
            for bucket in adjacency(inc, _INS, node_id).values():
                ids.update(bucket)
        return ids

    def edges_between(self, wanted: AbstractSet) -> Iterator[Edge]:
        get_edge = self.get_edge
        for node_id in sorted(wanted, key=self.node_rank):
            for label, bucket in self._adjacency(self._out, _OUTS, node_id).items():
                for target in bucket:
                    if target in wanted:
                        yield get_edge((node_id, target, label))

    # ------------------------------------------------------------- lifecycle

    def clone(self) -> "IndexedStore":
        """Return the new head in O(1): it takes the live maps, and this store becomes past.

        A past version is cloned by materializing it (O(|G|)), so that two
        heads never write one set of maps.
        """
        if self._undo is not None:
            return self._materialize()
        log = _UndoLog(self)
        superseded = self._log() if self._log is not None else None
        if superseded is not None:
            superseded.newer = log
            log.backlog = superseded.backlog + sum(map(len, superseded.entries))
        other = type(self).__new__(type(self))
        vars(other).update(vars(self))  # the live maps and the rank counters
        other._copy_counts(self)
        other._log = weakref.ref(log)
        other._private = (set(), set(), set(), set())
        # past from here on: set before the head's first write, the stamp after _undo (see reader)
        self._undo = log
        self._stamp = object()
        self._log = self._private = None
        return other

    def __getstate__(self) -> dict:
        # a pickled or deep-copied version is a store of its own: no log, nothing shared
        state = dict(vars(self._materialized() if self._undo is not None else self))
        state.update(_undo=None, _log=None, _private=None, _scan=None)
        return state

    def validate(self) -> None:
        if self._undo is not None:
            self._materialized().validate()
            return
        for (source, target, label), edge in self._edges.items():
            if source not in self._nodes or target not in self._nodes:
                raise GraphError(f"edge {edge!r} references a missing node")
            if target not in self._out.get(source, _EMPTY_DICT).get(label, _EMPTY_DICT):
                raise GraphError(f"out-adjacency missing for {edge!r}")
            if source not in self._in.get(target, _EMPTY_DICT).get(label, _EMPTY_DICT):
                raise GraphError(f"in-adjacency missing for {edge!r}")
        if self._edge_rank.keys() != self._edges.keys():
            raise GraphError("edge ranks drifted from the edge set")
        for label, ids in self._label_index.items():
            if not ids or len(set(ids)) != len(ids):
                raise GraphError(f"label index corrupt for label {label!r}")
            for node_id in ids:
                node = self._nodes.get(node_id)
                if node is None or node.label != label:
                    raise GraphError(f"label index corrupt for label {label!r}, node {node_id!r}")
            if [self._rank[node_id] for node_id in ids] != sorted(self._rank[node_id] for node_id in ids):
                raise GraphError(f"label index out of rank order for label {label!r}")
        if sum(map(len, self._label_index.values())) != len(self._nodes):
            raise GraphError("label index drifted from the node set")
        for node_id in self._nodes:
            if node_id not in self._rank:
                raise GraphError(f"missing insertion rank for node {node_id!r}")
        rank = self._rank.__getitem__
        for index in (self._out, self._in):
            if index.keys() != self._nodes.keys():
                raise GraphError("adjacency drifted from the node set")
            for node_id, buckets in index.items():
                for label, bucket in buckets.items():
                    order = list(map(rank, bucket))
                    if order != sorted(order):
                        raise GraphError(f"adjacency of {node_id!r} over {label!r} out of rank order")
            if sum(len(bucket) for buckets in index.values() for bucket in buckets.values()) != len(self._edges):
                raise GraphError("adjacency holds pairs no edge accounts for")
        if self.label_counts() != GraphStore.label_counts(self):
            raise GraphError("label counts drifted from the nodes and edges")


#: The maps a clone takes over from the store it supersedes.
_LIVE_MAPS = ("_nodes", "_rank", "_edges", "_edge_rank", "_out", "_in", "_label_index")


#: The two maps a :class:`FrozenStore` links from its edge set on the first read.
_ADJACENCY = ("_out", "_in")


class _LinkedOnFirstRead:
    """One adjacency map of a :class:`FrozenStore`, linked from its edges on the first read.

    A non-data descriptor: the first read links both maps into the
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
        """Build the adjacency maps from the edges, each bucket in rank order, as ``IndexedStore`` keeps them.

        Built aside and published in one update, so that two threads reading
        first each build a whole set rather than writing into one.
        """
        ids = self._nodes
        out, inc = {node_id: {} for node_id in ids}, {node_id: {} for node_id in ids}
        for source, target, label in self._edges:
            out[source].setdefault(label, {})[target] = None
            inc[target].setdefault(label, {})[source] = None
        _order_buckets(out, self._rank)
        _order_buckets(inc, self._rank)
        self.__dict__.update(_out=out, _in=inc)

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
            # the build holds no adjacency to order: the first read links it
            GraphStore.bulk_load(self, nodes, edges)
        finally:
            self._loading = False

    def add_node(self, node: Node) -> None:
        if not self._loading:
            self._refuse("add_node")
        self._store_node(node)

    def add_edge(self, edge: Edge) -> None:
        if not self._loading:
            self._refuse("add_edge")
        key = (edge.source, edge.target, sys.intern(edge.label))
        self._edges[key] = edge
        self._edge_rank[key] = self._next_edge_rank
        self._next_edge_rank += 1
        self._count_edge(*key, 1)

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
