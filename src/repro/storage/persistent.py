"""Disk-backed graph storage engine: SQLite write-through + indexed reads.

:class:`PersistentStore` is the durable member of the pluggable-store
family (``repro.graph.store``).  It keeps the graph in two places at
once:

* an SQLite database (stdlib :mod:`sqlite3`) holding the node/edge/label
  schema — the durable image, with the same index surface as
  :class:`~repro.graph.store.IndexedStore` (a node-label index and
  per-direction ``(node, edge label)`` adjacency indexes);
* a full in-memory :class:`IndexedStore` mirror that serves **every**
  read.  Mutators write through to both.

Routing all reads through the mirror buys three properties at the price
of RAM (bounded by the same graphs the in-memory engines already hold):
reads are byte-identical to the ``indexed`` engine — iteration order,
zero-copy views, determinism under hash randomization — so the whole
parity suite transfers; the hot detection path never crosses into C
library calls per adjacency probe; and forked worker processes never
touch the inherited SQLite connection (SQLite connections are not
fork-safe — see "fork safety" in ``docs/ARCHITECTURE.md``), because
everything they read lives in plain Python dicts.

Insertion ranks are persisted.  The mirror's own rank counter restarts
at zero per process, which would renumber nodes after removal gaps on a
reopen; :meth:`node_rank` therefore answers from the store's own
persisted rank table, which reproduces exactly the ranks the reference
``DictStore`` would have assigned over the same operation sequence.

Node ids and attribute values round-trip through JSON (the same
convention as the spool/checkpoint images in :mod:`repro.graph.io`);
graphs with non-JSON-encodable node ids cannot be persisted and raise
:class:`~repro.errors.GraphError` on insertion.

A frozen-CSR fast path for detection is exposed via :meth:`csr_store`:
the first caller pays one conversion to a frozen
:class:`~repro.graph.store.CsrStore` image, later callers (the sharded
executor's single-image path, benchmarks) share it until the next
mutation invalidates it.
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Hashable, Iterator
from pathlib import Path
from typing import Optional, Union

from repro.errors import GraphError
from repro.graph.model import Edge, Node
from repro.graph.store import (
    STORE_REGISTRY,
    CsrStore,
    GraphStore,
    IndexedStore,
    EdgeKey,
    Signature,
)

__all__ = ["PersistentStore"]

PathLike = Union[str, Path]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS nodes (
    id TEXT PRIMARY KEY,
    label TEXT NOT NULL,
    attributes TEXT NOT NULL,
    rank INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_nodes_label ON nodes(label);
CREATE INDEX IF NOT EXISTS idx_nodes_rank ON nodes(rank);
CREATE TABLE IF NOT EXISTS edges (
    source TEXT NOT NULL,
    target TEXT NOT NULL,
    label TEXT NOT NULL,
    seq INTEGER NOT NULL,
    PRIMARY KEY (source, target, label)
);
CREATE INDEX IF NOT EXISTS idx_edges_out ON edges(source, label);
CREATE INDEX IF NOT EXISTS idx_edges_in ON edges(target, label);
CREATE INDEX IF NOT EXISTS idx_edges_seq ON edges(seq);
"""


def _encode_id(node_id: Hashable) -> str:
    try:
        return json.dumps(node_id, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        raise GraphError(
            f"node id {node_id!r} is not JSON-encodable; the persistent store "
            "(like spooled images) requires JSON-round-trippable node ids"
        ) from None


def _tuplify(value):
    """Recursively turn JSON lists back into tuples.

    Any list in an id position must have started life as a tuple (lists
    are unhashable, so they cannot be node ids), and that holds at every
    nesting depth — ``('a', (1, 2))`` must decode back to itself, not to
    the unhashable ``('a', [1, 2])``.
    """
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def _decode_id(text: str) -> Hashable:
    return _tuplify(json.loads(text))


def _encode_attributes(attributes) -> str:
    try:
        # no default=str: silently stringifying a non-JSON value would make
        # a reopened store disagree with the live one on attribute types
        return json.dumps(dict(attributes), sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        raise GraphError(
            f"attributes {attributes!r} are not JSON-encodable; the persistent "
            "store (like spooled images) requires JSON-round-trippable "
            "attribute values"
        ) from None


class PersistentStore(GraphStore):
    """Durable SQLite engine behind the standard :class:`GraphStore` contract.

    ``path=None`` (the registry default — :func:`make_store` instantiates
    factories with no arguments) backs the store with a private
    ``:memory:`` database: the full schema is exercised, nothing touches
    disk.  Pass a filesystem path (or use :meth:`open`) for a durable
    store; reopening an existing database restores nodes in rank order
    and edges in insertion (``seq``) order, so iteration and match
    enumeration are identical to the process that wrote it.
    """

    backend = "persistent"
    supports_mutation = True

    def __init__(self, path: Optional[PathLike] = None, fast_unsafe: bool = False) -> None:
        self.path = str(path) if path is not None else None
        # autocommit: every statement lands immediately, so clones (via the
        # backup API) and reopen both see the current state without an
        # explicit flush.  check_same_thread=False because the service
        # mutates registered graphs from HTTP handler threads; access is
        # serialized by the registry's per-graph lock (and the GraphStore
        # contract never promised thread-safe concurrent mutation anyway).
        self._connection = sqlite3.connect(
            self.path or ":memory:", isolation_level=None, check_same_thread=False
        )
        self._connection.executescript(_SCHEMA)
        if self.path is None or fast_unsafe:
            # ``fast_unsafe`` is for callers whose durability lives elsewhere
            # (the service's WAL + checkpoints): a kill -9 may corrupt the
            # database file, which such callers treat as disposable.  A
            # :memory: database has nothing to corrupt, so it always takes
            # the fast path.
            self._connection.execute("PRAGMA synchronous=OFF")
            self._connection.execute("PRAGMA journal_mode=MEMORY")
        else:
            # standalone durable engine: SQLite's own WAL journaling keeps
            # the file uncorruptible under kill -9; synchronous=NORMAL can
            # lose the last transactions on *power* failure but never
            # consistency, and avoids an fsync per autocommitted statement.
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
        self._mirror = IndexedStore()
        self._rank: dict[Hashable, int] = {}
        self._next_rank = 0
        self._next_seq = 0
        self._csr_cache: Optional[CsrStore] = None
        if self.path is not None:
            self._load_existing()

    @classmethod
    def open(cls, path: PathLike, fast_unsafe: bool = False) -> "PersistentStore":
        """Open (or create) a durable store at ``path``."""
        return cls(path, fast_unsafe=fast_unsafe)

    def _load_existing(self) -> None:
        cursor = self._connection.execute(
            "SELECT id, label, attributes, rank FROM nodes ORDER BY rank"
        )
        for id_text, label, attributes_text, rank in cursor:
            node_id = _decode_id(id_text)
            self._mirror.add_node(Node(node_id, label, json.loads(attributes_text)))
            self._rank[node_id] = rank
        cursor = self._connection.execute(
            "SELECT source, target, label, seq FROM edges ORDER BY seq"
        )
        for source_text, target_text, label, seq in cursor:
            self._mirror.add_edge(Edge(_decode_id(source_text), _decode_id(target_text), label))
            self._next_seq = seq + 1
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = 'next_rank'"
        ).fetchone()
        # the meta counter may lag the row data (it is refreshed on flush);
        # the true high-water mark is the max of both
        candidates = [0]
        if row is not None:
            candidates.append(int(row[0]))
        if self._rank:
            candidates.append(max(self._rank.values()) + 1)
        self._next_rank = max(candidates)

    # ------------------------------------------------------------- durability

    def flush(self) -> None:
        """Commit any buffered state to the database file."""
        self._connection.execute(
            "INSERT INTO meta (key, value) VALUES ('next_rank', ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (str(self._next_rank),),
        )
        self._connection.commit()

    def close(self) -> None:
        """Flush and release the database connection (reads keep working)."""
        if self._connection is not None:
            self.flush()
            self._connection.close()
            self._connection = None  # type: ignore[assignment]

    def _dirty(self) -> None:
        self._csr_cache = None

    def csr_store(self) -> CsrStore:
        """Return a frozen-CSR image of the current contents (cached).

        The detection fast path: frozen CSR adjacency is immutable and
        fork-safe, so sharded/parallel execution can reuse one image
        across runs until the next mutation invalidates it.
        """
        cached = self._csr_cache
        if cached is None:
            cached = CsrStore()
            for node in self._mirror.nodes():
                cached.add_node(node)
            for edge in self._mirror.edges():
                cached.add_edge(edge)
            freeze = getattr(cached, "_freeze", None)
            if callable(freeze):
                freeze()
            self._csr_cache = cached
        return cached

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> None:
        id_text = _encode_id(node.id)
        self._mirror.add_node(node)
        self._rank[node.id] = self._next_rank
        self._connection.execute(
            "INSERT INTO nodes (id, label, attributes, rank) VALUES (?, ?, ?, ?)",
            (id_text, node.label, _encode_attributes(node.attributes), self._next_rank),
        )
        self._next_rank += 1
        self._dirty()

    def replace_node(self, node: Node) -> None:
        self._mirror.replace_node(node)
        self._connection.execute(
            "UPDATE nodes SET attributes = ? WHERE id = ?",
            (_encode_attributes(node.attributes), _encode_id(node.id)),
        )
        self._dirty()

    def remove_node(self, node_id: Hashable) -> None:
        self._mirror.remove_node(node_id)
        del self._rank[node_id]
        self._connection.execute("DELETE FROM nodes WHERE id = ?", (_encode_id(node_id),))
        self._dirty()

    def get_node(self, node_id: Hashable) -> Optional[Node]:
        return self._mirror.get_node(node_id)

    def has_node(self, node_id: Hashable) -> bool:
        return self._mirror.has_node(node_id)

    def node_count(self) -> int:
        return self._mirror.node_count()

    def nodes(self) -> Iterator[Node]:
        return self._mirror.nodes()

    def node_ids(self) -> Iterator[Hashable]:
        return self._mirror.node_ids()

    def all_node_ids(self):
        return self._mirror.all_node_ids()

    def node_rank(self, node_id: Hashable) -> int:
        return self._rank[node_id]

    def nodes_with_label(self, label: str):
        return self._mirror.nodes_with_label(label)

    def labels(self) -> frozenset[str]:
        return self._mirror.labels()

    # ------------------------------------------------------------------ edges

    def add_edge(self, edge: Edge) -> None:
        self._mirror.add_edge(edge)
        self._connection.execute(
            "INSERT INTO edges (source, target, label, seq) VALUES (?, ?, ?, ?)",
            (_encode_id(edge.source), _encode_id(edge.target), edge.label, self._next_seq),
        )
        self._next_seq += 1
        self._dirty()

    def remove_edge(self, key: EdgeKey) -> None:
        self._mirror.remove_edge(key)
        source, target, label = key
        self._connection.execute(
            "DELETE FROM edges WHERE source = ? AND target = ? AND label = ?",
            (_encode_id(source), _encode_id(target), label),
        )
        self._dirty()

    def get_edge(self, key: EdgeKey) -> Optional[Edge]:
        return self._mirror.get_edge(key)

    def has_edge_key(self, key: EdgeKey) -> bool:
        return self._mirror.has_edge_key(key)

    def has_any_edge(self, source: Hashable, target: Hashable) -> bool:
        return self._mirror.has_any_edge(source, target)

    def edge_count(self) -> int:
        return self._mirror.edge_count()

    def edges(self) -> Iterator[Edge]:
        return self._mirror.edges()

    def edge_labels(self) -> frozenset[str]:
        return self._mirror.edge_labels()

    def edges_with_exact_signature(self, signature: Signature) -> list[Edge]:
        return self._mirror.edges_with_exact_signature(signature)

    def signature_items(self) -> Iterator[tuple[Signature, list[Edge]]]:
        return self._mirror.signature_items()

    # -------------------------------------------------------------- adjacency

    def successors(self, node_id: Hashable):
        return self._mirror.successors(node_id)

    def predecessors(self, node_id: Hashable):
        return self._mirror.predecessors(node_id)

    def successors_by_label(self, node_id: Hashable, edge_label: str):
        return self._mirror.successors_by_label(node_id, edge_label)

    def predecessors_by_label(self, node_id: Hashable, edge_label: str):
        return self._mirror.predecessors_by_label(node_id, edge_label)

    def out_edge_labels(self, node_id: Hashable):
        return self._mirror.out_edge_labels(node_id)

    def in_edge_labels(self, node_id: Hashable):
        return self._mirror.in_edge_labels(node_id)

    def out_degree(self, node_id: Hashable) -> int:
        return self._mirror.out_degree(node_id)

    def in_degree(self, node_id: Hashable) -> int:
        return self._mirror.in_degree(node_id)

    def neighbours_of(self, node_ids) -> set[Hashable]:
        return self._mirror.neighbours_of(node_ids)

    def edges_between(self, wanted) -> Iterator[Edge]:
        # Delegate to the mirror: its per-process ranks are order-isomorphic
        # to the persisted ranks (nodes load in rank order), so the emission
        # order is identical while staying hash-seed independent.
        return self._mirror.edges_between(wanted)

    # ------------------------------------------------------------- lifecycle

    def clone(self) -> "PersistentStore":
        """Return an independent in-memory copy (registry snapshot fast path).

        Clones always land on a private ``:memory:`` database — snapshots
        are transient working copies; only the original remains bound to
        its file.  The SQLite side copies eagerly via the C-level backup
        API; the mirror is the indexed engine's copy-on-write clone, so the
        two mirrors share every bucket neither has written since.
        """
        other = PersistentStore.__new__(PersistentStore)
        other.path = None
        other._connection = sqlite3.connect(
            ":memory:", isolation_level=None, check_same_thread=False
        )
        self._connection.backup(other._connection)
        other._connection.execute("PRAGMA synchronous=OFF")
        other._connection.execute("PRAGMA journal_mode=MEMORY")
        other._mirror = self._mirror.clone()
        other._rank = dict(self._rank)
        other._next_rank = self._next_rank
        other._next_seq = self._next_seq
        other._csr_cache = self._csr_cache
        return other

    def validate(self) -> None:
        self._mirror.validate()
        node_count = self._connection.execute("SELECT COUNT(*) FROM nodes").fetchone()[0]
        if node_count != self._mirror.node_count():
            raise GraphError(
                f"persistent store drift: {node_count} nodes on disk, "
                f"{self._mirror.node_count()} in the mirror"
            )
        edge_count = self._connection.execute("SELECT COUNT(*) FROM edges").fetchone()[0]
        if edge_count != self._mirror.edge_count():
            raise GraphError(
                f"persistent store drift: {edge_count} edges on disk, "
                f"{self._mirror.edge_count()} in the mirror"
            )
        for node_id in self._mirror.node_ids():
            if node_id not in self._rank:
                raise GraphError(f"missing persisted rank for node {node_id!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PersistentStore(path={self.path!r}, nodes={self.node_count()}, "
            f"edges={self.edge_count()})"
        )


STORE_REGISTRY.setdefault(PersistentStore.backend, PersistentStore)
