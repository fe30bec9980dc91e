"""Batch updates ``ΔG`` and the update operator ``G ⊕ ΔG``.

The paper (Section 5.2) defines a *unit update* as an edge insertion or an
edge deletion.  Insertions may introduce new nodes (carrying labels and
attributes); deletions only remove the link, leaving endpoints in place.  A
*batch update* ΔG is a sequence of unit updates, and ``G ⊕ ΔG`` is the graph
obtained by applying them in order.

This module provides:

* :class:`EdgeInsertion` / :class:`EdgeDeletion` — unit updates;
* :class:`BatchUpdate` — an ordered batch with the queries the incremental
  algorithms need (inserted/deleted edge sets, touched nodes);
* :func:`apply_update` — compute ``G ⊕ ΔG`` (optionally in place);
* :class:`UpdateGenerator` — random batch-update generation controlled by
  ``|ΔG|`` and the insertion/deletion ratio γ, as used in Section 7.
"""

from __future__ import annotations

import random
import weakref
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import UpdateError
from repro.graph.graph import Edge, Graph, WILDCARD

__all__ = [
    "EdgeInsertion",
    "EdgeDeletion",
    "UnitUpdate",
    "BatchUpdate",
    "apply_update",
    "UpdateGenerator",
]


@dataclass(frozen=True)
class NodePayload:
    """Label and attributes for a node introduced by an edge insertion."""

    label: str = WILDCARD
    attributes: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class EdgeInsertion:
    """``insert (source -[label]-> target)``.

    ``source_payload`` / ``target_payload`` describe the endpoints when they
    do not yet exist in the target graph; they are ignored for existing nodes.
    """

    source: Hashable
    target: Hashable
    label: str
    source_payload: Optional[NodePayload] = None
    target_payload: Optional[NodePayload] = None

    @property
    def is_insertion(self) -> bool:
        return True

    def edge_key(self) -> tuple[Hashable, Hashable, str]:
        """Return ``(source, target, label)``."""
        return (self.source, self.target, self.label)


@dataclass(frozen=True)
class EdgeDeletion:
    """``delete (source -[label]-> target)``."""

    source: Hashable
    target: Hashable
    label: str

    @property
    def is_insertion(self) -> bool:
        return False

    def edge_key(self) -> tuple[Hashable, Hashable, str]:
        """Return ``(source, target, label)``."""
        return (self.source, self.target, self.label)


UnitUpdate = Union[EdgeInsertion, EdgeDeletion]


class BatchUpdate:
    """An ordered batch of unit updates with convenience queries.

    The incremental algorithms treat ΔG as two sets, ΔG⁺ (insertions) and
    ΔG⁻ (deletions); ordering only matters when applying ΔG to a graph.
    """

    def __init__(self, updates: Iterable[UnitUpdate] = ()) -> None:
        self._updates: list[UnitUpdate] = list(updates)
        # memo of endpoint_labels(): (ref to G's store, ref to G ⊕ ΔG's store, result)
        self._endpoint_labels: Optional[tuple] = None

    # ----------------------------------------------------------- construction

    def insert(
        self,
        source: Hashable,
        target: Hashable,
        label: str,
        source_payload: Optional[NodePayload] = None,
        target_payload: Optional[NodePayload] = None,
    ) -> "BatchUpdate":
        """Append an edge insertion and return self (builder style)."""
        self._updates.append(
            EdgeInsertion(source, target, label, source_payload, target_payload)
        )
        self._endpoint_labels = None
        return self

    def delete(self, source: Hashable, target: Hashable, label: str) -> "BatchUpdate":
        """Append an edge deletion and return self (builder style)."""
        self._updates.append(EdgeDeletion(source, target, label))
        self._endpoint_labels = None
        return self

    def extend(self, updates: Iterable[UnitUpdate]) -> "BatchUpdate":
        """Append several unit updates and return self."""
        self._updates.extend(updates)
        self._endpoint_labels = None
        return self

    def __reduce__(self):
        # the endpoint_labels() memo holds weak references, which do not pickle
        return (BatchUpdate, (self._updates,))

    # ---------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[UnitUpdate]:
        return iter(self._updates)

    def __bool__(self) -> bool:
        return bool(self._updates)

    @property
    def insertions(self) -> tuple[EdgeInsertion, ...]:
        """Return ΔG⁺, the edge insertions in batch order."""
        return tuple(u for u in self._updates if isinstance(u, EdgeInsertion))

    @property
    def deletions(self) -> tuple[EdgeDeletion, ...]:
        """Return ΔG⁻, the edge deletions in batch order."""
        return tuple(u for u in self._updates if isinstance(u, EdgeDeletion))

    def touched_nodes(self) -> frozenset[Hashable]:
        """Return every node id that appears as an endpoint of some unit update."""
        nodes: set[Hashable] = set()
        for update in self._updates:
            nodes.add(update.source)
            nodes.add(update.target)
        return frozenset(nodes)

    def endpoint_labels(
        self, graph_before: Graph, graph_after: Graph
    ) -> list[tuple[UnitUpdate, str, str]]:
        """Return ``(update, source label, target label)`` per unit update, in batch order.

        Insertions are resolved in ``graph_after`` (their endpoints may be
        brand-new nodes), deletions in ``graph_before``; a unit update with
        an endpoint absent from its reference graph is left out.  The result
        is remembered for the last ``(G, G ⊕ ΔG)`` pair asked about, so the
        |Σ| rules of an incremental run share one resolution — two store
        lookups per unit update per ΔG.  Neither graph may be mutated between
        calls (IncDect's own precondition on its snapshots).
        """
        before, after = graph_before.store, graph_after.store
        memo = self._endpoint_labels
        if memo is not None and memo[0]() is before and memo[1]() is after:
            return memo[2]
        resolved: list[tuple[UnitUpdate, str, str]] = []
        for update in self._updates:
            get_node = after.get_node if update.is_insertion else before.get_node
            source = get_node(update.source)
            target = get_node(update.target) if source is not None else None
            if target is not None:
                resolved.append((update, source.label, target.label))
        self._endpoint_labels = (weakref.ref(before), weakref.ref(after), resolved)
        return resolved

    def reversed(self) -> "BatchUpdate":
        """Return the inverse batch (insertions become deletions and vice versa).

        Node payloads are dropped; applying ``ΔG`` then ``ΔG.reversed()``
        restores the original edge set (new isolated nodes may remain).
        """
        inverse: list[UnitUpdate] = []
        for update in reversed(self._updates):
            if isinstance(update, EdgeInsertion):
                inverse.append(EdgeDeletion(update.source, update.target, update.label))
            else:
                inverse.append(EdgeInsertion(update.source, update.target, update.label))
        return BatchUpdate(inverse)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BatchUpdate(+{len(self.insertions)}, -{len(self.deletions)})"


def apply_update(graph: Graph, delta: BatchUpdate) -> Graph:
    """Return ``G ⊕ ΔG``.

    Insertions create missing endpoint nodes using their payloads (wildcard
    label, empty attributes when no payload is given).  Deleting an edge that
    is absent, or inserting one that is present, raises :class:`UpdateError`
    — silently ignoring either would let experiment drivers measure the
    wrong workload.  The whole of ΔG is checked against ``graph`` before the
    first write, so a ΔG that raises leaves ``graph`` as it was, and a
    rejected copy is never taken.

    The update is applied to :meth:`Graph.copy` of the graph (same storage
    backend) and ``graph`` itself is never written.  On the indexed engine
    the copy is O(1) — it takes the maps, and ``graph`` reads them through
    an undo log that each write extends by the old value it replaces — so
    building ``G ⊕ ΔG`` costs what ΔG touches, not |G|.
    """
    _check_update(graph, delta)
    target = graph.copy()
    store = target.store  # ΔG is checked: the edge writes skip the facade's checks
    for update in delta:
        if isinstance(update, EdgeInsertion):
            for node_id, payload in (
                (update.source, update.source_payload),
                (update.target, update.target_payload),
            ):
                if not store.has_node(node_id):
                    payload = payload or NodePayload()
                    target.add_node(node_id, payload.label, payload.attributes)
            store.add_edge(Edge(update.source, update.target, update.label))
        else:
            store.remove_edge(update.edge_key())
    return target


def _check_update(graph: Graph, delta: BatchUpdate) -> None:
    """Raise :class:`UpdateError` at the first unit update that ``graph ⊕`` its prefix rejects."""
    written: dict[tuple, bool] = {}  # edge key -> present after the units so far
    for update in delta:
        key = update.edge_key()
        present = written[key] if key in written else graph.has_edge(*key)
        if update.is_insertion and present:
            raise UpdateError(
                f"cannot insert duplicate edge {update.source!r} -[{update.label}]-> {update.target!r}"
            )
        if not update.is_insertion and not present:
            raise UpdateError(
                f"cannot delete missing edge {update.source!r} -[{update.label}]-> {update.target!r}"
            )
        written[key] = update.is_insertion


class UpdateGenerator:
    """Random batch updates controlled by size and insertion/deletion ratio.

    Mirrors the experimental setup of Section 7: "updates ΔG to graph G are
    randomly generated, controlled by the size |ΔG| and a ratio γ of edge
    insertions to deletions".  Deletions pick existing edges uniformly at
    random; insertions either close a new edge between existing nodes (with a
    label sampled from the graph's edge labels) or attach a brand-new node.
    """

    def __init__(self, seed: int = 0, new_node_probability: float = 0.25) -> None:
        if not 0.0 <= new_node_probability <= 1.0:
            raise UpdateError("new_node_probability must be within [0, 1]")
        self._rng = random.Random(seed)
        self._new_node_probability = new_node_probability
        self._batch_counter = 0

    def generate(
        self,
        graph: Graph,
        size: int,
        insert_ratio: float = 0.5,
        labels: Optional[Sequence[str]] = None,
    ) -> BatchUpdate:
        """Return a batch update of ``size`` unit updates against ``graph``.

        ``insert_ratio`` is the fraction of insertions (γ = 1 corresponds to
        0.5); it is clamped by the number of edges available for deletion.
        """
        if size < 0:
            raise UpdateError("batch update size must be non-negative")
        if not 0.0 <= insert_ratio <= 1.0:
            raise UpdateError("insert_ratio must be within [0, 1]")
        edge_pool = list(graph.edges())
        node_pool = list(graph.node_ids())
        if not node_pool and size > 0:
            raise UpdateError("cannot generate updates against an empty graph")
        # labels() / edge_labels() return frozensets whose iteration order is
        # hash-dependent; sort before sampling so the generated batch is a
        # pure function of (graph, seed) across interpreter runs
        edge_labels = sorted(labels or graph.edge_labels() or ("link",))
        node_labels = sorted(graph.labels() or (WILDCARD,))

        wanted_inserts = round(size * insert_ratio)
        wanted_deletes = size - wanted_inserts
        wanted_deletes = min(wanted_deletes, len(edge_pool))
        wanted_inserts = size - wanted_deletes

        batch = BatchUpdate()
        # edge_pool follows the store's insertion order, so the shuffle (and
        # with it the whole batch) is deterministic given the seed on every
        # backend and across interpreter runs
        self._rng.shuffle(edge_pool)
        existing_keys = {e.key() for e in edge_pool}
        for edge in edge_pool[:wanted_deletes]:
            batch.delete(edge.source, edge.target, edge.label)

        self._batch_counter += 1
        fresh_counter = 0
        attempts = 0
        while len(batch.insertions) < wanted_inserts and attempts < 50 * max(1, wanted_inserts):
            attempts += 1
            label = self._rng.choice(edge_labels)
            if self._rng.random() < self._new_node_probability:
                fresh_counter += 1
                # stable ids (the old scheme embedded id(graph), a memory
                # address, making batches differ between interpreter runs)
                new_id = f"new-{self._batch_counter}-{fresh_counter}"
                if graph.has_node(new_id):
                    continue
                anchor = self._rng.choice(node_pool)
                payload = NodePayload(self._rng.choice(node_labels), {"val": self._rng.randint(0, 1000)})
                batch.insert(anchor, new_id, label, target_payload=payload)
                existing_keys.add((anchor, new_id, label))
                continue
            source = self._rng.choice(node_pool)
            target = self._rng.choice(node_pool)
            key = (source, target, label)
            if source == target or key in existing_keys:
                continue
            batch.insert(source, target, label)
            existing_keys.add(key)
        return batch
