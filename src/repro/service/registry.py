"""The graph registry: named, versioned graphs behind per-graph locks.

The service treats every registered graph as an *immutable snapshot chain*:
``POST /graphs/{name}/updates`` never mutates the current graph object in
place — it builds ``G ⊕ ΔG`` on an O(1) clone
(:func:`repro.graph.updates.apply_update`), bumps the monotonic version,
and swaps the reference, all under the graph's lock.
The clone takes the maps and becomes the head; the version it supersedes
becomes a past version that reads them through an undo log, in which the
head records every value before it overwrites it, and the head never
mutates an object a past version can reach.  Detection jobs therefore
snapshot ``(graph, version)`` once and run lock-free: a stream started at
version ``v`` sees exactly ``G_v`` even while updates land, which is the
version-isolation guarantee the concurrency tests assert.

Update listeners (the session manager) are invoked *inside* the graph lock,
after the swap.  That serialises the per-version ``run_incremental`` work
of continuous sessions with the update stream itself, so every session
observes every version exactly once and in order — the same regime the
paper's IncDect assumes ("ΔG updates arrive one batch at a time").
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConflictError, NotFoundError, ServiceError
from repro.graph.graph import Graph
from repro.graph.io import PathLike, load_graph
from repro.graph.updates import BatchUpdate, apply_update

__all__ = [
    "RegisteredGraph",
    "GraphRegistry",
    "UpdateOutcome",
    "validate_resource_name",
]

#: Names of registered graphs and rule catalogs become URL path segments
#: (``/graphs/{name}/detect``), so they must survive the router's ``/``
#: split and need no percent-encoding in the stdlib client.
_RESOURCE_NAME = re.compile(r"^[A-Za-z0-9._-]+$")


def validate_resource_name(name: object, kind: str) -> str:
    """Return ``name`` if it is URL-addressable, else raise :class:`ServiceError`."""
    if not isinstance(name, str) or not _RESOURCE_NAME.match(name):
        raise ServiceError(
            f"{kind} name must match [A-Za-z0-9._-]+ (it becomes a URL path "
            f"segment), got {name!r}"
        )
    return name


@dataclass(frozen=True)
class UpdateOutcome:
    """What one accepted batch update did: ΔG plus the before/after snapshots."""

    name: str
    version: int
    delta: BatchUpdate
    graph_before: Graph
    graph_after: Graph


#: Listener signature: called inside the graph lock after a version bump.
UpdateListener = Callable[[UpdateOutcome], None]


class RegisteredGraph:
    """One named graph plus its version counter and lock.

    ``version`` starts at 1 on registration and increases by one per
    accepted batch update.  ``graph`` always points at the snapshot for the
    current version; older snapshots stay alive for as long as some
    detection job or session still holds a reference.
    """

    def __init__(self, name: str, graph: Graph) -> None:
        self.name = name
        self.graph = graph
        self.version = 1
        self.lock = threading.RLock()

    def snapshot(self) -> tuple[Graph, int]:
        """Return the current ``(graph, version)`` pair atomically."""
        with self.lock:
            return self.graph, self.version

    def info(self) -> dict:
        """Return the JSON description served by ``GET /graphs/{name}``."""
        graph, version = self.snapshot()
        return {
            "name": self.name,
            "version": version,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "store": graph.store_backend,
        }


class GraphRegistry:
    """Thread-safe name → :class:`RegisteredGraph` map with update fan-out."""

    def __init__(self) -> None:
        self._graphs: dict[str, RegisteredGraph] = {}
        self._lock = threading.Lock()
        self._listeners: list[UpdateListener] = []
        #: Durability hook (duck-typed to avoid a storage-layer import): when
        #: set, ``record_graph_registered`` is called for every successful
        #: registration before the caller sees it — the WAL's
        #: ack-implies-logged contract.  Recovery attaches this only after
        #: replay, so restored registrations are never re-logged.
        self.journal = None

    # ------------------------------------------------------------ membership

    def register(self, name: str, graph: Graph) -> RegisteredGraph:
        """Register ``graph`` under ``name`` at version 1.

        Duplicate names are refused — replacing a live graph would silently
        invalidate the versions its sessions have recorded.
        """
        validate_resource_name(name, "graph")
        with self._lock:
            if name in self._graphs:
                raise ConflictError(f"graph {name!r} is already registered")
            registered = RegisteredGraph(name, graph)
            self._graphs[name] = registered
        if self.journal is not None:
            self.journal.record_graph_registered(registered)
        return registered

    def restore(self, name: str, graph: Graph, version: int) -> RegisteredGraph:
        """Re-register a graph at a recovered version (recovery only).

        Unlike :meth:`register` this places the graph at an arbitrary
        version and never journals — the caller is replaying state that is
        already durable.
        """
        validate_resource_name(name, "graph")
        with self._lock:
            if name in self._graphs:
                raise ConflictError(f"graph {name!r} is already registered")
            registered = RegisteredGraph(name, graph)
            registered.version = version
            self._graphs[name] = registered
            return registered

    def register_file(self, name: str, path: PathLike) -> RegisteredGraph:
        """Load a graph JSON file (:func:`repro.graph.io.load_graph`) and register it."""
        return self.register(name, load_graph(path))

    def get(self, name: str) -> RegisteredGraph:
        """Return the registered graph or raise :class:`NotFoundError`."""
        with self._lock:
            try:
                return self._graphs[name]
            except KeyError:
                raise NotFoundError(f"no graph registered under {name!r}") from None

    def names(self) -> list[str]:
        """Return the registered names, sorted."""
        with self._lock:
            return sorted(self._graphs)

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._graphs

    # --------------------------------------------------------------- updates

    def add_listener(self, listener: UpdateListener) -> None:
        """Subscribe to accepted updates (called inside the graph's lock)."""
        self._listeners.append(listener)

    def apply_update(self, name: str, delta: BatchUpdate) -> UpdateOutcome:
        """Apply ΔG to the named graph: new snapshot, version + 1, fan-out.

        The whole transition happens under the graph's lock.  A delta that
        cannot be applied (:class:`~repro.errors.UpdateError`) leaves the
        graph and its version untouched — ``apply_update`` checks all of ΔG
        before it clones or writes anything, and raises before the swap, so
        readers never observe a half-applied batch.
        """
        registered = self.get(name)
        with registered.lock:
            graph_before = registered.graph
            graph_after = apply_update(graph_before, delta)
            registered.graph = graph_after
            registered.version += 1
            outcome = UpdateOutcome(
                name=name,
                version=registered.version,
                delta=delta,
                graph_before=graph_before,
                graph_after=graph_after,
            )
            for listener in self._listeners:
                listener(outcome)
            return outcome

    # ------------------------------------------------------------- reporting

    def describe(self) -> list[dict]:
        """Return ``RegisteredGraph.info()`` for every graph, name-sorted."""
        return [self.get(name).info() for name in self.names()]

