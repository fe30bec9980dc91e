"""Graph (de)serialisation.

Real deployments load knowledge graphs from dumps; this module provides a
small, dependency-free JSON format so examples and experiments can persist
graphs and batch updates.

JSON document shape::

    {
      "name": "G",
      "nodes": [{"id": ..., "label": ..., "attributes": {...}}, ...],
      "edges": [{"source": ..., "target": ..., "label": ...}, ...]
    }

Batch updates use one JSON object per unit update with an ``"op"`` field of
``"insert"`` or ``"delete"``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from repro.errors import GraphError, UpdateError
from repro.graph.graph import Graph
from repro.graph.store import GraphStore
from repro.graph.updates import BatchUpdate, EdgeDeletion, EdgeInsertion, NodePayload

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "atomic_write_json",
    "load_json_document",
    "save_update",
    "load_update",
]

PathLike = Union[str, Path]


def graph_to_dict(graph: Graph) -> dict:
    """Return a JSON-serialisable dictionary describing ``graph``."""
    return {
        "name": graph.name,
        "nodes": [
            {"id": node.id, "label": node.label, "attributes": dict(node.attributes)}
            for node in graph.nodes()
        ],
        "edges": [
            {"source": edge.source, "target": edge.target, "label": edge.label}
            for edge in graph.edges()
        ],
    }


StoreSpec = Union[str, GraphStore, None]


def graph_from_dict(document: dict, store: StoreSpec = None) -> Graph:
    """Rebuild a :class:`Graph` from the dictionary produced by :func:`graph_to_dict`.

    ``store`` selects the storage backend of the rebuilt graph (name,
    instance, or None for the process default).  The single funnel of
    ``load_graph``, ``POST /graphs/{name}``, WAL replay and checkpoint
    recovery: one :meth:`~repro.graph.store.GraphStore.bulk_load`, which
    builds the graph ``add_node`` / ``add_edge`` in document order would
    and raises what they would on a malformed document.
    """
    if "nodes" not in document or "edges" not in document:
        raise GraphError("graph document must contain 'nodes' and 'edges' lists")
    graph = Graph(document.get("name", "G"), store=store)

    # generator functions, not expressions: ``document["edges"]`` is looked at
    # after the last node is in, so a document with two faults raises the first
    def nodes():
        for entry in document["nodes"]:
            yield entry["id"], entry["label"], entry.get("attributes")

    def edges():
        for entry in document["edges"]:
            yield entry["source"], entry["target"], entry["label"]

    graph.store.bulk_load(nodes(), edges())
    return graph


def atomic_write_json(document: object, path: PathLike) -> None:
    """Write ``document`` to ``path`` as JSON, atomically.

    The bytes land in a sibling temp file that is fsync'd and then renamed
    over ``path``, so a crash mid-write leaves either the old file or the
    new one — never a torn JSON document.  Checkpoints and the data-dir
    manifest rely on this: recovery must always find a parseable file.
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True, default=str)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def load_json_document(path: PathLike) -> object:
    """Read one JSON document from ``path`` (checkpoint/manifest loader)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_graph(graph: Graph, path: PathLike, atomic: bool = False) -> None:
    """Write ``graph`` to ``path`` as JSON (``atomic=True`` for tmp+rename)."""
    if atomic:
        atomic_write_json(graph_to_dict(graph), path)
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_dict(graph), handle, indent=2, sort_keys=True, default=str)


def load_graph(path: PathLike, store: StoreSpec = None) -> Graph:
    """Load a graph previously written by :func:`save_graph`.

    ``store`` selects the storage backend of the loaded graph.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return graph_from_dict(json.load(handle), store=store)


def update_to_list(delta: BatchUpdate) -> list[dict]:
    """Return a JSON-serialisable list describing ``delta``."""
    entries = []
    for update in delta:
        entry = {
            "op": "insert" if update.is_insertion else "delete",
            "source": update.source,
            "target": update.target,
            "label": update.label,
        }
        if isinstance(update, EdgeInsertion):
            for side, payload in (("source", update.source_payload), ("target", update.target_payload)):
                if payload is not None:
                    entry[f"{side}_payload"] = {
                        "label": payload.label,
                        "attributes": dict(payload.attributes),
                    }
        entries.append(entry)
    return entries


def update_from_list(entries: list[dict]) -> BatchUpdate:
    """Rebuild a :class:`BatchUpdate` from :func:`update_to_list` output."""
    batch = BatchUpdate()
    for entry in entries:
        op = entry.get("op")
        if op == "insert":
            payloads = {}
            for side in ("source", "target"):
                raw = entry.get(f"{side}_payload")
                if raw is not None:
                    payloads[f"{side}_payload"] = NodePayload(raw["label"], raw.get("attributes", {}))
            batch.extend(
                [EdgeInsertion(entry["source"], entry["target"], entry["label"], **payloads)]
            )
        elif op == "delete":
            batch.extend([EdgeDeletion(entry["source"], entry["target"], entry["label"])])
        else:
            raise UpdateError(f"unknown update op {op!r}")
    return batch


def save_update(delta: BatchUpdate, path: PathLike) -> None:
    """Write a batch update to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(update_to_list(delta), handle, indent=2, default=str)


def load_update(path: PathLike) -> BatchUpdate:
    """Load a batch update previously written by :func:`save_update`."""
    with open(path, "r", encoding="utf-8") as handle:
        return update_from_list(json.load(handle))
