"""Property-graph substrate: graphs, patterns, updates, neighbourhoods."""

from repro.graph.graph import WILDCARD, Edge, Graph, Node
from repro.graph.neighborhood import (
    d_neighbor,
    d_neighbor_of_nodes,
    nodes_within_hops,
    update_neighborhood,
)
from repro.graph.pattern import Pattern, PatternEdge, PatternNode
from repro.graph.store import STORE_REGISTRY, GraphStore, IndexedStore, make_store
from repro.graph.updates import (
    BatchUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodePayload,
    UpdateGenerator,
    apply_update,
)

__all__ = [
    "WILDCARD",
    "Edge",
    "Graph",
    "Node",
    "Pattern",
    "PatternEdge",
    "PatternNode",
    "BatchUpdate",
    "EdgeDeletion",
    "EdgeInsertion",
    "NodePayload",
    "UpdateGenerator",
    "apply_update",
    "d_neighbor",
    "d_neighbor_of_nodes",
    "nodes_within_hops",
    "update_neighborhood",
    "STORE_REGISTRY",
    "GraphStore",
    "IndexedStore",
    "make_store",
]
