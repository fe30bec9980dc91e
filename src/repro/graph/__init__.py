"""Property-graph substrate: graphs, patterns, updates, neighbourhoods, partitioning."""

from repro._lazy import lazy_exports
from repro.graph.graph import WILDCARD, Edge, Graph, Node
from repro.graph.neighborhood import (
    d_neighbor,
    d_neighbor_of_nodes,
    nodes_within_hops,
    undirected_distance,
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

# public fragmentation names, imported on first use: no detection path
# partitions a graph (the process backend ships whole images)
__getattr__, __dir__ = lazy_exports(
    globals(),
    dict.fromkeys(
        ("Fragment", "Fragmentation", "bfs_edge_cut", "greedy_vertex_cut", "hash_edge_cut"),
        "repro.graph.partition",
    ),
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
    "undirected_distance",
    "update_neighborhood",
    "Fragment",
    "Fragmentation",
    "bfs_edge_cut",
    "greedy_vertex_cut",
    "hash_edge_cut",
    "STORE_REGISTRY",
    "GraphStore",
    "IndexedStore",
    "make_store",
]
