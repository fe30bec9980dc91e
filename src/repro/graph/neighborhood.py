"""d-neighbourhoods and locality helpers.

Section 6.1 of the paper defines, for a node ``v`` of graph ``G``:

* ``V_d(v)`` — all nodes within ``d`` hops of ``v`` when ``G`` is treated as
  an undirected graph;
* ``G_d(v)`` — the subgraph of ``G`` induced by ``V_d(v)``, the
  *d-neighbour* of ``v``.

The cost of a *localizable* incremental algorithm is determined by the
dΣ-neighbours of the nodes touched by ΔG, where dΣ is the maximum pattern
diameter in Σ.  This module computes those neighbourhoods, both for single
nodes and for whole batch updates (``G_dΣ(ΔG)``, the union used in the cost
analyses), plus the candidate neighbourhood ``N_C`` extraction that PIncDect
replicates across processors.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.graph.graph import Graph
from repro.graph.updates import BatchUpdate

__all__ = [
    "nodes_within_hops",
    "multi_source_nodes_within_hops",
    "d_neighbor",
    "d_neighbor_of_nodes",
    "update_neighborhood",
]


def multi_source_nodes_within_hops(
    graph: Graph, sources: Iterable[Hashable], hops: int
) -> frozenset[Hashable]:
    """Return the union of ``V_d(v)`` over all sources with a single multi-source BFS.

    Equivalent to unioning :func:`nodes_within_hops` per source but costs one
    pass over the reached region, which is what the incremental algorithms
    are charged for identifying ``G_dΣ(ΔG)``.  Sources absent from the graph
    are ignored.  The walk goes level by level over the storage engine's
    adjacency (:meth:`~repro.graph.store.GraphStore.neighbours_of`): one set
    per level, nothing per node.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    store = graph.store
    seen = {source for source in sources if store.has_node(source)}
    frontier = seen
    for _ in range(hops):
        frontier = store.neighbours_of(frontier)
        frontier -= seen
        if not frontier:
            break
        seen |= frontier
    return frozenset(seen)


def nodes_within_hops(graph: Graph, start: Hashable, hops: int) -> frozenset[Hashable]:
    """Return ``V_d(start)``: node ids within ``hops`` undirected hops of ``start``.

    ``start`` itself is always included (distance 0).  Nodes absent from the
    graph are treated as isolated: the result is empty.
    """
    return multi_source_nodes_within_hops(graph, (start,), hops)


def d_neighbor(graph: Graph, node: Hashable, hops: int) -> Graph:
    """Return ``G_d(node)``: the subgraph induced by ``V_d(node)``."""
    return graph.induced_subgraph(nodes_within_hops(graph, node, hops), name=f"{graph.name}_d{hops}({node!r})")


def d_neighbor_of_nodes(graph: Graph, nodes: Iterable[Hashable], hops: int) -> Graph:
    """Return the subgraph induced by the union of ``V_d(v)`` for ``v`` in ``nodes``.

    Node ids missing from the graph are ignored (they may be endpoints of
    insertions that have not been applied yet).  The union is computed with a
    single multi-source BFS, and the induced subgraph is built from the
    adjacency of the reached nodes, so the whole extraction costs the size of
    the neighbourhood — never a scan of all of E.
    """
    union = multi_source_nodes_within_hops(graph, nodes, hops)
    return graph.induced_subgraph(union, name=f"{graph.name}_d{hops}(union)")


def update_neighborhood(graph: Graph, delta: BatchUpdate, hops: int) -> Graph:
    """Return ``G_d(ΔG)``: the induced subgraph around every node touched by ΔG.

    This is the region a localizable incremental algorithm is allowed to read;
    its size appears in the cost bound ``O(|Σ| · |G_dΣ(ΔG)|^|Σ|)`` of IncDect.
    The neighbourhood is computed on ``graph`` as given — callers decide
    whether that is ``G`` or ``G ⊕ ΔG⁺``.
    """
    return d_neighbor_of_nodes(graph, delta.touched_nodes(), hops)
