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

from collections import deque
from collections.abc import Hashable, Iterable

from repro.graph.graph import Graph
from repro.graph.updates import BatchUpdate

__all__ = [
    "nodes_within_hops",
    "multi_source_nodes_within_hops",
    "d_neighbor",
    "d_neighbor_of_nodes",
    "update_neighborhood",
    "undirected_distance",
    "average_component_diameter",
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


def undirected_distance(graph: Graph, source: Hashable, target: Hashable) -> float:
    """Return ``dist(source, target)`` treating the graph as undirected.

    Returns ``inf`` when the nodes are in different components or absent.
    """
    if not graph.has_node(source) or not graph.has_node(target):
        return float("inf")
    if source == target:
        return 0.0
    seen = {source: 0}
    frontier = deque([source])
    while frontier:
        current = frontier.popleft()
        for neighbour in graph.neighbours(current):
            if neighbour in seen:
                continue
            seen[neighbour] = seen[current] + 1
            if neighbour == target:
                return float(seen[neighbour])
            frontier.append(neighbour)
    return float("inf")


def average_component_diameter(graph: Graph, sample_size: int = 32, seed: int = 0) -> float:
    """Estimate the average diameter of connected components (Section 7 statistic).

    Exact diameters are quadratic; for the synthetic dataset statistics we use
    the standard double-BFS estimate per component, sampling at most
    ``sample_size`` components (deterministic given ``seed``).
    """
    import random

    rng = random.Random(seed)
    unvisited = set(graph.node_ids())
    diameters: list[int] = []
    components: list[set[Hashable]] = []
    while unvisited:
        start = next(iter(unvisited))
        component = set(nodes_within_hops(graph, start, graph.node_count()))
        components.append(component)
        unvisited -= component
    if not components:
        return 0.0
    if len(components) > sample_size:
        components = rng.sample(components, sample_size)
    for component in components:
        start = next(iter(component))
        far, _ = _farthest(graph, start)
        _, depth = _farthest(graph, far)
        diameters.append(depth)
    return sum(diameters) / len(diameters)


def _farthest(graph: Graph, start: Hashable) -> tuple[Hashable, int]:
    """Return the node farthest from ``start`` (undirected BFS) and its distance."""
    seen = {start: 0}
    frontier = deque([start])
    best, best_depth = start, 0
    while frontier:
        current = frontier.popleft()
        for neighbour in graph.neighbours(current):
            if neighbour not in seen:
                seen[neighbour] = seen[current] + 1
                if seen[neighbour] > best_depth:
                    best, best_depth = neighbour, seen[neighbour]
                frontier.append(neighbour)
    return best, best_depth
