"""The 3-colourability reduction behind Theorem 5.

Theorem 5 shows that deciding whether ``ΔVio(Σ, G, ΔG) = ∅`` is
coNP-complete even for constant-size ``G`` and ``ΔG``, by reduction from the
complement of 3-colourability.  The reduction encodes an arbitrary undirected
graph ``H`` into

* a constant-size data graph ``G'`` containing a directed 3-clique of
  "colour" nodes,
* a single NGD whose pattern mirrors the *structure of H* (each vertex of H
  becomes a pattern variable, each undirected edge a pair of directed pattern
  edges) and whose conclusion is unsatisfiable (``x1.A = 3`` while every
  colour node carries ``A ≠ 3``), and
* a batch update of three edge insertions completing the clique.

A match of the pattern in the updated clique is exactly a proper 3-colouring
of H (adjacent pattern variables cannot map to the same colour node because
the clique has no self-loops), and every such match is a violation.  Hence
``ΔVio ≠ ∅`` iff H is 3-colourable.

This module implements the reduction and a brute-force 3-colourability
decision procedure so tests can confirm that the incremental detectors agree
with the ground truth on both positive and negative instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.ngd import NGD, RuleSet
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate

__all__ = ["ColoringInstance", "is_three_colorable", "coloring_to_incremental_instance"]

_EDGE_LABEL = "adj"
_COLOR_LABEL = "color"


@dataclass(frozen=True)
class ColoringInstance:
    """An undirected graph given as a vertex count and an edge list."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices) or u == v:
                raise ValueError(f"edge ({u}, {v}) is not valid for {self.num_vertices} vertices")


def is_three_colorable(instance: ColoringInstance) -> bool:
    """Brute-force 3-colourability (exponential; used on small instances)."""
    for colouring in itertools.product(range(3), repeat=instance.num_vertices):
        if all(colouring[u] != colouring[v] for u, v in instance.edges):
            return True
    return False


def coloring_to_incremental_instance(
    instance: ColoringInstance,
) -> tuple[Graph, RuleSet, BatchUpdate]:
    """Return ``(G, Σ, ΔG)`` such that ΔVio(Σ, G, ΔG) ≠ ∅ iff the instance is 3-colourable.

    ``G`` contains the three colour nodes with no edges; ``ΔG`` inserts the
    six directed edges of the 3-clique (both directions of each undirected
    clique edge); Σ holds the single NGD whose pattern encodes the input
    graph and whose conclusion ``x0.A = 3`` is violated by every match
    (colour nodes carry ``A ∈ {0, 1, 2}``).
    """
    graph = Graph("coloring-G")
    for colour in range(3):
        graph.add_node(f"c{colour}", _COLOR_LABEL, {"A": colour})

    delta = BatchUpdate()
    for a, b in itertools.permutations(range(3), 2):
        delta.insert(f"c{a}", f"c{b}", _EDGE_LABEL)

    nodes = [(f"x{i}", _COLOR_LABEL) for i in range(instance.num_vertices)]
    pattern_edges = []
    for u, v in instance.edges:
        pattern_edges.append((f"x{u}", f"x{v}", _EDGE_LABEL))
        pattern_edges.append((f"x{v}", f"x{u}", _EDGE_LABEL))
    pattern = Pattern("Q_coloring", nodes=nodes, edges=pattern_edges)
    rule = NGD.from_text(pattern, "", "x0.A = 3", name="coloring_rule")
    return graph, RuleSet([rule], name="coloring"), delta
