"""Graph patterns ``Q[x̄]``.

A graph pattern (paper, Section 2) is a small directed graph whose nodes are
bound to distinct *variables*; pattern node and edge labels are drawn from the
same alphabet as data graphs, plus the wildcard ``_`` which matches any node
label.  A *match* of ``Q[x̄]`` in a data graph ``G`` is a homomorphism ``h``
preserving labels and edges; the match is reported as the vector ``h(x̄)``.

:class:`Pattern` is a value: its nodes, the variable order ``x̄`` and its
edges are given to one constructor call and never change, so whatever is
derived from a pattern (its update-pivot sites, say) is computed once and
kept (``Pattern.derived``).  It provides the structural queries the
matcher and the satisfiability checker need: diameters, connectivity and
the adjacency of pattern nodes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro._frozen import Frozen
from repro.errors import PatternError

__all__ = ["PatternNode", "PatternEdge", "Pattern"]


@dataclass(frozen=True)
class PatternNode:
    """A pattern node: a variable name and a label (possibly the wildcard)."""

    variable: str
    label: str


@dataclass(frozen=True)
class PatternEdge:
    """A pattern edge between two variables, carrying an edge label."""

    source: str
    target: str
    label: str


class Pattern(Frozen):
    """A graph pattern ``Q[x̄]`` with a fixed variable order.

    Variables are strings; the bijection ``µ`` of the paper is implicit in the
    one-to-one correspondence between variables and pattern nodes.
    """

    def __init__(
        self,
        name: str,
        nodes: Iterable[tuple[str, str]],
        edges: Iterable[tuple[str, str, str]] = (),
    ) -> None:
        """Build a pattern from ``(variable, label)`` pairs and ``(source, target, label)`` triples.

        The variable order x̄ is the order of first appearance in ``nodes``.
        A node or edge given twice is kept once; a variable given two labels,
        an empty variable, or an edge naming an undefined variable raises
        :class:`PatternError`.
        """
        bound: dict[str, PatternNode] = {}
        for variable, label in nodes:
            if not variable:
                raise PatternError("pattern variables must be non-empty strings")
            node = bound.setdefault(variable, PatternNode(variable, label))
            if node.label != label:
                raise PatternError(f"variable {variable!r} is already bound to label {node.label!r}")
        kept: dict[PatternEdge, None] = {}
        for source, target, label in edges:
            for variable in (source, target):
                if variable not in bound:
                    raise PatternError(f"pattern variable {variable!r} is not defined")
            kept[PatternEdge(source, target, label)] = None
        vars(self).update(
            name=name,
            variables=tuple(bound),
            _nodes=bound,
            _edges=tuple(kept),
            _out={variable: tuple(edge for edge in kept if edge.source == variable) for variable in bound},
            _in={variable: tuple(edge for edge in kept if edge.target == variable) for variable in bound},
        )

    # ---------------------------------------------------------------- queries

    def node(self, variable: str) -> PatternNode:
        """Return the pattern node bound to ``variable``."""
        try:
            return self._nodes[variable]
        except KeyError:
            raise PatternError(f"pattern variable {variable!r} is not defined") from None

    def nodes(self) -> Iterator[PatternNode]:
        """Iterate over pattern nodes in variable order."""
        return iter(self._nodes.values())

    def edges(self) -> tuple[PatternEdge, ...]:
        """Return the pattern edges in the order they were given."""
        return self._edges

    def out_edges(self, variable: str) -> tuple[PatternEdge, ...]:
        """Return pattern edges leaving ``variable``."""
        return self._out.get(variable, ())

    def in_edges(self, variable: str) -> tuple[PatternEdge, ...]:
        """Return pattern edges entering ``variable``."""
        return self._in.get(variable, ())

    def neighbours(self, variable: str) -> frozenset[str]:
        """Return variables adjacent to ``variable`` ignoring direction."""
        adjacent = {e.target for e in self._out.get(variable, ())}
        adjacent.update(e.source for e in self._in.get(variable, ()))
        return frozenset(adjacent)

    def node_count(self) -> int:
        """Return the number of pattern nodes |V_Q|."""
        return len(self._nodes)

    def edge_count(self) -> int:
        """Return the number of pattern edges |E_Q|."""
        return len(self._edges)

    def size(self) -> int:
        """Return |V_Q| + |E_Q|."""
        return len(self._nodes) + len(self._edges)

    # ------------------------------------------------------------ structure

    def is_connected(self) -> bool:
        """Return True when the pattern is connected as an undirected graph."""
        return len(self.connected_components()) <= 1

    def connected_components(self) -> list[frozenset[str]]:
        """Return the variable sets of the undirected connected components, in variable order."""
        components: list[frozenset[str]] = []
        placed: set[str] = set()
        for variable in self.variables:
            if variable not in placed:
                components.append(frozenset(self.distances_from(variable)))
                placed |= components[-1]
        return components

    def distances_from(self, variable: str) -> dict[str, int]:
        """Return undirected BFS distances from ``variable`` to every reachable variable."""
        distances = {variable: 0}
        frontier = deque([variable])
        while frontier:
            current = frontier.popleft()
            for neighbour in self.neighbours(current):
                if neighbour not in distances:
                    distances[neighbour] = distances[current] + 1
                    frontier.append(neighbour)
        return distances

    def diameter(self) -> int:
        """Return the pattern diameter d_Q (Section 6.1).

        Defined as the maximum undirected shortest-path distance between any
        two pattern nodes in the same connected component.  A single-node or
        empty pattern has diameter 0.
        """
        best = 0
        for variable in self.variables:
            distances = self.distances_from(variable)
            if distances:
                best = max(best, max(distances.values()))
        return best

    # ----------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Return a JSON-serialisable description of the pattern.

        Shape: ``{"name": ..., "nodes": [[variable, label], ...],
        "edges": [[source, target, label], ...]}`` with nodes in variable
        order and edges in the order given, so :meth:`from_dict` rebuilds an
        ``==``-identical pattern.
        """
        return {
            "name": self.name,
            "nodes": [[node.variable, node.label] for node in self._nodes.values()],
            "edges": [[edge.source, edge.target, edge.label] for edge in self._edges],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "Pattern":
        """Rebuild a pattern from :meth:`to_dict` output.

        Raises :class:`PatternError` on structurally malformed documents
        (wrong entry shapes included), so callers such as the CLI's
        ``--rules-file`` loader can map any bad input to a usage error.
        """
        if not isinstance(document, dict) or "nodes" not in document:
            raise PatternError("pattern document must be a dict with a 'nodes' list")
        try:
            nodes = [(variable, label) for variable, label in document["nodes"]]
            edges = [
                (source, target, label)
                for source, target, label in document.get("edges", ())
            ]
        except (TypeError, ValueError) as exc:
            raise PatternError(
                "pattern document entries must be [variable, label] node pairs "
                f"and [source, target, label] edge triples: {exc}"
            ) from exc
        return cls(document.get("name", "Q"), nodes, edges)

    # ---------------------------------------------------------------- dunders

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        # the name is no part of the pattern: x̄ with its labels, and the edge set
        return tuple(self._nodes.values()), frozenset(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Pattern({self.name!r}, vars={list(self.variables)}, edges={len(self._edges)})"
