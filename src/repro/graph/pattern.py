"""Graph patterns ``Q[x̄]``.

A graph pattern (paper, Section 2) is a small directed graph whose nodes are
bound to distinct *variables*; pattern node and edge labels are drawn from the
same alphabet as data graphs, plus the wildcard ``_`` which matches any node
label.  A *match* of ``Q[x̄]`` in a data graph ``G`` is a homomorphism ``h``
preserving labels and edges; the match is reported as the vector ``h(x̄)``.

:class:`Pattern` stores the pattern graph together with the variable order
``x̄`` and provides the structural queries the matcher and the satisfiability
checker need: diameters, connectivity, adjacency of pattern nodes, and a
deterministic matching order seeded from a pivot edge (used by update-driven
incremental matching).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Optional, TypeVar

from repro.errors import PatternError
from repro.graph.graph import WILDCARD, Graph

__all__ = ["PatternNode", "PatternEdge", "Pattern"]

T = TypeVar("T")


@dataclass(frozen=True)
class PatternNode:
    """A pattern node: a variable name and a label (possibly the wildcard)."""

    variable: str
    label: str

    def matches_label(self, label: str) -> bool:
        """Return True when a data node carrying ``label`` can match this pattern node."""
        return self.label == WILDCARD or self.label == label


@dataclass(frozen=True)
class PatternEdge:
    """A pattern edge between two variables, carrying an edge label."""

    source: str
    target: str
    label: str

    def endpoints(self) -> tuple[str, str]:
        """Return ``(source variable, target variable)``."""
        return (self.source, self.target)


class Pattern:
    """A graph pattern ``Q[x̄]`` with a fixed variable order.

    Variables are strings; the bijection ``µ`` of the paper is implicit in the
    one-to-one correspondence between variables and pattern nodes.
    """

    def __init__(self, name: str = "Q") -> None:
        self.name = name
        self._nodes: dict[str, PatternNode] = {}
        self._order: list[str] = []
        self._edges: list[PatternEdge] = []
        self._edge_keys: set[tuple[str, str, str]] = set()
        self._out: dict[str, list[PatternEdge]] = {}
        self._in: dict[str, list[PatternEdge]] = {}
        # values computed from the whole pattern (its update-pivot sites), dropped by add_node/add_edge
        self._derived: dict[str, object] = {}

    # ----------------------------------------------------------- construction

    def add_node(self, variable: str, label: str = WILDCARD) -> PatternNode:
        """Add a pattern node bound to ``variable``; duplicate variables are rejected."""
        if not variable:
            raise PatternError("pattern variables must be non-empty strings")
        if variable in self._nodes:
            existing = self._nodes[variable]
            if existing.label == label:
                return existing
            raise PatternError(
                f"variable {variable!r} is already bound to label {existing.label!r}"
            )
        node = PatternNode(variable, label)
        self._derived.clear()
        self._nodes[variable] = node
        self._order.append(variable)
        self._out.setdefault(variable, [])
        self._in.setdefault(variable, [])
        return node

    def add_edge(self, source: str, target: str, label: str) -> PatternEdge:
        """Add a pattern edge; both endpoint variables must exist."""
        for variable in (source, target):
            if variable not in self._nodes:
                raise PatternError(f"pattern variable {variable!r} is not defined")
        key = (source, target, label)
        if key in self._edge_keys:
            return next(e for e in self._edges if (e.source, e.target, e.label) == key)
        edge = PatternEdge(source, target, label)
        self._derived.clear()
        self._edges.append(edge)
        self._edge_keys.add(key)
        self._out[source].append(edge)
        self._in[target].append(edge)
        return edge

    @classmethod
    def from_edges(
        cls,
        name: str,
        nodes: Iterable[tuple[str, str]],
        edges: Iterable[tuple[str, str, str]] = (),
    ) -> "Pattern":
        """Build a pattern from ``(variable, label)`` pairs and ``(src, dst, label)`` triples."""
        pattern = cls(name)
        for variable, label in nodes:
            pattern.add_node(variable, label)
        for source, target, label in edges:
            pattern.add_edge(source, target, label)
        return pattern

    def derived(self, key: str, build: Callable[["Pattern"], T]) -> T:
        """Return ``build(self)``, computed once per ``key`` and again after the pattern grows."""
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    # ---------------------------------------------------------------- queries

    @property
    def variables(self) -> tuple[str, ...]:
        """Return the variable list x̄ in insertion order."""
        return tuple(self._order)

    def node(self, variable: str) -> PatternNode:
        """Return the pattern node bound to ``variable``."""
        try:
            return self._nodes[variable]
        except KeyError:
            raise PatternError(f"pattern variable {variable!r} is not defined") from None

    def has_variable(self, variable: str) -> bool:
        """Return True when ``variable`` is bound in this pattern."""
        return variable in self._nodes

    def nodes(self) -> Iterator[PatternNode]:
        """Iterate over pattern nodes in variable order."""
        return (self._nodes[v] for v in self._order)

    def edges(self) -> tuple[PatternEdge, ...]:
        """Return the pattern edges in insertion order."""
        return tuple(self._edges)

    def out_edges(self, variable: str) -> tuple[PatternEdge, ...]:
        """Return pattern edges leaving ``variable``."""
        return tuple(self._out.get(variable, ()))

    def in_edges(self, variable: str) -> tuple[PatternEdge, ...]:
        """Return pattern edges entering ``variable``."""
        return tuple(self._in.get(variable, ()))

    def incident_edges(self, variable: str) -> tuple[PatternEdge, ...]:
        """Return all pattern edges touching ``variable``."""
        return tuple(self._out.get(variable, ())) + tuple(self._in.get(variable, ()))

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
        if not self._nodes:
            return True
        seen = {self._order[0]}
        frontier = deque(seen)
        while frontier:
            current = frontier.popleft()
            for neighbour in self.neighbours(current):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self._nodes)

    def connected_components(self) -> list[frozenset[str]]:
        """Return the variable sets of the undirected connected components."""
        remaining = set(self._order)
        components: list[frozenset[str]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = deque([start])
            while frontier:
                current = frontier.popleft()
                for neighbour in self.neighbours(current):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            components.append(frozenset(seen))
            remaining -= seen
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
        for variable in self._order:
            distances = self.distances_from(variable)
            if distances:
                best = max(best, max(distances.values()))
        return best

    def radius_from(self, variable: str) -> int:
        """Return the eccentricity of ``variable`` within its component."""
        distances = self.distances_from(variable)
        return max(distances.values()) if distances else 0

    # ----------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Return a JSON-serialisable description of the pattern.

        Shape: ``{"name": ..., "nodes": [[variable, label], ...],
        "edges": [[source, target, label], ...]}`` with nodes in variable
        order and edges in insertion order, so :meth:`from_dict` rebuilds an
        ``==``-identical pattern.
        """
        return {
            "name": self.name,
            "nodes": [[variable, self._nodes[variable].label] for variable in self._order],
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
        return cls.from_edges(document.get("name", "Q"), nodes=nodes, edges=edges)

    def to_graph(self, label_attributes: Optional[dict[str, dict[str, object]]] = None) -> Graph:
        """Materialise the pattern as a data graph (used by the satisfiability checker).

        Each pattern node becomes a data node whose id is the variable name;
        wildcard labels are kept verbatim.  ``label_attributes`` optionally
        supplies attribute tuples per variable.
        """
        graph = Graph(f"{self.name}-canonical")
        attrs = label_attributes or {}
        for variable in self._order:
            node = self._nodes[variable]
            graph.add_node(variable, node.label, attrs.get(variable, {}))
        for edge in self._edges:
            graph.add_edge(edge.source, edge.target, edge.label)
        return graph

    # ---------------------------------------------------------------- dunders

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self._order == other._order
            and {v: n.label for v, n in self._nodes.items()}
            == {v: n.label for v, n in other._nodes.items()}
            and self._edge_keys == other._edge_keys
        )

    def __hash__(self) -> int:
        return hash(
            (
                tuple(self._order),
                tuple(sorted((v, n.label) for v, n in self._nodes.items())),
                tuple(sorted(self._edge_keys)),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Pattern({self.name!r}, vars={self._order}, edges={len(self._edges)})"
