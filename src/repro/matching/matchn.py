"""The generic homomorphism matcher ``Matchn``, as a view of the search core.

Section 6.2 of the paper describes the framework most subgraph matching
algorithms follow: compute candidate sets ``C(u)``, then recursively expand a
partial solution ``M`` one pattern node at a time, checking edge consistency
against the already-matched nodes, and backtracking when a branch dies.  The
detection kernels run that framework as :class:`~repro.matching.search.
RuleSearch`; :class:`HomomorphismMatcher` is the same search for callers that
want the matches themselves (discovery, satisfiability, aggregates): it
compiles a plan for the pattern and its premise and drains the core with a
leaf that keeps every complete binding.

Matches follow homomorphism semantics (two pattern variables may map to the
same data node) and are yielded lazily as ``{variable: node_id}``
dictionaries.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping
from typing import Optional

from repro.core.ngd import NGD
from repro.expr.expressions import Assignment
from repro.expr.literals import LiteralSet
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.matching.candidates import MatchStatistics
from repro.matching.plan import GraphStatistics, compile_plan
from repro.matching.search import RuleSearch

__all__ = ["HomomorphismMatcher", "assignment_for_match"]


def assignment_for_match(
    graph: Graph,
    match: Mapping[str, Hashable],
    literals_variables: frozenset[tuple[str, str]],
) -> Assignment:
    """Build the attribute assignment a literal set needs from a match.

    Only the ``(variable, attribute)`` pairs actually referenced by literals
    are looked up; attributes the node does not carry are simply absent from
    the assignment (the literal then fails, per the paper's semantics).
    """
    assignment: dict[tuple[str, str], object] = {}
    for variable, attribute in literals_variables:
        node_id = match.get(variable)
        if node_id is None:
            continue
        node = graph.node(node_id)
        if node.has_attribute(attribute):
            assignment[(variable, attribute)] = node.attribute(attribute)
    return assignment


class HomomorphismMatcher:
    """Every match of ``pattern`` in ``graph``; with pruning, those that satisfy ``premise``.

    ``use_literal_pruning`` fires the premise literals during the search
    (Section 6.2, step (3)), so only matches satisfying the premise come
    out; without it the premise is ignored and every match comes out.
    ``statistics`` is the graph's :class:`~repro.matching.plan.
    GraphStatistics`: a caller building several matchers over one graph
    passes one snapshot to all of them instead of paying an edge pass each.
    """

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        premise: Optional[LiteralSet] = None,
        use_literal_pruning: bool = True,
        stats: Optional[MatchStatistics] = None,
        statistics: Optional[GraphStatistics] = None,
    ) -> None:
        self.graph = graph
        self.use_literal_pruning = use_literal_pruning
        self.stats = stats if stats is not None else MatchStatistics()
        rule = NGD(pattern, premise or (), name=pattern.name, allow_nonlinear=True)
        self.plan = compile_plan(graph, rule, statistics)

    def matches(self) -> Iterator[dict[str, Hashable]]:
        """Yield every match, depth-first in the plan's order."""
        search = RuleSearch(self.plan, self.use_literal_pruning, self.stats, all_matches=True)
        search.start(self.graph, self.plan.order, ())
        while search.stack:
            for leaf in search.step():
                yield leaf.mapping()
