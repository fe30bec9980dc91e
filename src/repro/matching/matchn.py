"""The generic homomorphism matcher ``Matchn``, as a view of the search core.

Section 6.2 of the paper describes the framework most subgraph matching
algorithms follow: compute candidate sets ``C(u)``, then recursively expand a
partial solution ``M`` one pattern node at a time, checking edge consistency
against the already-matched nodes, and backtracking when a branch dies.  The
detection kernels run that framework as :class:`~repro.matching.search.
RuleSearch`; :class:`HomomorphismMatcher` is the same search for callers that
want the matches themselves (discovery, satisfiability, aggregates).  The
matches of ``Q[x̄](X)`` are exactly the violations of ``Q[x̄](X → false)``,
so the matcher compiles that rule, with ``false`` the variable-free literal
``0 = 1``, seeds the core with its schedule's ``seeds()`` as Dect does, and
keeps what the one leaf emits; a pattern without variables has the one
empty match where X holds (:func:`~repro.matching.search.empty_match`).

Matches follow homomorphism semantics (two pattern variables may map to the
same data node) and are yielded lazily as ``{variable: node_id}``
dictionaries.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping
from typing import Optional

from repro.core.ngd import NGD
from repro.expr.expressions import Assignment
from repro.expr.literals import Literal, LiteralSet
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.matching.candidates import MatchStatistics
from repro.matching.plan import compile_plan
from repro.matching.search import RuleSearch, empty_match

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
    """Every match of ``pattern`` in ``graph`` that satisfies ``premise``.

    The premise literals fire during the search (Section 6.2, step (3)), so
    only matches satisfying the premise come out; with no premise every
    match does.  The plan reads the statistics the graph's store keeps, so a
    matcher costs no pass over the graph.
    """

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        premise: Optional[LiteralSet] = None,
        stats: Optional[MatchStatistics] = None,
    ) -> None:
        self.graph = graph
        self.stats = stats if stats is not None else MatchStatistics()
        never = Literal.build(0, "=", 1)
        rule = NGD(pattern, premise or (), (never,), name=pattern.name, allow_nonlinear=True)
        self.plan = compile_plan(graph, rule)

    def matches(self) -> Iterator[dict[str, Hashable]]:
        """Yield every match, depth-first in the plan's order."""
        for leaf in empty_match(self.plan, self.stats):
            yield leaf.mapping()
        order = self.plan.order
        search = RuleSearch(self.plan, self.stats)
        if order:
            nodes, _ = self.plan.schedule_for(order).seeds(self.graph.store, self.stats)
            search.seed(self.graph, order, nodes)
        while search.stack:
            for leaf in search.step():
                yield leaf.mapping()
