"""Work units for the parallel detection algorithms.

PIncDect (Section 6.3) treats every partial solution awaiting expansion as a
*work unit*.  A work unit records which rule it belongs to, the partial
match built so far, the matching order being followed, and whether it grew
out of an insertion or a deletion pivot (which determines the graph version
it is expanded against).

:func:`expand_work_unit` performs one expansion step — exactly the
"candidate filtering followed by verification" step of procedure PIncMatch —
and reports the sizes the cost model needs (the anchor's adjacency list for
filtering, the candidate's adjacency list for verification) so the scheduler
can decide whether to split the step across processors.  With a compiled
plan the step is one step of the search core
(:class:`~repro.matching.search.RuleSearch`) the serial kernels drain without
ever building a work unit: a unit is the form a partial match takes only
where it has to be queued, shed or shipped.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.ngd import NGD
from repro.core.violations import Violation
from repro.graph.graph import Graph
from repro.matching.candidates import MatchStatistics, node_satisfies_unary_premise
from repro.matching.compiled import resolve_compiled
from repro.matching.matchn import match_violates_dependency
from repro.matching.search import RuleSearch

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.matching.adaptive import AdaptiveController
    from repro.matching.plan import MatchPlan

__all__ = [
    "WorkUnit",
    "ExpansionOutcome",
    "StaticSearch",
    "expand_work_unit",
    "rule_search",
]


@dataclass(frozen=True)
class WorkUnit:
    """A partial solution awaiting expansion at some processor."""

    rule_index: int
    order: tuple[str, ...]
    assignment: tuple[tuple[str, Hashable], ...]
    from_insertion: bool = True

    def depth(self) -> int:
        """Return the number of pattern variables already matched."""
        return len(self.assignment)

    def is_complete(self) -> bool:
        """Return True when every variable of the matching order is bound."""
        return len(self.assignment) >= len(self.order)

    def mapping(self) -> dict[str, Hashable]:
        """Return the partial match as a dictionary."""
        return dict(self.assignment)

    def next_variable(self) -> str:
        """Return the next pattern variable to match."""
        return self.order[len(self.assignment)]

    def extended(self, variable: str, node: Hashable) -> "WorkUnit":
        """Return a new work unit with ``variable`` bound to ``node``."""
        return WorkUnit(
            rule_index=self.rule_index,
            order=self.order,
            assignment=self.assignment + ((variable, node),),
            from_insertion=self.from_insertion,
        )


@dataclass
class ExpansionOutcome:
    """The result of one expansion step of a work unit."""

    new_units: list[WorkUnit]
    violations: list[Violation]
    filtering_adjacency: int
    verification_adjacency: int


def _anchor_variable(rule: NGD, unit: WorkUnit, next_variable: str) -> Optional[str]:
    """Return a matched variable adjacent (in the pattern) to ``next_variable``."""
    matched = {variable for variable, _ in unit.assignment}
    for neighbour in sorted(rule.pattern.neighbours(next_variable)):
        if neighbour in matched:
            return neighbour
    return None


def expand_work_unit(
    graph: Graph,
    rule: NGD,
    unit: WorkUnit,
    use_literal_pruning: bool = True,
    stats: Optional[MatchStatistics] = None,
    plan: Optional["MatchPlan"] = None,
    adaptive: Optional["AdaptiveController"] = None,
    compiled: Optional[bool] = None,
) -> ExpansionOutcome:
    """Expand ``unit`` by matching its next pattern variable.

    With a compiled plan this is one :meth:`~repro.matching.search.
    RuleSearch.step` of the search core the serial kernels drain: the unit's
    assignment is loaded as a seed, the step runs (an optional adaptive
    controller observes its candidate count and may re-order the unit's
    unbound suffix first), and the frames it pushed are serialised back into
    work units — the form a partial match needs only to be queued, shed or
    shipped.  ``compiled`` selects the closure-compiled literal schedule
    (:mod:`repro.matching.compiled`); ``None`` defers to
    ``REPRO_COMPILED_EVAL``.

    Without a plan (``REPRO_MATCH_PLANNER=off``, to be deleted with that
    switch), candidates are drawn from the adjacency list of an
    already-matched neighbour of the next variable (the "anchor"), checked
    for label and edge consistency against the whole partial solution, and
    pruned with the premise literals.  Completed matches are checked against
    X → Y and turned into violations.
    """
    stats = stats if stats is not None else MatchStatistics()
    if plan is not None:
        search = RuleSearch(rule, plan, use_literal_pruning, stats, adaptive, resolve_compiled(compiled))
        search.start(graph, unit.order, [node for _, node in unit.assignment])
        violations = search.step()
        new_units = [
            WorkUnit(
                unit.rule_index,
                order,
                unit.assignment + ((order[depth], node),),
                unit.from_insertion,
            )
            for depth, node, _, order in search.stack
        ]
        return ExpansionOutcome(new_units, violations, search.filtering, search.verification)
    if unit.is_complete():
        # a pivot can already cover every pattern variable (e.g. a two-node pattern);
        # the only remaining work is the dependency check itself
        match = unit.mapping()
        violations: list[Violation] = []
        if match_violates_dependency(graph, match, rule.premise, rule.conclusion, stats):
            stats.matches_emitted += 1
            violations.append(Violation.from_mapping(rule.name, match, rule.pattern.variables))
        return ExpansionOutcome([], violations, 1, 0)

    pattern = rule.pattern
    next_variable = unit.next_variable()
    partial = unit.mapping()
    anchor = _anchor_variable(rule, unit, next_variable)

    candidates: set[Hashable] = set()
    filtering_adjacency = 0
    if anchor is None:
        # disconnected pattern component: fall back to the label index
        candidates = set(graph.nodes_with_label(pattern.node(next_variable).label))
        filtering_adjacency = len(candidates)
    else:
        anchor_node = partial[anchor]
        filtering_adjacency = graph.adjacency_size(anchor_node)
        # label-filtered adjacency: the store serves exactly the neighbours
        # reachable over the pattern edge's label (O(result) on IndexedStore)
        for edge in pattern.out_edges(anchor):
            if edge.target == next_variable:
                candidates.update(graph.successors_by_label(anchor_node, edge.label))
        for edge in pattern.in_edges(anchor):
            if edge.source == next_variable:
                candidates.update(graph.predecessors_by_label(anchor_node, edge.label))

    stats.candidates_examined += len(candidates)
    new_units: list[WorkUnit] = []
    violations: list[Violation] = []
    verification_adjacency = 0
    pattern_node = pattern.node(next_variable)

    for candidate in sorted(candidates, key=graph.node_rank):
        if not pattern_node.matches_label(graph.node(candidate).label):
            continue
        if (
            use_literal_pruning
            and rule.premise
            and not node_satisfies_unary_premise(graph, candidate, next_variable, rule.premise, stats)
        ):
            continue
        # verification: every pattern edge between next_variable and matched variables
        verification_adjacency += graph.adjacency_size(candidate)
        consistent = True
        for edge in pattern.out_edges(next_variable):
            if edge.target in partial or edge.target == next_variable:
                target = candidate if edge.target == next_variable else partial[edge.target]
                stats.edge_checks += 1
                if not graph.has_edge(candidate, target, edge.label):
                    consistent = False
                    break
        if consistent:
            for edge in pattern.in_edges(next_variable):
                if edge.source in partial:
                    stats.edge_checks += 1
                    if not graph.has_edge(partial[edge.source], candidate, edge.label):
                        consistent = False
                        break
        if not consistent:
            continue
        stats.expansions += 1
        extended = unit.extended(next_variable, candidate)
        if extended.is_complete():
            match = extended.mapping()
            if match_violates_dependency(graph, match, rule.premise, rule.conclusion, stats):
                stats.matches_emitted += 1
                violations.append(Violation.from_mapping(rule.name, match, rule.pattern.variables))
        else:
            new_units.append(extended)

    return ExpansionOutcome(
        new_units=new_units,
        violations=violations,
        filtering_adjacency=filtering_adjacency,
        verification_adjacency=verification_adjacency,
    )


class StaticSearch:
    """The planner-off stand-in for :class:`~repro.matching.search.RuleSearch`.

    Same ``start`` / ``step`` / ``stack`` / cost-size surface, so the serial
    kernels drain it with the loop they drain the core with, but the frames
    are :class:`WorkUnit`\\ s and a step is the static body of
    :func:`expand_work_unit`.  Goes when ``REPRO_MATCH_PLANNER`` goes.
    """

    def __init__(self, rule: NGD, use_literal_pruning: bool, stats: MatchStatistics) -> None:
        self.rule = rule
        self.use_literal_pruning = use_literal_pruning
        self.stats = stats
        self.graph: Optional[Graph] = None
        self.stack: list[WorkUnit] = []
        self.filtering = self.verification = 0

    def start(self, graph: Graph, order: tuple[str, ...], ids) -> None:
        self.graph = graph
        self.stack.append(WorkUnit(0, order, tuple(zip(order, ids))))

    def step(self) -> list[Violation]:
        outcome = expand_work_unit(
            self.graph, self.rule, self.stack.pop(), self.use_literal_pruning, self.stats
        )
        self.stack.extend(outcome.new_units)
        self.filtering, self.verification = outcome.filtering_adjacency, outcome.verification_adjacency
        return outcome.violations


def rule_search(
    rule: NGD,
    plan: Optional["MatchPlan"],
    use_literal_pruning: bool,
    stats: MatchStatistics,
    adaptive: Optional["AdaptiveController"] = None,
    compiled: bool = True,
):
    """Return the search a serial kernel drains for ``rule``: the core, or its planner-off stand-in."""
    if plan is None:
        return StaticSearch(rule, use_literal_pruning, stats)
    return RuleSearch(rule, plan, use_literal_pruning, stats, adaptive, compiled)
