"""Work units for the parallel detection algorithms.

PIncDect (Section 6.3) treats every partial solution awaiting expansion as a
*work unit*.  A work unit records which rule it belongs to, the partial
match built so far, the matching order being followed, and whether it grew
out of an insertion or a deletion pivot (which determines the graph version
it is expanded against).

:func:`expand_work_unit` performs one expansion step — exactly the
"candidate filtering followed by verification" step of procedure PIncMatch —
and reports the sizes the cost model needs (the index scan for filtering,
one unit per verified candidate) so the scheduler can decide whether to split
the step across processors.  The step is one step of the search core
(:class:`~repro.matching.search.RuleSearch`) the serial kernels drain without
ever building a work unit: a unit is the form a partial match takes only
where it has to be queued, shed or shipped.  :func:`rule_search` is the one
constructor of that core the serial kernels and :func:`expand_work_unit`
share.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.ngd import NGD
from repro.core.violations import Violation
from repro.errors import ExecutionError
from repro.graph.graph import Graph
from repro.matching.candidates import MatchStatistics
from repro.matching.search import RuleSearch

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.matching.adaptive import AdaptiveController
    from repro.matching.plan import MatchPlan

__all__ = [
    "WorkUnit",
    "ExpansionOutcome",
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


@dataclass
class ExpansionOutcome:
    """The result of one expansion step of a work unit."""

    new_units: list[WorkUnit]
    violations: list[Violation]
    filtering_adjacency: int
    verification_adjacency: int


def rule_search(
    rule: NGD,
    plan: "MatchPlan",
    use_literal_pruning: bool,
    stats: MatchStatistics,
    adaptive: Optional["AdaptiveController"] = None,
) -> RuleSearch:
    """Return the search core for the violations of ``rule``, run over ``plan``.

    The kernels take rules and plans from separate arguments (``plans=`` is
    caller-supplied), and a plan's literal schedule indexes its own rule's
    literals, so the pairing is checked here: ``plan`` must have been
    compiled for this very rule object.
    """
    if plan.rule is not rule:
        raise ExecutionError(f"the plan of rule {plan.rule.name!r} cannot run rule {rule.name!r}")
    return RuleSearch(plan, use_literal_pruning, stats, adaptive)


def expand_work_unit(
    graph: Graph,
    rule: NGD,
    unit: WorkUnit,
    use_literal_pruning: bool,
    stats: MatchStatistics,
    plan: "MatchPlan",
    adaptive: Optional["AdaptiveController"] = None,
) -> ExpansionOutcome:
    """Expand ``unit`` by matching its next pattern variable.

    One :meth:`~repro.matching.search.RuleSearch.step` of the search core
    the serial kernels drain: the unit's assignment is loaded as a seed, the
    step runs (an optional adaptive controller observes its candidate count
    and may re-order the unit's unbound suffix first), and the frames it
    pushed are serialised back into work units.  A unit that already binds
    every variable gets only the dependency check.
    """
    search = rule_search(rule, plan, use_literal_pruning, stats, adaptive)
    search.start(graph, unit.order, [node for _, node in unit.assignment])
    violations = search.step()
    new_units = [
        WorkUnit(unit.rule_index, order, unit.assignment + ((order[depth], node),), unit.from_insertion)
        for depth, node, _, order in search.stack
    ]
    return ExpansionOutcome(new_units, violations, search.filtering, search.verification)
