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
(:meth:`~repro.matching.search.RuleSearch.step`), of the same generated
text the serial kernels' drivers run without ever building a work unit: a
unit is the form a partial match takes only
where it has to be queued or shipped — the simulator's queues, and the
seeds a process run hands its workers — and it is proven where it is made,
so it binds at least one variable.  A unit names its rule by index; the
plan at that index carries the rule.  The batch seeds all come from
:func:`first_step_seeds`: Dect hands them to its driver, PDect writes each
down as a unit.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.core.violations import Violation
from repro.graph.graph import Graph
from repro.matching.candidates import MatchStatistics
from repro.matching.search import RuleSearch

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.matching.plan import MatchPlan

__all__ = [
    "WorkUnit",
    "ExpansionOutcome",
    "expand_work_unit",
    "first_step_seeds",
]


class WorkUnit(NamedTuple):
    """A partial solution awaiting expansion at some processor (a tuple: PDect builds one per candidate)."""

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


def first_step_seeds(graph: Graph, plan: "MatchPlan", stats: MatchStatistics) -> tuple[list, int]:
    """The nodes of ``graph`` that pass all of step 0 of ``plan``'s root order, and the size of its scan."""
    return plan.schedule_for(plan.order).seeds(graph.store, stats)


def expand_work_unit(graph: Graph, unit: WorkUnit, stats: MatchStatistics, plan: "MatchPlan") -> ExpansionOutcome:
    """Expand ``unit`` by matching its next pattern variable, with the search of ``plan``'s rule.

    One :meth:`~repro.matching.search.RuleSearch.step` of the search core
    the serial kernels run: the unit's assignment is loaded as a seed, the
    step runs, and the frames it pushed are serialised back into work units.
    A unit that already binds every variable goes straight to the leaf.
    """
    search = RuleSearch(plan, stats)
    search.start(graph, unit.order, [node for _, node in unit.assignment])
    violations = search.step()
    new_units = [
        WorkUnit(unit.rule_index, order, unit.assignment + ((order[depth], node),), unit.from_insertion)
        for depth, node, _, order in search.stack
    ]
    return ExpansionOutcome(new_units, violations, search.filtering, search.verification)
