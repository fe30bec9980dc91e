"""Update-driven incremental matching (``IncMatch`` / ``IncSubMatch``).

Section 6.2: instead of searching the whole graph, incremental detection
starts from *update pivots*.  For each unit update of edge ``(v, v')`` and
each pattern edge ``(u, u')`` with matching labels, the partial solution
``h(u) = v, h(u') = v'`` is an update pivot; expanding pivots (by the same
backtracking search as ``Matchn``, but restricted to the neighbourhood of the
pivot) yields exactly the matches that involve an updated edge:

* pivots triggered by **insertions** are expanded in ``G ⊕ ΔG`` and produce
  candidates for ``ΔVio⁺`` (newly introduced violations);
* pivots triggered by **deletions** are expanded in the *old* graph ``G`` and
  produce candidates for ``ΔVio⁻`` (violations destroyed by the update).

Matches that do not touch any updated edge are unaffected by ΔG (edge updates
never change node attributes), which is why pivot-driven search is complete.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.ngd import NGD
from repro.graph.graph import Graph
from repro.graph.pattern import PatternEdge
from repro.graph.updates import BatchUpdate
from repro.matching.candidates import MatchStatistics
from repro.matching.matchn import HomomorphismMatcher

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.matching.adaptive import AdaptiveController
    from repro.matching.plan import MatchPlan

__all__ = ["UpdatePivot", "find_update_pivots", "IncrementalMatcher"]


@dataclass(frozen=True)
class UpdatePivot:
    """An initial partial solution seeded by a unit update.

    ``pattern_edge`` is the pattern edge matched by the updated data edge;
    ``source_node`` / ``target_node`` are the data endpoints; ``from_insertion``
    records which side of ΔG triggered the pivot.
    """

    rule: str
    pattern_edge: PatternEdge
    source_node: Hashable
    target_node: Hashable
    from_insertion: bool

    def seed(self) -> dict[str, Hashable]:
        """Return the seed partial solution ``{u: v, u': v'}``."""
        return {self.pattern_edge.source: self.source_node, self.pattern_edge.target: self.target_node}


def find_update_pivots(
    rule: NGD,
    delta: BatchUpdate,
    graph_before: Graph,
    graph_after: Graph,
) -> list[UpdatePivot]:
    """Return every update pivot of ``rule`` triggered by ``delta``.

    Insertion pivots are label-checked against ``graph_after`` (the inserted
    endpoints may be brand-new nodes); deletion pivots against ``graph_before``.
    The endpoint labels of each updated edge are resolved once per ΔG
    (:meth:`BatchUpdate.endpoint_labels`, shared by every rule asking about
    the same two snapshots) and probed against the pattern's edge-label index,
    so a rule costs one dict probe per unit update plus the pattern edges
    carrying that label, with no node lookups of its own; pivot order follows
    the batch order of ΔG, which keeps incremental runs deterministic.
    """
    pivots: list[UpdatePivot] = []
    by_label = rule.pattern.edges_by_label()
    for update, source_label, target_label in delta.endpoint_labels(graph_before, graph_after):
        for pattern_edge, source_node, target_node in by_label.get(update.label, ()):
            if pattern_edge.source == pattern_edge.target and update.source != update.target:
                continue  # a pattern self-loop is matched by data self-loops only
            if not source_node.matches_label(source_label):
                continue
            if not target_node.matches_label(target_label):
                continue
            pivots.append(
                UpdatePivot(
                    rule=rule.name,
                    pattern_edge=pattern_edge,
                    source_node=update.source,
                    target_node=update.target,
                    from_insertion=update.is_insertion,
                )
            )
    return pivots


class IncrementalMatcher:
    """Expands update pivots into update-driven violations for one NGD.

    ``plan`` optionally carries a compiled
    :class:`~repro.matching.plan.MatchPlan` shared by both directions: pivot
    seeds are expanded in the plan's cost-based order instead of the static
    connectivity order (the plan's seeded schedules put the pivot variables
    first, so the neighbourhood restriction of Section 6.2 is preserved).
    """

    def __init__(
        self,
        rule: NGD,
        graph_before: Graph,
        graph_after: Graph,
        use_literal_pruning: bool = True,
        stats: Optional[MatchStatistics] = None,
        plan: Optional["MatchPlan"] = None,
        adaptive: Optional["AdaptiveController"] = None,
        compiled: Optional[bool] = None,
    ) -> None:
        self.rule = rule
        self.graph_before = graph_before
        self.graph_after = graph_after
        self.use_literal_pruning = use_literal_pruning
        self.stats = stats if stats is not None else MatchStatistics()
        self.plan = plan
        self._matcher_after = HomomorphismMatcher(
            graph_after,
            rule.pattern,
            premise=rule.premise,
            conclusion=rule.conclusion,
            use_literal_pruning=use_literal_pruning,
            stats=self.stats,
            plan=plan,
            adaptive=adaptive,
            compiled=compiled,
        )
        self._matcher_before = HomomorphismMatcher(
            graph_before,
            rule.pattern,
            premise=rule.premise,
            conclusion=rule.conclusion,
            use_literal_pruning=use_literal_pruning,
            stats=self.stats,
            plan=plan,
            adaptive=adaptive,
            compiled=compiled,
        )

    def introduced_violations(self, pivot: UpdatePivot) -> Iterator[dict[str, Hashable]]:
        """Yield violating matches in ``G ⊕ ΔG`` that extend an insertion pivot."""
        if not pivot.from_insertion:
            return
        yield from self._matcher_after.violations(seed=pivot.seed())

    def removed_violations(self, pivot: UpdatePivot) -> Iterator[dict[str, Hashable]]:
        """Yield violating matches in the old graph ``G`` that extend a deletion pivot."""
        if pivot.from_insertion:
            return
        yield from self._matcher_before.violations(seed=pivot.seed())

    def violations_for_pivot(self, pivot: UpdatePivot) -> Iterator[dict[str, Hashable]]:
        """Dispatch on the pivot kind."""
        if pivot.from_insertion:
            yield from self.introduced_violations(pivot)
        else:
            yield from self.removed_violations(pivot)
