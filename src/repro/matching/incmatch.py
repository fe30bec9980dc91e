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

Pivots are found for all of Σ in one pass over ΔG: :func:`pivot_index` maps
each edge label to every place an updated edge with that label can land in
Σ (a rule and a :class:`PivotSite`, kept per pattern), built once per rule
list; :func:`pivots_by_rule` walks ΔG's endpoint labels against it.
:func:`find_update_pivots` is the same walk over a one-rule index.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.ngd import NGD, RuleSet
from repro.graph.graph import WILDCARD, Graph
from repro.graph.pattern import Pattern, PatternEdge
from repro.graph.updates import BatchUpdate, UnitUpdate
from repro.matching.candidates import MatchStatistics
from repro.matching.matchn import HomomorphismMatcher

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.graph.store import GraphStore
    from repro.matching.adaptive import AdaptiveController
    from repro.matching.plan import MatchPlan

__all__ = [
    "PivotSite",
    "UpdatePivot",
    "find_update_pivots",
    "pivot_index",
    "pivots_by_rule",
    "IncrementalMatcher",
]


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


class PivotSite:
    """One place an updated data edge can land in a pattern: one of its edges.

    ``seed`` is what a pivot on this edge binds — the edge's source, then its
    target; the one variable of a pattern self-loop — and ``internal`` every
    pattern edge between seed variables, the pivot edge included, as
    ``(seed position, seed position, label)``.  The search never checks an
    edge whose endpoints were both bound by the seed, and a ΔG may insert and
    delete the same edge, so :meth:`holds_in` probes them in the graph the
    pivot is searched in.
    """

    __slots__ = ("edge", "source_label", "target_label", "loop", "seed", "internal", "_pattern", "_static_order")

    def __init__(self, pattern: Pattern, edge: PatternEdge) -> None:
        self.edge = edge
        # None where the pattern node is a wildcard: any data label matches
        self.source_label, self.target_label = (
            None if label == WILDCARD else label
            for label in (pattern.node(edge.source).label, pattern.node(edge.target).label)
        )
        self.loop = edge.source == edge.target
        self.seed: tuple[str, ...] = (edge.source,) if self.loop else (edge.source, edge.target)
        position = {variable: index for index, variable in enumerate(self.seed)}
        self.internal = tuple(
            (position[other.source], position[other.target], other.label)
            for other in pattern.edges()
            if other.source in position and other.target in position
        )
        self._pattern = pattern
        self._static_order: Optional[tuple[str, ...]] = None

    def ids(self, update: UnitUpdate) -> tuple:
        """Return the data nodes a pivot of ``update`` binds to :attr:`seed`, in seed order."""
        return (update.source,) if self.loop else (update.source, update.target)

    def holds_in(self, store: "GraphStore", ids: Sequence[Hashable]) -> bool:
        """Return True when every pattern edge inside the seed is an edge of ``store`` under ``ids``."""
        has_edge_key = store.has_edge_key
        for source, target, label in self.internal:
            if not has_edge_key((ids[source], ids[target], label)):
                return False
        return True

    def order(self, plan: Optional["MatchPlan"]) -> tuple[str, ...]:
        """Return the variable order a pivot's search follows: the seed first.

        The plan's cost-based order for the seed; without a plan, the static
        connectivity order (``Pattern.matching_order``), kept once computed.
        """
        if plan is not None:
            return plan.order_for_seed(self.seed)
        if self._static_order is None:
            self._static_order = tuple(self._pattern.matching_order(seed=self.seed))
        return self._static_order


def _pattern_sites(pattern: Pattern) -> list[PivotSite]:
    return [PivotSite(pattern, edge) for edge in pattern.edges()]


def _build_pivot_index(rules: Sequence[NGD]) -> dict[str, list[tuple[int, PivotSite]]]:
    index: dict[str, list[tuple[int, PivotSite]]] = {}
    for rule_index, rule in enumerate(rules):
        for site in rule.pattern.derived("pivot_sites", _pattern_sites):
            index.setdefault(site.edge.label, []).append((rule_index, site))
    return index


def pivot_index(rules: RuleSet | Sequence[NGD]) -> dict[str, list[tuple[int, PivotSite]]]:
    """Return ``edge label -> [(rule index, PivotSite)]`` over Σ, in rule order, then pattern-edge order.

    Kept on a :class:`~repro.core.ngd.RuleSet` (built on first use, dropped
    by ``RuleSet.add``); a plain rule sequence gets a fresh index.  The sites
    themselves are kept on each pattern (``Pattern.derived``).
    """
    if isinstance(rules, RuleSet):
        return rules.derived("pivot_index", _build_pivot_index)
    return _build_pivot_index(rules)


def pivots_by_rule(
    rules: RuleSet | Sequence[NGD],
    delta: BatchUpdate,
    graph_before: Graph,
    graph_after: Graph,
) -> list[list[tuple[PivotSite, UnitUpdate]]]:
    """Return every rule's update pivots, one ``(site, unit update)`` each, from one pass over ΔG.

    Insertion pivots are label-checked against ``graph_after`` (the inserted
    endpoints may be brand-new nodes); deletion pivots against
    ``graph_before``.  The endpoint labels of each updated edge are resolved
    once per ΔG (:meth:`BatchUpdate.endpoint_labels`) and probed against
    :func:`pivot_index`, so all of Σ costs one dict probe per unit update plus
    the pattern edges carrying its label.  Each rule's list follows the batch
    order of ΔG, then the rule's pattern-edge order, which keeps incremental
    runs deterministic.
    """
    index = pivot_index(rules)
    found: list[list[tuple[PivotSite, UnitUpdate]]] = [[] for _ in range(len(rules))]
    for update, source_label, target_label in delta.endpoint_labels(graph_before, graph_after):
        for rule_index, site in index.get(update.label, ()):
            if site.loop and update.source != update.target:
                continue  # a pattern self-loop is matched by data self-loops only
            if site.source_label is not None and site.source_label != source_label:
                continue
            if site.target_label is not None and site.target_label != target_label:
                continue
            found[rule_index].append((site, update))
    return found


def find_update_pivots(
    rule: NGD,
    delta: BatchUpdate,
    graph_before: Graph,
    graph_after: Graph,
) -> list[UpdatePivot]:
    """Return every update pivot of ``rule`` triggered by ``delta``: :func:`pivots_by_rule` for one rule."""
    (found,) = pivots_by_rule((rule,), delta, graph_before, graph_after)
    return [UpdatePivot(rule.name, site.edge, u.source, u.target, u.is_insertion) for site, u in found]


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
