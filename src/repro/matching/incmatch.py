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

An insertion may also bring a new endpoint node.  A pattern component with
no edge (a one-node pattern, or the lone variable of a disconnected one) is
never reached through an edge, so every node ΔG introduces whose label such
a component's variable admits seeds that variable: a *node pivot*, expanded
in ``G ⊕ ΔG`` like an insertion pivot.

Any other match is unaffected by ΔG: it uses no updated edge and no new
node, and edge updates never change node attributes.  That is why
pivot-driven search is complete.

Pivots are found for all of Σ in one pass over ΔG: :func:`pivot_index` maps
each edge label to every place an updated edge with that label can land in
Σ (a rule and a :class:`PivotSite`), and ``None`` to every place a new node
can land (a rule and a :class:`NodeSite`).  The sites are kept per pattern
and the index per rule set, each built once; :func:`pivots_by_rule` walks
ΔG's endpoint labels against it.  :func:`find_update_pivots` is the same
walk over a one-rule index.  :func:`pivot_seeds`, with which IncDect and
PIncDect make their seeds, keeps only the pivots that their literals do not
refuse, so every search starts from a proven prefix.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.ngd import NGD, RuleSet
from repro.graph.graph import WILDCARD, Graph
from repro.graph.pattern import Pattern, PatternEdge
from repro.graph.updates import BatchUpdate, UnitUpdate

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.graph.store import GraphStore
    from repro.matching.candidates import MatchStatistics
    from repro.matching.plan import MatchPlan

__all__ = [
    "NodeSite",
    "PivotSite",
    "UpdatePivot",
    "find_update_pivots",
    "pivot_index",
    "pivot_seeds",
    "pivots_by_rule",
]


@dataclass(frozen=True)
class UpdatePivot:
    """An initial partial solution seeded by ΔG: the seed ``variables`` bound to data ``nodes``.

    An edge pivot binds the endpoints of a pattern edge (the one variable of
    a self-loop) to those of an updated data edge; a node pivot binds the
    variable of an edge-less component to a node that ΔG introduces.
    ``from_insertion`` records which side of ΔG triggered the pivot.
    """

    rule: str
    variables: tuple[str, ...]
    nodes: tuple[Hashable, ...]
    from_insertion: bool

    def seed(self) -> dict[str, Hashable]:
        """Return the seed partial solution ``{u: v, u': v'}``."""
        return dict(zip(self.variables, self.nodes))


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

    __slots__ = ("edge", "source_label", "target_label", "loop", "seed", "internal")

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


class NodeSite:
    """One place a node that ΔG introduces can land in a pattern: a component with no edge.

    Such a component is one variable that no pattern edge touches, so no
    updated edge ever lands on it.  ``seed`` is that variable, bound to a new
    node whose label ``label`` admits (None: the wildcard admits any); with
    no pattern edge inside the seed, :meth:`holds_in` has nothing to probe.
    """

    __slots__ = ("label", "seed")

    def __init__(self, pattern: Pattern, variable: str) -> None:
        label = pattern.node(variable).label
        self.label = None if label == WILDCARD else label
        self.seed = (variable,)

    def holds_in(self, store: "GraphStore", ids: Sequence[Hashable]) -> bool:
        """Return True: a node pivot binds no pattern edge."""
        return True


#: A pivot index: edge label -> the places an updated edge with it lands, and
#: None -> the places a node that ΔG introduces lands; each as (rule index, site).
PivotIndex = dict[str | None, list[tuple[int, PivotSite | NodeSite]]]


def _pattern_sites(pattern: Pattern) -> list[PivotSite | NodeSite]:
    """Every pattern edge's site, then, in variable order, the site of every component with no edge.

    Such a component is a variable without a neighbour.
    """
    edge_sites = [PivotSite(pattern, edge) for edge in pattern.edges()]
    lone = [variable for variable in pattern.variables if not pattern.neighbours(variable)]
    return edge_sites + [NodeSite(pattern, variable) for variable in lone]


def _build_pivot_index(rules: Sequence[NGD]) -> PivotIndex:
    index: PivotIndex = {}
    for rule_index, rule in enumerate(rules):
        for site in rule.pattern.derived("pivot_sites", _pattern_sites):
            key = site.edge.label if isinstance(site, PivotSite) else None
            index.setdefault(key, []).append((rule_index, site))
    return index


def pivot_index(rules: RuleSet | Sequence[NGD]) -> PivotIndex:
    """Return ``edge label -> [(rule index, PivotSite)]`` over Σ, plus ``None -> [(rule index, NodeSite)]``.

    Each list is in rule order, then in the pattern's site order.  The index
    is kept on a :class:`~repro.core.ngd.RuleSet`, built on its first use: a
    rule set never changes, so neither does its index.  A plain rule
    sequence gets a fresh index.  The sites themselves are kept on each
    pattern (``Pattern.derived``).
    """
    if isinstance(rules, RuleSet):
        return rules.derived("pivot_index", _build_pivot_index)
    return _build_pivot_index(rules)


def pivots_by_rule(
    rules: RuleSet | Sequence[NGD],
    delta: BatchUpdate,
    graph_before: Graph,
    graph_after: Graph,
) -> list[list[tuple[PivotSite | NodeSite, tuple, bool]]]:
    """Return every rule's pivots, one ``(site, seed nodes, from insertion)`` each, from a pass over ΔG.

    Insertion pivots are label-checked against ``graph_after`` (the inserted
    endpoints may be brand-new nodes); deletion pivots against
    ``graph_before``.  The endpoint labels of each updated edge are resolved
    once per ΔG (:meth:`BatchUpdate.endpoint_labels`) and probed against
    :func:`pivot_index`, so all of Σ costs one dict probe per unit update plus
    the pattern edges carrying its label.  Each rule's edge pivots follow
    the batch order of ΔG, then the rule's pattern-edge order.

    Only a Σ with a :class:`NodeSite` then makes a second pass, for the
    nodes ΔG introduces: the inserted endpoints absent from
    ``graph_before``, each once, in the order ΔG first names them.  Each
    gets a node pivot on every node site whose label admits it, after the
    rule's edge pivots.  Both orders keep incremental runs deterministic.
    """
    index = pivot_index(rules)
    labelled = delta.endpoint_labels(graph_before, graph_after)
    found: list[list[tuple[PivotSite | NodeSite, tuple, bool]]] = [[] for _ in range(len(rules))]
    for update, source_label, target_label in labelled:
        for rule_index, site in index.get(update.label, ()):
            if site.loop and update.source != update.target:
                continue  # a pattern self-loop is matched by data self-loops only
            if site.source_label is not None and site.source_label != source_label:
                continue
            if site.target_label is not None and site.target_label != target_label:
                continue
            found[rule_index].append((site, site.ids(update), update.is_insertion))
    node_sites = index.get(None)
    if node_sites:
        existed = graph_before.store.has_node
        introduced: set[Hashable] = set()
        for update, source_label, target_label in labelled:
            if not update.is_insertion:
                continue
            for node, label in ((update.source, source_label), (update.target, target_label)):
                if node in introduced or existed(node):
                    continue
                introduced.add(node)
                for rule_index, site in node_sites:
                    if site.label is None or site.label == label:
                        found[rule_index].append((site, (node,), True))
    return found


def find_update_pivots(
    rule: NGD,
    delta: BatchUpdate,
    graph_before: Graph,
    graph_after: Graph,
) -> list[UpdatePivot]:
    """Return every pivot of ``rule`` triggered by ``delta``: :func:`pivots_by_rule` for one rule."""
    (found,) = pivots_by_rule((rule,), delta, graph_before, graph_after)
    return [UpdatePivot(rule.name, site.seed, ids, inserted) for site, ids, inserted in found]


def pivot_seeds(plan: "MatchPlan", pivots, graph_for, stats: "MatchStatistics") -> tuple[int, list[tuple]]:
    """Return how many of one rule's ``pivots`` pass ``holds_in`` in ``graph_for(from insertion)``, and the
    ``(order, ids, from insertion)`` seeds of those ``Schedule.prove`` passes (billed to ``stats``), in pivot order."""
    consistent, seeds = 0, []
    for site, ids, inserted in pivots:
        store = graph_for(inserted).store
        if site.holds_in(store, ids):
            consistent += 1
            order = plan.order_for_seed(site.seed)
            if plan.schedule_for(order).prove(store, ids, stats):
                seeds.append((order, ids, inserted))
    return consistent, seeds
