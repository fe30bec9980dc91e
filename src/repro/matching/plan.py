"""Cost-based match planning: compile an NGD into an immutable :class:`MatchPlan`.

The ``Matchn`` framework (paper, Section 6.2) leaves two degrees of freedom
open: the order in which pattern variables are matched, and how the candidate
set of each variable is generated.  This module fixes both from the data, and
separates *planning* from *execution*:

* :class:`GraphStatistics` snapshots the store statistics the cost model
  reads: label cardinalities (``len(nodes_with_label(l))`` — O(1) on the
  indexed engines) and per-edge-label average fan-out;
* :func:`compile_plan` chooses a variable order greedily by estimated
  candidate cardinality — start from the rarest label, then repeatedly bind
  the frontier variable whose anchored candidate set is estimated smallest —
  and resolves, per step, the candidate *strategy* (``scan`` over the label
  index vs ``anchored`` intersection of label-filtered adjacency views,
  smallest set first) and the *literal schedule* (which premise literals
  fire at which binding depth);
* :class:`MatchPlan` is the immutable result.  ``schedule_for(order)``
  resolves a step schedule for any variable order (seeded orders included),
  so one plan serves batch search, pivot-seeded incremental search, and the
  parallel work-unit kernels alike; resolved schedules are memoised.

The one executor is the search core :class:`~repro.matching.search.RuleSearch`:
the four detection kernels drive it, and ``HomomorphismMatcher`` is its view
for callers that want matches rather than violations.  Every search runs a
plan.

Cost accounting is uniform across strategies: every node drawn from an index
and examined is billed one ``candidates_examined``, each adjacency membership
probe one ``edge_checks``, each literal evaluation one
``literal_evaluations``, so runs are directly comparable through
``MatchStatistics.total_operations()``.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.core.ngd import NGD
from repro.expr.literals import Literal
from repro.graph.graph import WILDCARD, Graph
from repro.graph.store import _CsrNeighboursView
from repro.matching.candidates import MatchStatistics
from repro.matching.compiled import CompiledSchedule, CompiledStep, csr_sorted_intersection

__all__ = [
    "GraphStatistics",
    "Anchor",
    "PlanStep",
    "MatchPlan",
    "compile_plan",
    "compile_plans",
    "step_candidates",
    "format_plan",
    "plans_to_document",
    "plans_from_document",
    "save_plans",
    "load_plans",
]

# ------------------------------------------------------------------ statistics


@dataclass(frozen=True)
class GraphStatistics:
    """The store statistics the plan cost model reads, snapshotted once.

    Label cardinalities come straight from the label index
    (``len(nodes_with_label(l))``); edge-label counts from one pass over E.
    Both are pure functions of the graph content, independent of the storage
    backend, so the same graph compiles to the same plan on every engine.

    ``source_pairs`` / ``target_pairs`` record per-(node-label, edge-label)
    co-occurrence: how many ``edge_label`` edges *leave* (resp. *enter*)
    nodes of each label.  They sharpen the anchored-fan estimate for
    correlated hub patterns — a graph-wide ``average_fan`` dilutes a hub
    label's true fan-out across every node — and are gathered in the same
    O(|E|) pass.  Both stay optional so statistics snapshots persisted by
    older plan documents keep producing exactly their old estimates.
    """

    node_count: int
    edge_count: int
    label_counts: Mapping[str, int]
    edge_label_counts: Mapping[str, int]
    source_pairs: Optional[Mapping[str, Mapping[str, int]]] = None
    target_pairs: Optional[Mapping[str, Mapping[str, int]]] = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphStatistics":
        """Snapshot the statistics of ``graph`` (one O(|E|) pass)."""
        label_counts = {
            label: len(graph.nodes_with_label(label)) for label in sorted(graph.labels())
        }
        edge_label_counts: dict[str, int] = {}
        source_pairs: dict[str, dict[str, int]] = {}
        target_pairs: dict[str, dict[str, int]] = {}
        # an edge's endpoints exist, so their labels are read straight from the store
        get_node = graph.store.get_node
        for edge in graph.edges():
            label = edge.label
            edge_label_counts[label] = edge_label_counts.get(label, 0) + 1
            by_edge = source_pairs.setdefault(get_node(edge.source).label, {})
            by_edge[label] = by_edge.get(label, 0) + 1
            by_edge = target_pairs.setdefault(get_node(edge.target).label, {})
            by_edge[label] = by_edge.get(label, 0) + 1
        return cls(
            node_count=graph.node_count(),
            edge_count=graph.edge_count(),
            label_counts=label_counts,
            edge_label_counts=edge_label_counts,
            source_pairs=source_pairs,
            target_pairs=target_pairs,
        )

    def to_dict(self) -> dict:
        """Return the JSON form used by plan persistence (exact values)."""
        document = {
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "label_counts": dict(self.label_counts),
            "edge_label_counts": dict(self.edge_label_counts),
        }
        if self.source_pairs is not None:
            document["source_pairs"] = {
                label: dict(pairs) for label, pairs in self.source_pairs.items()
            }
        if self.target_pairs is not None:
            document["target_pairs"] = {
                label: dict(pairs) for label, pairs in self.target_pairs.items()
            }
        return document

    @classmethod
    def from_dict(cls, document: Mapping) -> "GraphStatistics":
        """Rebuild a statistics snapshot from :meth:`to_dict` output.

        Documents written before co-occurrence statistics existed simply
        lack the keys; the rebuilt snapshot then falls back to the
        ``average_fan`` estimates it was compiled with.
        """
        source_pairs = document.get("source_pairs")
        target_pairs = document.get("target_pairs")
        return cls(
            node_count=int(document["node_count"]),
            edge_count=int(document["edge_count"]),
            label_counts=dict(document["label_counts"]),
            edge_label_counts=dict(document["edge_label_counts"]),
            source_pairs={label: dict(pairs) for label, pairs in source_pairs.items()}
            if source_pairs is not None
            else None,
            target_pairs={label: dict(pairs) for label, pairs in target_pairs.items()}
            if target_pairs is not None
            else None,
        )

    def label_cardinality(self, label: str) -> int:
        """Return |{v : L(v) = label}| (the wildcard matches every node)."""
        if label == WILDCARD:
            return self.node_count
        return self.label_counts.get(label, 0)

    def average_fan(self, edge_label: str) -> float:
        """Return the expected number of ``edge_label`` neighbours of one node."""
        if self.node_count == 0:
            return 0.0
        return self.edge_label_counts.get(edge_label, 0) / self.node_count

    def anchored_fan(
        self, anchor_label: str, edge_label: str, direction: str, candidate_label: str
    ) -> float:
        """Estimate the ``edge_label`` fan from one ``anchor_label`` node.

        Uses the co-occurrence counts when available: only edges whose
        source *and* target labels are compatible with the pattern edge can
        contribute, and the compatible count is spread over the anchor
        label's population rather than the whole node set.  ``direction``
        follows :class:`Anchor` semantics: ``"succ"`` means the data edge
        runs anchor → candidate, ``"pred"`` candidate → anchor.
        """
        if self.source_pairs is None or self.target_pairs is None:
            return self.average_fan(edge_label)
        total = self.edge_label_counts.get(edge_label, 0)
        if direction == "succ":
            source_label, target_label = anchor_label, candidate_label
        else:
            source_label, target_label = candidate_label, anchor_label
        if source_label == WILDCARD:
            from_source = total
        else:
            from_source = self.source_pairs.get(source_label, {}).get(edge_label, 0)
        if target_label == WILDCARD:
            into_target = total
        else:
            into_target = self.target_pairs.get(target_label, {}).get(edge_label, 0)
        return min(from_source, into_target) / max(self.label_cardinality(anchor_label), 1)


# ----------------------------------------------------------------- plan model


@dataclass(frozen=True)
class Anchor:
    """One already-bound pattern neighbour constraining a step's candidates.

    ``direction`` names the adjacency view of the *anchor's* data node that
    serves the candidates: ``"succ"`` for a pattern edge anchor → step
    variable (candidates ⊆ ``successors_by_label(h(anchor), edge_label)``),
    ``"pred"`` for step variable → anchor (candidates ⊆
    ``predecessors_by_label``).
    """

    variable: str
    edge_label: str
    direction: str

    def view(self, graph: Graph, anchor_node: Hashable):
        """Return the label-filtered adjacency view this anchor contributes."""
        if self.direction == "succ":
            return graph.successors_by_label(anchor_node, self.edge_label)
        return graph.predecessors_by_label(anchor_node, self.edge_label)


@dataclass(frozen=True)
class PlanStep:
    """One variable binding of a compiled schedule.

    ``strategy`` is ``"scan"`` (enumerate the label index, filtered by the
    degree signature) or ``"anchored"`` (intersect the anchors' label-filtered
    adjacency views, smallest set first).  The literal schedule is
    pre-resolved: ``unary_premise`` holds indices (into the rule's premise
    literal tuple) evaluated during candidate filtering, ``premise_checks``
    the multi-variable premise literals that become fully bound when this
    variable binds, and ``check_conclusion`` marks the step at which a
    single-literal conclusion is fully bound (a bound conclusion that already
    holds cannot become a violation, so the branch is pruned — Section 6.2,
    step (3)).
    """

    variable: str
    label: str
    strategy: str
    anchors: tuple[Anchor, ...]
    self_loops: tuple[str, ...]
    out_labels: tuple[str, ...]
    in_labels: tuple[str, ...]
    unary_premise: tuple[int, ...]
    premise_checks: tuple[int, ...]
    check_conclusion: bool
    estimated_candidates: float
    #: ``(variable, strategy)``: what observed cardinalities are keyed by, built
    #: once here rather than once per observed step
    key: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.variable, self.strategy))

    def to_dict(self) -> dict:
        """Return the JSON form used by ``repro-detect explain --format json``."""
        return {
            "variable": self.variable,
            "label": self.label,
            "strategy": self.strategy,
            "anchors": [
                {"variable": a.variable, "edge_label": a.edge_label, "direction": a.direction}
                for a in self.anchors
            ],
            "estimated_candidates": round(self.estimated_candidates, 3),
            "unary_premise_literals": list(self.unary_premise),
            "premise_literals": list(self.premise_checks),
            "checks_conclusion": self.check_conclusion,
        }


class MatchPlan:
    """An immutable compiled execution plan for one NGD over one graph snapshot.

    The root schedule (``steps`` / ``order``) drives batch search; seeded
    searches (update pivots) ask :meth:`order_for_seed` for a cost-based
    order beginning with the seed variables and :meth:`schedule_for` for the
    matching step schedule.  Schedules are pure functions of
    ``(statistics, rule, order, observed)``; the internal memo tables only
    cache their results, so a plan can be shared freely across threads and
    kernels.

    ``observed`` optionally carries the history-informed cardinality priors
    the plan was compiled with (``{(variable, strategy): mean}``) — purely a
    cost-model input; it never changes which matches a plan finds.
    """

    __slots__ = (
        "rule",
        "statistics",
        "steps",
        "order",
        "observed",
        "_premise_literals",
        "_schedules",
        "_seed_orders",
        "_compiled",
    )

    def __init__(
        self,
        rule: NGD,
        statistics: GraphStatistics,
        steps: tuple[PlanStep, ...],
        observed: Optional[Mapping[tuple[str, str], float]] = None,
    ) -> None:
        self.rule = rule
        self.statistics = statistics
        self.steps = steps
        #: the cost-based root variable order
        self.order: tuple[str, ...] = tuple(step.variable for step in steps)
        self.observed: Optional[dict[tuple[str, str], float]] = (
            dict(observed) if observed else None
        )
        self._premise_literals: tuple[Literal, ...] = rule.premise.literals()
        self._schedules: dict[tuple[str, ...], tuple[PlanStep, ...]] = {self.order: steps}
        self._seed_orders: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._compiled: dict[tuple[str, ...], CompiledSchedule] = {}

    def premise_literal(self, index: int) -> Literal:
        """Return the premise literal a schedule index refers to."""
        return self._premise_literals[index]

    def order_for_seed(self, seed: Sequence[str]) -> tuple[str, ...]:
        """Return a cost-based order starting with ``seed`` (in the given order)."""
        key = tuple(seed)
        if not key:
            return self.order
        cached = self._seed_orders.get(key)
        if cached is None:
            cached = _greedy_order(self.statistics, self.rule.pattern, key, self.observed)
            self._seed_orders[key] = cached
        return cached

    def schedule_for(self, order: tuple[str, ...]) -> tuple[PlanStep, ...]:
        """Return the step schedule for an arbitrary complete variable order.

        Step ``d`` is compiled against the bound prefix ``order[:d]``, so the
        same schedule serves every work unit following ``order`` regardless
        of how many leading variables its seed already bound.
        """
        cached = self._schedules.get(order)
        if cached is None:
            cached = _steps_for_order(self.statistics, self.rule, order, self.observed)
            self._schedules[order] = cached
        return cached

    def compiled_for(self, order: tuple[str, ...]) -> CompiledSchedule:
        """Return the closure-compiled schedule for ``order`` (memoised).

        Compiled schedules are pure functions of ``(rule, order,
        schedule)``; an adaptive suffix replan therefore recompiles only
        the revised order it introduces — every other memo entry stays
        valid, and the bound-prefix slots of in-flight work units stay
        valid too because slot ``d`` is always position ``d`` of the
        order.
        """
        cached = self._compiled.get(order)
        if cached is None:
            cached = CompiledSchedule.build(self, order, self.schedule_for(order))
            self._compiled[order] = cached
        return cached

    def __getstate__(self):
        # the compiled memo holds closures, which do not pickle: spawn
        # workers rebuild plans from the persisted plan document and
        # recompile lazily on first use; fork workers inherit this object
        # (closures included) without pickling
        return (self.rule, self.statistics, self.steps, self.observed)

    def __setstate__(self, state) -> None:
        rule, statistics, steps, observed = state
        MatchPlan.__init__(self, rule, statistics, steps, observed)

    def revised_order(
        self,
        order: tuple[str, ...],
        depth: int,
        observed: Mapping[tuple[str, str], float],
    ) -> tuple[str, ...]:
        """Re-order the unbound suffix of ``order`` using observed cardinalities.

        The bound prefix ``order[:depth]`` is kept verbatim (those variables
        are already matched in-flight); the remaining variables are
        re-greedily ordered with ``observed`` means standing in for the
        compile-time estimates.  The adaptive controller calls this when a
        step's measured candidate counts drift past the threshold.
        """
        return _greedy_order(self.statistics, self.rule.pattern, tuple(order[:depth]), observed)

    def estimated_unit_cost(self, depth: int) -> float:
        """Return the estimated subtree size of a work unit bound to ``depth`` variables.

        The product of the remaining steps' candidate estimates — the
        quantity PDect's seed placement balances across processors.
        """
        return self.remaining_cost(self.order, depth)

    def remaining_cost(self, order: tuple[str, ...], depth: int) -> float:
        """Return the remaining-subtree estimate of a unit following ``order``.

        The product of the candidate estimates of the steps not yet bound —
        the plan-guided workload measure :func:`~repro.detect.parallel.
        balancing.should_split_planned` tests and the executors balance on.
        Seeded (pivot) orders resolve through the memoised schedule, so the
        estimate is exact for incremental work units too.
        """
        steps = self.steps if order == self.order else self.schedule_for(order)
        cost = 1.0
        for step in steps[depth:]:
            cost *= max(step.estimated_candidates, 1.0)
            if cost > 1e18:
                return 1e18
        return cost

    def to_dict(self) -> dict:
        """Return the JSON description used by ``repro-detect explain``.

        The document also carries the exact ``statistics`` snapshot, which
        makes it a complete persistent form: :meth:`from_dict` rebuilds an
        identical plan from it (schedules are pure functions of
        ``(statistics, rule, order, observed)``, so only those are stored).
        """
        document = {
            "rule": self.rule.name,
            "order": list(self.order),
            "estimated_cost": round(self.estimated_unit_cost(0), 3),
            "steps": [step.to_dict() for step in self.steps],
            "statistics": self.statistics.to_dict(),
        }
        if self.observed:
            document["observed"] = [
                [variable, strategy, self.observed[(variable, strategy)]]
                for variable, strategy in sorted(self.observed)
            ]
        return document

    @classmethod
    def from_dict(cls, document: Mapping, rule: NGD) -> "MatchPlan":
        """Rebuild a plan from :meth:`to_dict` output and its rule.

        The stored variable order is authoritative (a persisted plan keeps
        executing the order it was compiled with, even if the compiler
        heuristic changes later); the step schedule is recompiled from the
        stored statistics, which is exact and costs no graph pass.
        """
        from repro.errors import SerializationError

        if document.get("rule") != rule.name:
            raise SerializationError(
                f"plan document is for rule {document.get('rule')!r}, not {rule.name!r}"
            )
        statistics = GraphStatistics.from_dict(document["statistics"])
        order = tuple(document["order"])
        if len(order) != len(rule.pattern.variables) or set(order) != set(
            rule.pattern.variables
        ):
            raise SerializationError(
                f"plan order {list(order)} is not a permutation of the "
                f"variables of {rule.name!r}"
            )
        observed = {
            (str(variable), str(strategy)): float(mean)
            for variable, strategy, mean in document.get("observed", [])
        } or None
        return cls(
            rule, statistics, _steps_for_order(statistics, rule, order, observed), observed
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MatchPlan({self.rule.name!r}, order={list(self.order)})"


# ------------------------------------------------------------------- compiler


def _anchors_for(pattern, variable: str, bound: set) -> tuple[Anchor, ...]:
    """Return every pattern edge linking ``variable`` to a bound variable."""
    anchors: list[Anchor] = []
    for edge in pattern.out_edges(variable):
        if edge.target in bound and edge.target != variable:
            anchors.append(Anchor(edge.target, edge.label, "pred"))
    for edge in pattern.in_edges(variable):
        if edge.source in bound and edge.source != variable:
            anchors.append(Anchor(edge.source, edge.label, "succ"))
    return tuple(anchors)


def _estimate(
    stats: GraphStatistics,
    pattern,
    variable: str,
    anchors: tuple[Anchor, ...],
    observed: Optional[Mapping[tuple[str, str], float]] = None,
) -> float:
    """Estimate |C(variable)| given the bound anchors.

    An unanchored variable scans its label bucket; an anchored one reads the
    smallest label-filtered adjacency view, whose expected size is the
    anchored co-occurrence fan — the intersection can only be smaller, so the
    minimum over the anchors (capped by the label cardinality) is an
    upper-bound estimate consistent across anchors.

    ``observed`` optionally overrides the model with measured candidate
    means keyed ``(variable, strategy)`` — how adaptive replanning and the
    persisted cardinality history inject what an actual run saw.
    """
    strategy = "anchored" if anchors else "scan"
    if observed is not None:
        prior = observed.get((variable, strategy))
        if prior is not None:
            return max(float(prior), 0.0)
    candidate_label = pattern.node(variable).label
    label_cardinality = float(stats.label_cardinality(candidate_label))
    if not anchors:
        return label_cardinality
    fan = min(
        stats.anchored_fan(
            pattern.node(anchor.variable).label,
            anchor.edge_label,
            anchor.direction,
            candidate_label,
        )
        for anchor in anchors
    )
    return min(label_cardinality, fan)


def _greedy_order(
    stats: GraphStatistics,
    pattern,
    seed: Sequence[str] = (),
    observed: Optional[Mapping[tuple[str, str], float]] = None,
) -> tuple[str, ...]:
    """Choose a variable order greedily by estimated candidate cardinality.

    Ties break on pattern-variable declaration index, so the order is a
    deterministic pure function of (statistics, pattern, seed, observed) and
    identical on every storage backend.
    """
    variables = pattern.variables
    index = {variable: position for position, variable in enumerate(variables)}
    order: list[str] = []
    bound: set = set()
    for variable in seed:
        if variable not in bound:
            order.append(variable)
            bound.add(variable)
    while len(order) < len(variables):
        frontier = [
            variable
            for variable in variables
            if variable not in bound and _anchors_for(pattern, variable, bound)
        ]
        pool = frontier if frontier else [v for v in variables if v not in bound]
        best = min(
            pool,
            key=lambda v: (
                _estimate(stats, pattern, v, _anchors_for(pattern, v, bound), observed),
                index[v],
            ),
        )
        order.append(best)
        bound.add(best)
    return tuple(order)


def _steps_for_order(
    stats: GraphStatistics,
    rule: NGD,
    order: tuple[str, ...],
    observed: Optional[Mapping[tuple[str, str], float]] = None,
) -> tuple[PlanStep, ...]:
    """Compile the per-step strategies and literal schedule for a fixed order."""
    pattern = rule.pattern
    premise_literals = rule.premise.literals()
    conclusion_literals = rule.conclusion.literals()
    single_conclusion = conclusion_literals[0] if len(conclusion_literals) == 1 else None

    scheduled: set[int] = set()
    conclusion_done = False
    steps: list[PlanStep] = []
    bound: set = set()
    for variable in order:
        anchors = _anchors_for(pattern, variable, bound)
        self_loops = tuple(
            edge.label for edge in pattern.out_edges(variable) if edge.target == variable
        )
        unary: list[int] = []
        checks: list[int] = []
        now_bound = bound | {variable}
        for literal_index, literal in enumerate(premise_literals):
            if literal_index in scheduled:
                continue
            mentioned = literal.pattern_variables()
            if not (mentioned <= now_bound):
                continue
            scheduled.add(literal_index)
            if mentioned == frozenset({variable}):
                unary.append(literal_index)
            else:
                checks.append(literal_index)
        check_conclusion = False
        if single_conclusion is not None and not conclusion_done:
            if single_conclusion.pattern_variables() <= now_bound:
                check_conclusion = True
                conclusion_done = True
        steps.append(
            PlanStep(
                variable=variable,
                label=pattern.node(variable).label,
                strategy="anchored" if anchors else "scan",
                anchors=anchors,
                self_loops=self_loops,
                out_labels=tuple(edge.label for edge in pattern.out_edges(variable)),
                in_labels=tuple(edge.label for edge in pattern.in_edges(variable)),
                unary_premise=tuple(unary),
                premise_checks=tuple(checks),
                check_conclusion=check_conclusion,
                estimated_candidates=_estimate(stats, pattern, variable, anchors, observed),
            )
        )
        bound = now_bound
    return tuple(steps)


def compile_plan(
    graph: Graph,
    rule: NGD,
    statistics: Optional[GraphStatistics] = None,
    observed: Optional[Mapping[tuple[str, str], float]] = None,
) -> MatchPlan:
    """Compile one NGD into a :class:`MatchPlan` against ``graph``'s statistics.

    ``observed`` optionally injects measured per-step candidate means (from
    a :class:`~repro.matching.adaptive.CardinalityHistory`) as priors over
    the statistical estimates.
    """
    stats = statistics if statistics is not None else GraphStatistics.from_graph(graph)
    order = _greedy_order(stats, rule.pattern, observed=observed)
    return MatchPlan(rule, stats, _steps_for_order(stats, rule, order, observed), observed)


def compile_plans(graph: Graph, rules, history=None) -> tuple[MatchPlan, ...]:
    """Compile every rule of an iterable/RuleSet, sharing one statistics pass.

    ``history`` is duck-typed: anything with ``priors_for(rule_name, stats)``
    returning an observed-cardinality mapping (or None) works — the adaptive
    module's :class:`~repro.matching.adaptive.CardinalityHistory` in practice.

    Each plan's root :class:`CompiledSchedule` is built here too, so closure
    compilation is billed inside the session's ``detect.compile_plans`` span
    rather than inside the first expansion of the search.
    """
    stats = GraphStatistics.from_graph(graph)
    plans = []
    for rule in rules:
        observed = history.priors_for(rule.name, stats) if history is not None else None
        plans.append(compile_plan(graph, rule, statistics=stats, observed=observed))
    for plan in plans:
        plan.compiled_for(plan.order)
    return tuple(plans)


# ---------------------------------------------------------------- persistence


def plans_to_document(plans: Sequence[MatchPlan], history=None) -> dict:
    """Return the JSON document for a compiled plan set.

    Saved next to rule catalogs (``save_plans``) so worker processes and
    service restarts skip recompilation; also the wire form the process
    executor ships to ``spawn``-style workers.  ``history`` optionally
    embeds a cardinality-history document (anything with ``to_document()``,
    or a plain mapping) under the top-level ``"history"`` key; readers that
    predate it ignore the key.
    """
    document = {
        "format": "repro-match-plans",
        "plans": [plan.to_dict() for plan in plans],
    }
    if history is not None:
        document["history"] = (
            history.to_document() if hasattr(history, "to_document") else dict(history)
        )
    return document


def plans_from_document(document: Mapping, rules) -> tuple[MatchPlan, ...]:
    """Rebuild a plan set from :func:`plans_to_document` output.

    ``rules`` must carry the same rules, in the same order, as the set the
    document was compiled from (matched by rule name, checked per plan).
    """
    from repro.errors import SerializationError

    if not isinstance(document, Mapping) or document.get("format") != "repro-match-plans":
        raise SerializationError("not a match-plan document (missing repro-match-plans format tag)")
    entries = document.get("plans")
    rule_list = list(rules)
    if not isinstance(entries, list) or len(entries) != len(rule_list):
        raise SerializationError(
            f"plan document has {len(entries) if isinstance(entries, list) else '??'} plans "
            f"for {len(rule_list)} rules"
        )
    return tuple(
        MatchPlan.from_dict(entry, rule) for entry, rule in zip(entries, rule_list)
    )


def save_plans(plans: Sequence[MatchPlan], path, history=None) -> None:
    """Write a compiled plan set to ``path`` as JSON (next to its rule catalog)."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(plans_to_document(plans, history=history), handle, indent=2, sort_keys=True)


def load_plans(path, rules) -> tuple[MatchPlan, ...]:
    """Load a plan set previously written by :func:`save_plans`."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        return plans_from_document(json.load(handle), rules)


# ------------------------------------------------------------------- executor


def _unary_rejects(checks, attrs, stats: MatchStatistics) -> bool:
    """Run a step's compiled unary checks over one node's attribute mapping.

    Billing: one ``literal_evaluations`` per check reached, stop at the
    first rejection.
    """
    for check in checks:
        stats.literal_evaluations += 1
        if not check(attrs):
            return True
    return False


def step_candidates(
    graph: Graph,
    plan: MatchPlan,
    step: PlanStep,
    partial: Mapping[str, Hashable],
    stats: MatchStatistics,
    use_literal_pruning: bool,
    compiled_step: CompiledStep,
) -> tuple[list[Hashable], int]:
    """Execute one step's candidate strategy.

    Returns ``(candidates, scanned)`` where ``candidates`` is rank-sorted and
    already label- and unary-literal-filtered, and ``scanned`` is the size of
    the index scan performed (the filtering cost the parallel cost model
    charges).  Billing: one ``candidates_examined`` per node drawn from the
    scanned index — identically for both strategies — plus one ``edge_checks``
    per adjacency membership probe of the anchored intersection.

    The unary premise filter runs ``compiled_step``'s closures over the
    node's attribute mapping, and the anchored strategy intersects
    ``CsrStore`` rank slices by sorted merge (output already in rank order, so
    the final sort is skipped).
    """
    pattern_node = plan.rule.pattern.node(step.variable)
    candidates: list[Hashable] = []
    presorted = False
    unary_checks = compiled_step.unary_checks if use_literal_pruning else ()

    if step.strategy == "anchored":
        views = [anchor.view(graph, partial[anchor.variable]) for anchor in step.anchors]
        base_index = min(range(len(views)), key=lambda i: len(views[i]))
        base = views[base_index]
        others = [view for i, view in enumerate(views) if i != base_index]
        scanned = len(base)
        merged = None
        if (
            scanned
            and isinstance(base, _CsrNeighboursView)
            and all(isinstance(view, _CsrNeighboursView) for view in others)
        ):
            merged = csr_sorted_intersection(base, others)
        if merged is not None:
            # billing parity with the probe loop below: every base node is
            # examined once and charged one probe per other view, whether or
            # not the merge had to look at it
            presorted = True
            stats.candidates_examined += scanned
            if others:
                stats.edge_checks += scanned * len(others)
            for node_id in merged:
                node = graph.node(node_id)
                if not pattern_node.matches_label(node.label):
                    continue
                if unary_checks and _unary_rejects(unary_checks, node.attributes, stats):
                    continue
                candidates.append(node_id)
        else:
            for node_id in base:
                stats.candidates_examined += 1
                if others:
                    stats.edge_checks += len(others)
                    if not all(node_id in view for view in others):
                        continue
                node = graph.node(node_id)
                if not pattern_node.matches_label(node.label):
                    continue
                if unary_checks and _unary_rejects(unary_checks, node.attributes, stats):
                    continue
                candidates.append(node_id)
    else:
        bucket = graph.nodes_with_label(step.label)
        scanned = len(bucket)
        for node_id in bucket:
            stats.candidates_examined += 1
            if step.out_labels:
                available = graph.out_edge_labels(node_id)
                if not all(label in available for label in step.out_labels):
                    continue
            if step.in_labels:
                available = graph.in_edge_labels(node_id)
                if not all(label in available for label in step.in_labels):
                    continue
            if unary_checks and _unary_rejects(unary_checks, graph.node(node_id).attributes, stats):
                continue
            candidates.append(node_id)

    if not presorted:
        candidates.sort(key=graph.node_rank)
    if scanned and obs.enabled():
        # plain-dict accumulation: this is the match executor's hottest loop
        # and the registry flush happens once per run (flush_step_counts)
        key = compiled_step.count_key
        stats.extra[key] = stats.extra.get(key, 0) + scanned
    return candidates, scanned


# -------------------------------------------------------------- kernel helpers


def resolve_plans(graph: Graph, rule_list, plans, plans_file=None) -> tuple["MatchPlan", ...]:
    """Resolve the compiled plans a detection kernel should execute.

    ``plans`` passed by the session (cache hit) wins.  ``plans_file`` names
    a persisted plan set (:func:`save_plans`) loaded instead of compiling —
    how service restarts and cold worker processes skip the statistics
    pass.  Otherwise plans are compiled here.  Shared by all four kernels so
    the compatibility shims behave like the session.
    """
    if plans is not None:
        return tuple(plans)
    if plans_file is not None:
        return load_plans(plans_file, rule_list)
    return compile_plans(graph, rule_list)


def first_step_candidates(
    graph: Graph,
    rule: NGD,
    plan: "MatchPlan",
    order: tuple[str, ...],
    use_literal_pruning: bool,
    stats: MatchStatistics,
    compiled: bool = True,
) -> tuple[list, float]:
    """Return the seed candidates of a rule plus the scan cost charged for them.

    Executes the plan's compiled first step; its scan size is the charge.  A
    seed must also carry the first variable's self-loops — the one pattern
    edge no later step verifies — at one ``edge_checks`` per probe.  Used by
    the batch kernels (Dect / PDect) to seed their searches.  ``order`` is
    the plan's root order; ``compiled`` is ignored (the schedule is always
    compiled) and stays for callers that still pass it.
    """
    first = order[0]
    candidates, scanned = step_candidates(
        graph, plan, plan.steps[0], {}, stats, use_literal_pruning, plan.compiled_for(plan.order).steps[0]
    )
    for edge in rule.pattern.out_edges(first):
        if edge.target == first:
            stats.edge_checks += len(candidates)
            candidates = [node for node in candidates if graph.has_edge(node, node, edge.label)]
    return candidates, float(scanned)


# ------------------------------------------------------------------ reporting


def format_plan(plan: MatchPlan) -> str:
    """Render a compiled plan for the terminal (``repro-detect explain``)."""
    lines = [f"{plan.rule.name}: order {' -> '.join(plan.order)}"]
    for depth, step in enumerate(plan.steps):
        if step.strategy == "anchored":
            via = ", ".join(
                f"{a.variable} -[{a.edge_label}]-> {step.variable}"
                if a.direction == "succ"
                else f"{step.variable} -[{a.edge_label}]-> {a.variable}"
                for a in step.anchors
            )
            strategy = f"anchored intersection ({via})"
        else:
            strategy = f"indexed scan of label {step.label!r}"
        origin = ""
        if plan.observed and (step.variable, step.strategy) in plan.observed:
            origin = " (observed prior)"
        lines.append(
            f"  [{depth}] {step.variable}: {strategy}, "
            f"~{step.estimated_candidates:.1f} candidates{origin}"
        )
        schedule_bits = []
        if step.unary_premise:
            schedule_bits.append(
                "premise "
                + "; ".join(str(plan.premise_literal(i)) for i in step.unary_premise)
                + " (during filtering)"
            )
        if step.premise_checks:
            schedule_bits.append(
                "premise "
                + "; ".join(str(plan.premise_literal(i)) for i in step.premise_checks)
                + " (on binding)"
            )
        if step.check_conclusion:
            schedule_bits.append("conclusion fully bound: prune satisfied branches")
        for bit in schedule_bits:
            lines.append(f"        literals: {bit}")
    return "\n".join(lines)
