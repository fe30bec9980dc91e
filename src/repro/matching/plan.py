"""Cost-based match planning: compile an NGD into an immutable :class:`MatchPlan`.

The ``Matchn`` framework (paper, Section 6.2) leaves two degrees of freedom
open: the order in which pattern variables are matched, and how the candidate
set of each variable is generated.  This module fixes both from the data, and
separates *planning* from *execution*:

* :class:`GraphStatistics` snapshots the store statistics the cost model
  reads: label cardinalities and per-(node-label, edge-label) edge counts,
  which the store keeps as it is written (O(label pairs), no edge pass);
* :func:`compile_plan` chooses a variable order greedily by estimated
  candidate cardinality — start from the rarest label, then repeatedly bind
  the frontier variable whose anchored candidate set is estimated smallest;
* :class:`MatchPlan` is the immutable result, ``(rule, statistics, order)``.
  ``schedule_for(order)`` resolves and compiles, in one pass, the
  :class:`Schedule` of any variable order (seeded orders included): one
  :class:`PlanStep` per variable, holding its candidate *strategy*
  (``scan`` over the label index vs ``anchored`` intersection of
  label-filtered adjacency views, smallest set first), its *literal
  schedule* (which premise literals fire at which binding depth), and the
  steps themselves as generated functions (:mod:`repro.matching.compiled`):
  one per step that reads its candidates, tests them and descends, one for
  the batch kernels' seed scan (all of step 0) and one that proves a
  pivot's prefix, kept per rule and order for the whole process, and a
  driver per entry depth, generated on its first use, that searches a
  whole subtree.  The greedy order estimates each step as it picks it, and
  the root schedule takes those estimates.  One plan
  serves batch search, pivot-seeded incremental search,
  and the parallel work-unit kernels alike; schedules are memoised.

The one executor is the search core :class:`~repro.matching.search.RuleSearch`:
the four detection kernels drive it, and ``HomomorphismMatcher`` is its view
for callers that want matches rather than violations.  Every search runs a
plan, and a plan carries its rule, so a kernel keeps plans only.

Cost accounting is uniform across strategies: every node drawn from an index
and examined is billed one ``candidates_examined``, each adjacency membership
probe one ``edge_checks``, each literal evaluation one
``literal_evaluations``, so runs are directly comparable through
``MatchStatistics.total_operations()``.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from repro import obs
from repro.core.ngd import NGD
from repro.errors import ExecutionError
from repro.graph.graph import WILDCARD, Graph
from repro.matching.candidates import REJECT_COUNT_PREFIX, REJECT_REASONS, STEP_COUNT_PREFIX, MatchStatistics
from repro.matching.compiled import compile_schedule

__all__ = [
    "GraphStatistics",
    "Anchor",
    "PlanStep",
    "Schedule",
    "MatchPlan",
    "compile_plan",
    "compile_plans",
    "format_plan",
]

# ------------------------------------------------------------------ statistics


@dataclass(frozen=True)
class GraphStatistics:
    """The store statistics the plan cost model reads, snapshotted once.

    Label cardinalities, edge-label counts and the per-(node-label,
    edge-label) pairs all come from :meth:`~repro.graph.store.GraphStore.
    label_counts`, which the indexed engines keep under their writes, so a
    snapshot reads no node and no edge.  They are pure functions of the graph
    content, independent of the storage backend, so the same graph compiles
    to the same plan on every engine.

    ``source_pairs`` / ``target_pairs`` record per-(node-label, edge-label)
    co-occurrence: how many ``edge_label`` edges *leave* (resp. *enter*)
    nodes of each label.  They sharpen the anchored-fan estimate for
    correlated hub patterns — a graph-wide average fan would dilute a hub
    label's true fan-out across every node.
    """

    node_count: int
    edge_count: int
    label_counts: Mapping[str, int]
    edge_label_counts: Mapping[str, int]
    source_pairs: Mapping[str, Mapping[str, int]]
    target_pairs: Mapping[str, Mapping[str, int]]

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphStatistics":
        """Snapshot the statistics of ``graph`` from the counts its store keeps (O(label pairs))."""
        label_counts, sources, targets = graph.store.label_counts()
        edge_label_counts: dict[str, int] = {}
        source_pairs: dict[str, dict[str, int]] = {}
        target_pairs: dict[str, dict[str, int]] = {}
        for (node_label, edge_label), count in sources.items():
            edge_label_counts[edge_label] = edge_label_counts.get(edge_label, 0) + count
            source_pairs.setdefault(node_label, {})[edge_label] = count
        for (node_label, edge_label), count in targets.items():
            target_pairs.setdefault(node_label, {})[edge_label] = count
        return cls(
            node_count=graph.node_count(),
            edge_count=graph.edge_count(),
            label_counts=dict(sorted(label_counts.items())),
            edge_label_counts=edge_label_counts,
            source_pairs=source_pairs,
            target_pairs=target_pairs,
        )

    def to_dict(self) -> dict:
        """Return the JSON form ``repro-detect explain --format json`` prints."""
        return {
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "label_counts": dict(self.label_counts),
            "edge_label_counts": dict(self.edge_label_counts),
            "source_pairs": {label: dict(pairs) for label, pairs in self.source_pairs.items()},
            "target_pairs": {label: dict(pairs) for label, pairs in self.target_pairs.items()},
        }

    def label_cardinality(self, label: str) -> int:
        """Return |{v : L(v) = label}| (the wildcard matches every node)."""
        if label == WILDCARD:
            return self.node_count
        return self.label_counts.get(label, 0)

    def anchored_fan(
        self, anchor_label: str, edge_label: str, direction: str, candidate_label: str
    ) -> float:
        """Estimate the ``edge_label`` fan from one ``anchor_label`` node.

        Uses the co-occurrence counts: only edges whose source *and* target
        labels are compatible with the pattern edge can contribute, and the
        compatible count is spread over the anchor label's population
        rather than the whole node set.  ``direction``
        follows :class:`Anchor` semantics: ``"succ"`` means the data edge
        runs anchor → candidate, ``"pred"`` candidate → anchor.
        """
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


@dataclass(frozen=True, eq=False, slots=True)
class PlanStep:
    """One variable binding of a compiled schedule: the ``Matchn`` step of Section 6.2.

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

    What runs is generated per schedule (:attr:`Schedule.expand`), from
    these fields: ``anchor_slots`` is ``anchors`` by slot — ``(anchor's
    slot, True for a successor view, edge label)``; ``out_labels`` /
    ``in_labels`` are the degree signature a scanned node must cover;
    ``count_key`` and ``reject_keys`` (by ``REJECT_REASONS``) key its counts
    in ``MatchStatistics.extra``.
    """

    variable: str
    label: str
    strategy: str
    anchors: tuple[Anchor, ...]
    self_loops: tuple[str, ...]
    out_labels: frozenset[str]
    in_labels: frozenset[str]
    unary_premise: tuple[int, ...]
    premise_checks: tuple[int, ...]
    check_conclusion: bool
    estimated_candidates: float
    anchor_slots: tuple[tuple[int, bool, str], ...]
    count_key: str
    reject_keys: tuple[str, ...]

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


class Schedule(NamedTuple):
    """One rule's compiled steps for a fixed variable order, and the code that runs them.

    ``steps[d]`` binds ``order[d]`` to slot ``d``.  The rest is generated
    (:func:`~repro.matching.compiled.compile_schedule`):
    ``seeds(store, stats)`` runs all of step 0 and returns the nodes that
    pass and the size of its scan, which the batch kernels and the matcher
    seed the search with; ``prove(store, ids, stats)`` is True when no
    literal of the steps a prefix ``ids`` binds refuses it, which the
    pivots are made with; ``expand[d](search, order)`` expands a
    :class:`~repro.matching.search.RuleSearch` frame that bound slot ``d``:
    it runs step ``d + 1`` (``expand[len(steps) - 1]`` is the leaf of a
    seed that bound every variable); ``drivers[d](search, run, nodes,
    introduced, dedupe)`` searches the whole subtree of each of ``nodes``
    bound at slot ``d``, generated on the first use of each ``d`` and
    shared by every schedule of the same code.
    """

    order: tuple[str, ...]
    steps: tuple[PlanStep, ...]
    expand: tuple[Callable, ...]
    seeds: Optional[Callable]
    prove: Callable
    drivers: Mapping[int, Callable]


class MatchPlan:
    """An immutable compiled execution plan for one NGD over one graph snapshot.

    A plan is ``(rule, statistics, order)``: ``order`` is the root variable
    order batch search follows — the greedy cost-based one unless the caller
    pins another — and ``steps`` its compiled schedule.  Seeded searches
    (update pivots) ask :meth:`order_for_seed` for a cost-based order
    beginning with the seed variables and :meth:`schedule_for` for its
    schedule.  Schedules are pure functions of ``(statistics, rule, order)``;
    the internal memo tables only cache their results, so a plan can be
    shared freely across threads and kernels.
    """

    __slots__ = ("rule", "statistics", "order", "steps", "_schedules", "_seed_orders")

    def __init__(
        self,
        rule: NGD,
        statistics: GraphStatistics,
        order: Optional[Sequence[str]] = None,
    ) -> None:
        self.rule = rule
        self.statistics = statistics
        self._schedules: dict[tuple[str, ...], Schedule] = {}
        self._seed_orders: dict[tuple[str, ...], tuple[str, ...]] = {}
        #: the root variable order
        self.order: tuple[str, ...]
        if order is None:
            self.order, estimates = _greedy_order(statistics, rule.pattern)
            # the greedy order estimated each of its steps as the schedule does
            self._schedules[self.order] = _compile_schedule(statistics, rule, self.order, estimates)
        else:
            self.order = tuple(order)
        self.steps: tuple[PlanStep, ...] = self.schedule_for(self.order).steps

    def order_for_seed(self, seed: Sequence[str]) -> tuple[str, ...]:
        """Return a cost-based order starting with ``seed`` (in the given order, at least one variable)."""
        key = tuple(seed)
        cached = self._seed_orders.get(key)
        if cached is None:
            cached, _ = _greedy_order(self.statistics, self.rule.pattern, key)
            self._seed_orders[key] = cached
        return cached

    def schedule_for(self, order: tuple[str, ...]) -> Schedule:
        """Return the compiled schedule for an arbitrary complete variable order.

        Step ``d`` is compiled against the bound prefix ``order[:d]``, so the
        same schedule serves every work unit following ``order`` regardless
        of how many leading variables its seed already bound.  The root
        order's schedule is built with the plan, each seeded (pivot) order's
        on its first use; the code they run is generated once per rule and
        order, per process.
        """
        cached = self._schedules.get(order)
        if cached is None:
            cached = _compile_schedule(self.statistics, self.rule, order)
            self._schedules[order] = cached
        return cached

    def __getstate__(self):
        # the schedules hold generated functions, which do not pickle: a plan
        # pickled to a spawn worker keeps its rule, statistics and order and
        # compiles its schedules again there; fork workers inherit this
        # object (and the process's generated code) without pickling
        return (self.rule, self.statistics, self.order)

    def __setstate__(self, state) -> None:
        MatchPlan.__init__(self, *state)

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
        steps = self.steps if order == self.order else self.schedule_for(order).steps
        cost = 1.0
        for step in steps[depth:]:
            cost *= max(step.estimated_candidates, 1.0)
            if cost > 1e18:
                return 1e18
        return cost

    def to_dict(self) -> dict:
        """Return the JSON description ``repro-detect explain --format json`` prints."""
        return {
            "rule": self.rule.name,
            "order": list(self.order),
            "estimated_cost": round(self.estimated_unit_cost(0), 3),
            "steps": [step.to_dict() for step in self.steps],
            "statistics": self.statistics.to_dict(),
        }

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


def _estimate(stats: GraphStatistics, pattern, variable: str, anchors: tuple[Anchor, ...]) -> float:
    """Estimate |C(variable)| given the bound anchors.

    An unanchored variable scans its label bucket; an anchored one reads the
    smallest label-filtered adjacency view, whose expected size is the
    anchored co-occurrence fan — the intersection can only be smaller, so the
    minimum over the anchors (capped by the label cardinality) is an
    upper-bound estimate consistent across anchors.
    """
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


def _greedy_order(stats: GraphStatistics, pattern, seed: Sequence[str] = ()) -> tuple[tuple[str, ...], tuple]:
    """Choose a variable order greedily by estimated candidate cardinality; return it and each step's estimate.

    Each round binds the unbound variable of least estimate among those
    with a pattern edge to a bound one (any unbound one where none has),
    ties broken on pattern-variable declaration index, so the order is a
    deterministic pure function of (statistics, pattern, seed) and identical
    on every storage backend.  The estimates are :func:`_estimate`'s, kept
    up to date as each variable binds: its edges anchor its unbound
    neighbours, whose least fan they may lower.  A seed variable's estimate
    is None.
    """
    variables = pattern.variables
    labels = {variable: pattern.node(variable).label for variable in variables}
    # each unbound variable's (unanchored, estimate, declaration index): the least is bound next
    scores = {
        variable: (True, float(stats.label_cardinality(labels[variable])), index)
        for index, variable in enumerate(variables)
    }
    order: list[str] = []
    estimates: list = []

    def bind(variable: str, estimate) -> None:
        del scores[variable]
        order.append(variable)
        estimates.append(estimate)
        for edges, end, direction in ((pattern.out_edges(variable), "target", "succ"), (pattern.in_edges(variable), "source", "pred")):
            for edge in edges:
                other = getattr(edge, end)
                if other in scores:
                    _, least, index = scores[other]
                    fan = stats.anchored_fan(labels[variable], edge.label, direction, labels[other])
                    scores[other] = (False, min(least, fan), index)

    for variable in seed:
        if variable in scores:
            bind(variable, None)
    while scores:
        _, estimate, index = min(scores.values())
        bind(variables[index], estimate)
    return tuple(order), tuple(estimates)


#: How many generated schedules the process keeps; past it, the least recently used is dropped.
SCHEDULES_KEPT = 1024


def _compile_schedule(stats: GraphStatistics, rule: NGD, order: tuple[str, ...], estimates: Sequence = ()) -> Schedule:
    """Return the schedule of ``order``: the rule's generated steps, each estimated against ``stats``.

    ``estimates``, where given, are each step's estimate as the greedy
    order made it (:func:`_greedy_order`); without them each step is
    estimated here.
    """
    order = tuple(order)
    pattern, premise, conclusion = rule.pattern, rule.premise, rule.conclusion
    constant_types = (premise.constant_types(), conclusion.constant_types())
    fields, expand, seeds, prove, drivers = _generated(rule.name, pattern, pattern.edges(), premise, conclusion, constant_types, order)
    estimates = estimates or [_estimate(stats, pattern, step["variable"], step["anchors"]) for step in fields]
    steps = tuple(PlanStep(**step, estimated_candidates=estimate) for step, estimate in zip(fields, estimates))
    obs.counter_inc("repro_compiled_schedules_total", {"rule": rule.name})
    return Schedule(order, steps, expand, seeds, prove, drivers)


@functools.lru_cache(maxsize=SCHEDULES_KEPT)
def _generated(name, pattern, edges, premise, conclusion, constant_types, order) -> tuple:
    """Resolve every step of ``order`` but its estimate, and generate its code.

    Returns ``(fields, expand, seeds, prove, drivers)``: each step's
    :class:`PlanStep` fields but ``estimated_candidates``, and the
    generated functions of :class:`Schedule`.  None of it reads the graph
    statistics, so one result serves every plan of every rule that
    generates the same code: a rule of the same name, an equal pattern with
    its ``edges`` in the same order (they order the anchors), equal
    literals and the same ``constant_types`` — rules parsed apart from one
    document, or built alike.
    """
    slot_of = {variable: index for index, variable in enumerate(order)}
    premise_literals, conclusion_literals = premise.literals(), conclusion.literals()
    single = conclusion_literals[0] if len(conclusion_literals) == 1 else None
    scheduled: set[int] = set()
    fields: list[dict] = []
    bound: set = set()
    for variable in order:
        anchors = _anchors_for(pattern, variable, bound)
        bound = bound | {variable}
        # each literal fires at the step that binds the last of its variables
        due = [index for index, literal in enumerate(premise_literals) if index not in scheduled and literal.pattern_variables() <= bound]
        scheduled.update(due)
        unary = tuple(index for index in due if premise_literals[index].pattern_variables() == {variable})
        check_conclusion = single is not None and single.pattern_variables() <= bound
        single = None if check_conclusion else single
        strategy = "anchored" if anchors else "scan"
        fields.append(
            dict(
                variable=variable,
                label=pattern.node(variable).label,
                strategy=strategy,
                anchors=anchors,
                self_loops=tuple(edge.label for edge in pattern.out_edges(variable) if edge.target == variable),
                out_labels=frozenset(edge.label for edge in pattern.out_edges(variable)),
                in_labels=frozenset(edge.label for edge in pattern.in_edges(variable)),
                unary_premise=unary,
                premise_checks=tuple(index for index in due if index not in unary),
                check_conclusion=check_conclusion,
                anchor_slots=tuple((slot_of[a.variable], a.direction == "succ", a.edge_label) for a in anchors),
                count_key=f"{STEP_COUNT_PREFIX}{name}\x1f{variable}\x1f{strategy}",
                reject_keys=tuple(f"{REJECT_COUNT_PREFIX}{name}\x1f{variable}\x1f{reason}" for reason in REJECT_REASONS),
            )
        )
    expand, seeds, prove, drivers = compile_schedule(name, pattern.variables, premise_literals, conclusion_literals, slot_of, fields)
    return tuple(fields), expand, seeds, prove, drivers


def compile_plan(graph: Graph, rule: NGD) -> MatchPlan:
    """Compile one NGD into a :class:`MatchPlan` against ``graph``'s statistics."""
    return MatchPlan(rule, GraphStatistics.from_graph(graph))


def compile_plans(graph: Graph, rules) -> tuple[MatchPlan, ...]:
    """Compile every rule of an iterable/RuleSet against one statistics snapshot.

    Each plan's root schedule is resolved here too (its code generated the
    first time the process meets the rule), so that work is billed inside the
    session's ``detect.compile_plans`` span rather than inside the first
    expansion of the search.
    """
    stats = GraphStatistics.from_graph(graph)
    return tuple(MatchPlan(rule, stats) for rule in rules)


# -------------------------------------------------------------- kernel helpers


def resolve_plans(graph: Graph, rule_list, plans) -> tuple["MatchPlan", ...]:
    """Resolve the compiled plans a detection kernel should execute, one per rule of ``rule_list``.

    ``plans`` passed by the caller (the session's cache) win; otherwise
    plans are compiled here.  Shared by all four kernels, which from here on
    keep the plans only.  A plan's literal schedule indexes its own rule's
    literals, so each passed plan must have been compiled for its very rule
    object: an equal rule is not enough, and any other pairing raises
    :class:`~repro.errors.ExecutionError`.
    """
    if plans is None:
        return compile_plans(graph, rule_list)
    plans = tuple(plans)
    if len(plans) != len(rule_list):
        raise ExecutionError(f"{len(plans)} plans were passed for {len(rule_list)} rules")
    for plan, rule in zip(plans, rule_list):
        if plan.rule is not rule:
            raise ExecutionError(f"the plan of rule {plan.rule.name!r} cannot run rule {rule.name!r}")
    return plans


def first_step_candidates(
    graph: Graph,
    rule: NGD,
    plan: "MatchPlan",
    order: tuple[str, ...],
    use_literal_pruning: bool,
    stats: MatchStatistics,
    compiled: bool = True,
) -> tuple[list, float]:
    """The first step's candidates and scan size, as the batch kernels seed a rule's search with them.

    ``rule`` must be the plan's rule and ``order`` its root order.
    ``use_literal_pruning`` and ``compiled`` are ignored: the premise always
    prunes and the schedule is always compiled.  The signature stays because
    the end-to-end benchmark's seed-scan probe (``benchmarks/e2e/layers.py``)
    passes all of them.
    """
    candidates, scanned = plan.schedule_for(order).seeds(graph.store, stats)
    return candidates, float(scanned)


# ------------------------------------------------------------------ reporting


def format_plan(plan: MatchPlan) -> str:
    """Render a compiled plan for the terminal (``repro-detect explain``)."""
    lines = [f"{plan.rule.name}: order {' -> '.join(plan.order)}"]
    premise = plan.rule.premise.literals()
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
        lines.append(f"  [{depth}] {step.variable}: {strategy}, ~{step.estimated_candidates:.1f} candidates")
        schedule_bits = []
        if step.unary_premise:
            schedule_bits.append(
                "premise "
                + "; ".join(str(premise[i]) for i in step.unary_premise)
                + " (during filtering)"
            )
        if step.premise_checks:
            schedule_bits.append(
                "premise "
                + "; ".join(str(premise[i]) for i in step.premise_checks)
                + " (on binding)"
            )
        if step.check_conclusion:
            schedule_bits.append("conclusion fully bound: prune satisfied branches")
        for bit in schedule_bits:
            lines.append(f"        literals: {bit}")
    return "\n".join(lines)
