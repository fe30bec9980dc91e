"""The search core: one rule's iterative, slot-based backtracking search.

Dect and IncDect are the same search (Section 6.2): pick the next variable
of the matching order, generate its candidates from the bound prefix, verify
them, fire the literals that became fully bound, descend.
:class:`RuleSearch` is that loop written once over a compiled
:class:`~repro.matching.plan.MatchPlan`.  The partial match lives in two
mutable lists — ``ids[d]`` the data node bound at position ``d`` of the
order, ``slots[d]`` its attribute mapping, which the closure-compiled
literals read — and the pending work in an explicit LIFO stack of *frames*
``(depth, node id, attributes, order)``: "bind this node at this depth, then
run step ``depth + 1`` of the schedule of ``order``".  Nothing else is
allocated per partial match.

**The slot-prefix invariant.**  When a frame of depth ``d`` is popped,
``ids[:d]`` / ``slots[:d]`` still hold its parent's path: a frame writes
position ``d`` only, its descendants positions ``> d`` only, and the stack is
LIFO, so everything pushed after the parent was expanded is gone before the
parent's next child comes up.  An adaptive replan re-orders ``order[depth:]``
only, so it keeps the invariant; the children carry the revised order.

The serial kernels drain the stack (:class:`~repro.detect.serial.SerialRun`);
the parallel ones run the same :meth:`RuleSearch.step` one work unit at a
time through :func:`~repro.detect.parallel.workunits.expand_work_unit`.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import Optional

from repro import obs
from repro.core.ngd import NGD
from repro.core.violations import Violation
from repro.graph.graph import WILDCARD, Graph
from repro.matching.adaptive import AdaptiveController
from repro.matching.candidates import MatchStatistics
from repro.matching.matchn import assignment_for_match, match_violates_dependency
from repro.matching.plan import MatchPlan, PlanStep, step_candidates

__all__ = ["RuleSearch"]


class RuleSearch:
    """Backtracking search for the violations of one rule, one step at a time.

    ``compiled`` runs the scheduled literals as closures over ``slots`` (the
    default pipeline); without it — or when ``rule`` is not the plan's own
    rule object — they are interpreted over a variable-keyed mapping rebuilt
    from ``ids``, with identical verdicts and counter billing.
    """

    __slots__ = (
        "rule", "plan", "stats", "adaptive", "graph", "ids", "slots", "stack", "order",
        "filtering", "verification",
        "_pruning", "_compiled", "_variables", "_counting", "_schedule", "_program", "_vector",
    )  # fmt: skip

    def __init__(
        self,
        rule: NGD,
        plan: MatchPlan,
        use_literal_pruning: bool,
        stats: MatchStatistics,
        adaptive: Optional[AdaptiveController] = None,
        compiled: bool = True,
    ) -> None:
        self.rule = rule
        self.plan = plan
        self.stats = stats
        self.adaptive = adaptive
        self._pruning = use_literal_pruning
        self._compiled = compiled and rule is plan.rule
        self._variables = rule.pattern.variables
        self._counting = obs.enabled()
        self.graph: Optional[Graph] = None
        self.ids: list = [None] * len(self._variables)
        self.slots: list = [None] * len(self._variables)
        #: pending frames ``(depth, node id, attributes, order)``, expanded last in, first out
        self.stack: list[tuple] = []
        #: the order the last step followed (its frame's, or the adaptive revision of it)
        self.order: Optional[tuple[str, ...]] = None
        #: cost-model sizes of the last step: the index scan performed, and one
        #: unit per candidate verified
        self.filtering = self.verification = 0

    def start(self, graph: Graph, order: tuple[str, ...], ids: Sequence[Hashable]) -> None:
        """Push the seed binding ``order[:len(ids)]`` to ``ids`` (nodes of ``graph``).

        The bound prefix goes straight into the slot lists and the last seed
        position becomes the frame the next :meth:`step` expands; an empty
        seed becomes a frame that binds nothing and runs the first step.
        Frames carry no graph, so one seed's subtree must be drained before a
        seed over another graph starts.
        """
        self.graph = graph
        if not ids:
            self.stack.append((-1, None, None, order))
            return
        # node ids come out of the store's own indexes, so reads skip the facade's existence checks
        get_node = graph.store.get_node
        last = len(ids) - 1
        for slot in range(last):
            self.ids[slot] = ids[slot]
            self.slots[slot] = get_node(ids[slot]).attributes
        self.stack.append((last, ids[last], get_node(ids[last]).attributes, order))

    def step(self) -> list[Violation]:
        """Expand the top frame; return the violations it completed.

        Children are pushed in rank order, so they pop in descending rank and
        the violations of a last step come out ascending.  The plan's
        anchored intersection enforces every pattern edge between the step's
        variable and the bound prefix during candidate generation; what is
        left per candidate is the self-loops and the scheduled literals.
        """
        depth, node_id, attrs, order = self.stack.pop()
        ids, slots, stats, store = self.ids, self.slots, self.stats, self.graph.store
        if depth >= 0:
            ids[depth] = node_id
            slots[depth] = attrs
        depth += 1
        adaptive = self.adaptive
        if adaptive is not None:
            # drift re-orders the unbound suffix before the step runs; the
            # children inherit it, so one decision steers the whole subtree
            order = adaptive.order_for(order, depth)
        if order is not self.order:
            self._follow(order)
        if depth == len(ids):
            # a seed can already bind every variable (a pivot covering a
            # two-node pattern): only the dependency check remains
            self.filtering, self.verification = 1, 0
            violation = self._violation()
            return [violation] if violation is not None else []

        step = self._schedule[depth]
        entry = self._program.steps[depth] if self._program is not None else None
        pruning = self._pruning
        get_node = store.get_node
        partial = None
        if entry is not None and len(entry.anchors) == 1:
            # the common step: one bound neighbour, read its label-filtered view directly
            slot, forward, edge_label = entry.anchors[0]
            view = (store.successors_by_label if forward else store.predecessors_by_label)(ids[slot], edge_label)
            scanned = len(view)
            stats.candidates_examined += scanned
            label = None if step.label == WILDCARD else step.label
            unary = entry.unary_checks if pruning else ()
            candidates = []
            for candidate in view:
                node = get_node(candidate)
                if label is not None and node.label != label:
                    continue
                for check in unary:
                    stats.literal_evaluations += 1
                    if not check(node.attributes):
                        break
                else:
                    candidates.append(candidate)
            if len(candidates) > 1:
                candidates.sort(key=store.node_rank)
            if scanned and self._counting:
                stats.extra[entry.count_key] = stats.extra.get(entry.count_key, 0) + scanned
        else:
            partial = dict(zip(order, ids[:depth]))
            candidates, scanned = step_candidates(self.graph, self.plan, step, partial, stats, pruning, entry)
        if adaptive is not None:
            adaptive.observe(step, len(candidates))

        last = depth + 1 == len(ids)
        scheduled = pruning and (
            entry is None or bool(entry.premise_checks) or entry.conclusion_check is not None
        )
        found: list[Violation] = []
        verification = expanded = 0
        for candidate in candidates:
            if step.self_loops and not self._loops_hold(step, candidate):
                continue
            verification += 1
            if entry is not None:
                attrs = slots[depth] = get_node(candidate).attributes
                if scheduled and entry.pruned(slots, stats):
                    continue
            else:
                attrs = None
                partial[step.variable] = candidate
                if scheduled and self._pruned_interpreted(step, partial):
                    continue
            expanded += 1
            if not last:
                self.stack.append((depth, candidate, attrs, order))
                continue
            ids[depth] = candidate
            violation = self._violation()
            if violation is not None:
                found.append(violation)
        stats.expansions += expanded
        self.filtering, self.verification = scanned, verification
        return found

    def _follow(self, order: tuple[str, ...]) -> None:
        """Switch to the (memoised) schedule of ``order``."""
        self.order = order
        self._schedule = self.plan.schedule_for(order)
        self._program = self.plan.compiled_for(order) if self._compiled else None
        self._vector = tuple(order.index(variable) for variable in self._variables)

    def _loops_hold(self, step: PlanStep, candidate: Hashable) -> bool:
        for label in step.self_loops:
            self.stats.edge_checks += 1
            if not self.graph.store.has_edge_key((candidate, candidate, label)):
                return False
        return True

    def _pruned_interpreted(self, step: PlanStep, partial: dict) -> bool:
        """The step's literal schedule, interpreted; billing mirrors ``CompiledStep.pruned``."""
        plan, graph, stats = self.plan, self.graph, self.stats
        for literal_index in step.premise_checks:
            literal = plan.premise_literal(literal_index)
            stats.literal_evaluations += 1
            if not literal.holds_for(assignment_for_match(graph, partial, literal.variables())):
                return True
        conclusion_literals = self.rule.conclusion.literals()
        if step.check_conclusion and len(conclusion_literals) == 1:
            literal = conclusion_literals[0]
            stats.literal_evaluations += 1
            assignment = assignment_for_match(graph, partial, literal.variables())
            # assignment keys ⊆ literal.variables() by construction
            if len(assignment) == len(literal.variables()) and literal.holds_for(assignment):
                return True
        return False

    def _violation(self) -> Optional[Violation]:
        """Return the complete binding in ``ids`` / ``slots`` as a violation, if X holds and Y does not."""
        if self._program is not None:
            violated = self._program.violates(self.slots, self.stats)
        else:
            rule, match = self.rule, dict(zip(self.order, self.ids))
            violated = match_violates_dependency(self.graph, match, rule.premise, rule.conclusion, self.stats)
        if not violated:
            return None
        self.stats.matches_emitted += 1
        return Violation(self.rule.name, self._variables, tuple([self.ids[slot] for slot in self._vector]))
