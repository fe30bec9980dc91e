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
time through :func:`~repro.detect.parallel.workunits.expand_work_unit`; and
:class:`~repro.matching.matchn.HomomorphismMatcher` drains it with a leaf
that keeps every complete binding, for the callers that want matches rather
than violations (discovery, satisfiability, aggregates).
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
from repro.matching.plan import MatchPlan, PlanStep, step_candidates

__all__ = ["RuleSearch"]


class RuleSearch:
    """Backtracking search over the rule of ``plan``, one step at a time.

    Every complete binding reaches the leaf.  The leaf checks the rule's
    X → Y over ``slots`` and keeps the binding when X holds and Y does not;
    with ``all_matches`` it keeps every complete binding, unchecked.  A kept
    binding comes back as a :class:`Violation` record of the rule (its
    ``mapping()`` is the match) and is billed one ``matches_emitted``.  The
    scheduled literals run as the plan's closure-compiled schedule of the
    order being followed.
    """

    __slots__ = (
        "rule", "plan", "stats", "adaptive", "graph", "ids", "slots", "stack", "order",
        "filtering", "verification",
        "_pruning", "_check", "_variables", "_counting", "_schedule", "_program", "_vector",
    )  # fmt: skip

    def __init__(
        self,
        plan: MatchPlan,
        use_literal_pruning: bool,
        stats: MatchStatistics,
        adaptive: Optional[AdaptiveController] = None,
        all_matches: bool = False,
    ) -> None:
        self.rule: NGD = plan.rule
        self.plan = plan
        self.stats = stats
        self.adaptive = adaptive
        self._pruning = use_literal_pruning
        self._check = not all_matches
        self._variables = self.rule.pattern.variables
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
        """Expand the top frame; return the bindings it completed that the leaf kept.

        Children are pushed in rank order, so they pop in descending rank and
        the leaves of a last step come out ascending.  The plan's
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
            # two-node pattern): only the leaf remains
            self.filtering, self.verification = 1, 0
            leaf = self._leaf()
            return [leaf] if leaf is not None else []

        step = self._schedule[depth]
        entry = self._program.steps[depth]
        pruning = self._pruning
        get_node = store.get_node
        if len(entry.anchors) == 1:
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
        scheduled = pruning and (bool(entry.premise_checks) or entry.conclusion_check is not None)
        found: list[Violation] = []
        verification = expanded = 0
        for candidate in candidates:
            if step.self_loops and not self._loops_hold(step, candidate):
                continue
            verification += 1
            attrs = slots[depth] = get_node(candidate).attributes
            if scheduled and entry.pruned(slots, stats):
                continue
            expanded += 1
            if not last:
                self.stack.append((depth, candidate, attrs, order))
                continue
            ids[depth] = candidate
            leaf = self._leaf()
            if leaf is not None:
                found.append(leaf)
        stats.expansions += expanded
        self.filtering, self.verification = scanned, verification
        return found

    def _follow(self, order: tuple[str, ...]) -> None:
        """Switch to the (memoised) schedule of ``order``."""
        self.order = order
        self._schedule = self.plan.schedule_for(order)
        self._program = self.plan.compiled_for(order)
        self._vector = tuple(order.index(variable) for variable in self._variables)

    def _loops_hold(self, step: PlanStep, candidate: Hashable) -> bool:
        for label in step.self_loops:
            self.stats.edge_checks += 1
            if not self.graph.store.has_edge_key((candidate, candidate, label)):
                return False
        return True

    def _leaf(self) -> Optional[Violation]:
        """Return the complete binding in ``ids`` / ``slots``, if the leaf keeps it."""
        if self._check and not self._program.violates(self.slots, self.stats):
            return None
        self.stats.matches_emitted += 1
        return Violation(self.rule.name, self._variables, tuple([self.ids[slot] for slot in self._vector]))
