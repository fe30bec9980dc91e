"""The search core: one rule's iterative, slot-based backtracking search.

Dect and IncDect are the same search (Section 6.2): pick the next variable
of the matching order, generate its candidates from the bound prefix, verify
them, fire the literals that became fully bound, descend.
:class:`RuleSearch` is that loop over a compiled
:class:`~repro.matching.plan.MatchPlan`: each step runs the generated
function of one step of the schedule of its order
(:attr:`~repro.matching.plan.Schedule.expand`).  The partial match lives
in two mutable lists — ``ids[d]`` the data node bound at position ``d`` of
the order, ``slots[d]`` its attribute mapping, which the generated code
reads — and the pending work in an explicit LIFO stack of *frames*
``(depth, node id, attributes, order)``: "bind this node at this depth, then
run step ``depth + 1`` of the schedule of ``order``".  Nothing else is
allocated per partial match.

**The slot-prefix invariant.**  When a frame of depth ``d`` is popped,
``ids[:d]`` / ``slots[:d]`` still hold its parent's path: a frame writes
position ``d`` only, its descendants positions ``> d`` only, and the stack is
LIFO, so everything pushed after the parent was expanded is gone before the
parent's next child comes up.  A seed binds at least one variable, so every
frame writes its position.  A frame carries its order because one rule's
frames need not share one: IncDect seeds each pivot on an order that starts
with the pivot's variables (:meth:`~repro.matching.plan.MatchPlan.order_for_seed`),
and a step follows its frame's order as compiled.  Every seed is proven
where it is made — by a step, by step 0's ``seeds``, or by
:func:`~repro.matching.incmatch.pivot_seeds` — so every search ends in one
leaf, which evaluates nothing checked on the way down.

**Reads.**  A search binds the store of the graph it is seeded on once
(:meth:`RuleSearch.bind`, kept in ``reader``), and the generated steps read
the adjacency buckets and the nodes through that binding, not through a
store method per frame.  A binding is good while ``store._stamp`` is the
stamp it was taken with; each step tests that once, after its reads and
before its first effect, and binds again and runs itself again where the
store replaced its stamp, as a clone or a write to a past version does
(:mod:`repro.matching.compiled`).

``RuleSearch(plan, stats)`` is the whole API: the plan carries its rule.
The serial kernels and the process backend's workers drain the stack in
:meth:`SerialRun.expand <repro.detect.serial.SerialRun.expand>`, whose loop
does what :meth:`RuleSearch.step` does (pop, bind, dispatch) inline; the
cluster simulator runs :meth:`RuleSearch.step` one work unit at a time through
:func:`~repro.detect.parallel.workunits.expand_work_unit`; and
:class:`~repro.matching.matchn.HomomorphismMatcher`, for the callers that
want matches rather than violations (discovery, satisfiability,
aggregates), drains the violations of ``Q[x̄](X → false)``.  A pattern
without variables is never searched: :func:`empty_match` decides its one
match for every kernel and the matcher.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import Optional

from repro.core.violations import Violation
from repro.graph.graph import Graph, Node
from repro.matching.candidates import MatchStatistics
from repro.matching.plan import MatchPlan

__all__ = ["RuleSearch", "empty_match"]


def empty_match(plan: MatchPlan, stats: MatchStatistics) -> list[Violation]:
    """The violations of the one match of a pattern without variables, the empty binding.

    Nothing is seeded or searched: the rule is violated where X holds and Y
    does not, and a kept match is billed one ``matches_emitted``, as the
    leaf bills one.  A pattern with variables has no empty match.
    """
    rule = plan.rule
    if plan.order or not rule.premise.satisfied_by({}) or rule.conclusion.satisfied_by({}):
        return []
    stats.matches_emitted += 1
    return [Violation(rule.name, (), ())]


class RuleSearch:
    """Backtracking search for the violations of the rule of ``plan``, one step at a time.

    Every complete binding reaches the one leaf.  Every literal of X, and a
    one-literal Y, was checked on the way down, so the leaf evaluates only a
    Y of more literals, and keeps the binding where Y does not hold.  A kept
    binding comes back as a :class:`Violation` record of the rule (its
    ``mapping()`` is the match) and is billed one ``matches_emitted``.
    """

    __slots__ = (
        "plan", "stats", "store", "reader", "ids", "slots", "stack", "order",
        "filtering", "verification", "steps",
    )  # fmt: skip

    def __init__(self, plan: MatchPlan, stats: MatchStatistics) -> None:
        self.plan = plan
        self.stats = stats
        variables = len(plan.rule.pattern.variables)
        self.store = None  # of the graph the stacked frames bind
        #: what the steps read ``store`` through (:meth:`bind`)
        self.reader: Optional[tuple] = None
        self.ids: list = [None] * variables
        self.slots: list = [None] * variables
        #: pending frames ``(depth, node id, attributes, order)``, expanded last in, first out
        self.stack: list[tuple] = []
        #: the order the last step followed (its frame's), and its schedule's
        #: steps: the dispatch every loop over this search keeps
        self.order: Optional[tuple[str, ...]] = None
        self.steps: Optional[tuple] = None
        #: cost-model sizes of the last step: the index scan performed, and one
        #: unit per candidate verified
        self.filtering = self.verification = 0

    def start(self, graph: Graph, order: tuple[str, ...], ids: Sequence[Hashable]) -> None:
        """Push the seed binding ``order[:len(ids)]`` to ``ids`` (nodes of ``graph``, at least one).

        Precondition: the prefix is proven — its pattern edges are edges of
        ``graph`` and no literal of its steps refuses it.  It goes straight
        into the slot lists, and the last seed position becomes the frame
        the next :meth:`step` expands.  Frames carry no graph, so one seed's
        subtree must be drained before a seed over another graph starts.
        """
        if graph.store is not self.store:
            self.bind(graph.store)
        # node ids come out of the store's own indexes, so reads skip the facade's existence checks
        get_node = graph.store.get_node
        last = len(ids) - 1
        for slot in range(last):
            self.ids[slot] = ids[slot]
            self.slots[slot] = get_node(ids[slot]).attributes
        self.stack.append((last, ids[last], get_node(ids[last]).attributes, order))

    def seed(self, graph: Graph, order: tuple[str, ...], nodes: Sequence[Node]) -> None:
        """Push one depth-0 frame per node of ``graph``.

        Precondition: ``nodes`` passed all of step 0 of ``order``, as
        :attr:`~repro.matching.plan.Schedule.seeds` returns them.  The last
        node goes on top, so its subtree is searched first; a single-variable
        order has no subtrees, and its nodes go on in reverse, so that its
        leaves stream in rank order.
        """
        if graph.store is not self.store:
            self.bind(graph.store)
        frames = [(0, node.id, node.attributes, order) for node in nodes]
        if len(order) == 1:
            frames.reverse()
        self.stack.extend(frames)

    def bind(self, store) -> None:
        """Read ``store`` from here on, through the reader it hands out now.

        A step tests the binding after its reads (``store._stamp is
        reader[0]``) and binds again where the store replaced its stamp.
        """
        self.store = store
        self.reader = store.reader()

    def step(self) -> list[Violation]:
        """Expand the top frame; return the bindings it completed that the leaf kept.

        The step's generated function reads the candidates from the store's
        rank-ordered views and pushes the children in rank order, so they pop
        in descending rank and the leaves of a last step come out ascending.
        :meth:`SerialRun.expand <repro.detect.serial.SerialRun.expand>` runs
        these lines inline: a change here goes there too.
        """
        depth, node_id, attrs, order = self.stack.pop()
        self.ids[depth] = node_id
        self.slots[depth] = attrs
        if order is not self.order:
            self.order = order
            self.steps = self.plan.schedule_for(order).expand
        return self.steps[depth](self, order)
