"""The search core: one rule's iterative, slot-based backtracking search.

Dect and IncDect are the same search (Section 6.2): pick the next variable
of the matching order, generate its candidates from the bound prefix, verify
them, fire the literals that became fully bound, descend.
:class:`RuleSearch` is that search over a compiled
:class:`~repro.matching.plan.MatchPlan`, in one of two generated forms of
the schedule of an order (:mod:`repro.matching.compiled`).  The partial
match lives in two mutable lists — ``ids[d]`` the data node bound at
position ``d`` of the order, ``slots[d]`` its attribute mapping, which the
generated code reads.  Nothing else is allocated per partial match but the
list of candidates a step keeps.

* **Drivers** (:meth:`RuleSearch.drive`,
  :attr:`~repro.matching.plan.Schedule.drivers`): a generator that
  searches the whole subtree of each node it is handed as nested loops,
  one level per step, each level's kept candidates descended into last
  first.  The serial kernels run them: Dect hands a rule's seeds to the
  driver of depth 0, and IncDect, a degraded process run and the process
  workers hand each pivot or unit to the driver of the depth its prefix
  reaches (:meth:`SerialRun.drain <repro.detect.serial.SerialRun.drain>`).
* **Steps** (:meth:`RuleSearch.step`,
  :attr:`~repro.matching.plan.Schedule.expand`): the pending work in an
  explicit LIFO stack of *frames* ``(depth, node id, attributes,
  order)``: "bind this node at this depth, then run step ``depth + 1`` of
  the schedule of ``order``", one step per call.  The cluster simulator
  runs one work unit at a time this way, through
  :func:`~repro.detect.parallel.workunits.expand_work_unit`, and
  :class:`~repro.matching.matchn.HomomorphismMatcher`, for the callers that
  want matches rather than violations (discovery, satisfiability,
  aggregates), drains the violations of ``Q[x̄](X → false)``.

Both search a subtree in the same order and bill it alike: the tests hold
the drivers to a stack of frames stepped one at a time.

**The slot-prefix invariant.**  When a frame of depth ``d`` is popped, or a
driver's level ``d`` binds its next candidate, ``ids[:d]`` / ``slots[:d]``
still hold its parent's path: a binding writes position ``d`` only, its
descendants positions ``> d`` only, and the search is depth-first, so
every descendant of a candidate is done before its next sibling comes up.
A seed binds at least one variable, so every frame writes its position.
One rule's searches need not share one order: IncDect seeds each pivot on
an order that starts with the pivot's variables
(:meth:`~repro.matching.plan.MatchPlan.order_for_seed`), and a frame
carries its order, which its step follows as compiled.  Every seed is
proven where it is made — by a step, by step 0's ``seeds``, or by
:func:`~repro.matching.incmatch.pivot_seeds` — so every search ends in one
leaf, which evaluates nothing checked on the way down.

**Reads.**  A search binds the store of the graph it is seeded on once
(:meth:`RuleSearch.bind`, kept in ``reader``), and the generated code reads
the adjacency buckets and the nodes through that binding, not through a
store method per step.  A binding is good while ``store._stamp`` is the
stamp it was taken with; each step tests that once, after its reads and
before its first effect, and binds again and reads again where the
store replaced its stamp, as a clone or a write to a past version does.

``RuleSearch(plan, stats)`` is the whole API: the plan carries its rule.  A
pattern without variables is never searched: :func:`empty_match` decides
its one match for every kernel and the matcher.
"""

from __future__ import annotations

from collections.abc import Generator, Hashable, Sequence
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
        "plan", "stats", "store", "reader", "ids", "slots", "stack",
        "filtering", "verification", "_order", "_schedule",
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
        #: cost-model sizes of the last step: the index scan performed, and one
        #: unit per candidate verified
        self.filtering = self.verification = 0
        #: the order the last step or driver followed, and its schedule
        self._order: Optional[tuple[str, ...]] = None
        self._schedule = None

    def start(self, graph: Graph, order: tuple[str, ...], ids: Sequence[Hashable]) -> None:
        """Push the seed binding ``order[:len(ids)]`` to ``ids`` (nodes of ``graph``, at least one).

        Precondition: the prefix is proven — its pattern edges are edges of
        ``graph`` and no literal of its steps refuses it.  It goes straight
        into the slot lists, and the last seed position becomes the frame
        the next :meth:`step` expands.  Frames carry no graph, so one seed's
        subtree must be drained before a seed over another graph starts.
        """
        last = len(ids) - 1
        self._bind_prefix(graph, ids[:last])
        self.stack.append((last, ids[last], graph.store.get_node(ids[last]).attributes, order))

    def seed(self, graph: Graph, order: tuple[str, ...], nodes: Sequence[Node]) -> None:
        """Push one depth-0 frame per node of ``graph``.

        Precondition: ``nodes`` passed all of step 0 of ``order``, as
        :attr:`~repro.matching.plan.Schedule.seeds` returns them.  The last
        node goes on top, so its subtree is searched first; a single-variable
        order has no subtrees, and its nodes go on in reverse, so that its
        leaves stream in rank order.
        """
        self._bind_prefix(graph, ())
        frames = [(0, node.id, node.attributes, order) for node in nodes]
        if len(order) == 1:
            frames.reverse()
        self.stack.extend(frames)

    def drive(
        self, run, graph: Graph, order: tuple[str, ...], prefix: Sequence[Hashable], nodes: Sequence[Node], introduced: bool, dedupe: tuple
    ) -> Generator:
        """Return the driver that searches the subtree of each of ``nodes``, bound after ``prefix``.

        ``prefix`` binds ``order[:len(prefix)]`` (node ids of ``graph``) and
        ``nodes`` are candidates of the next position, each proven with it,
        as :meth:`start` and :meth:`seed` take them: the driver
        (:attr:`~repro.matching.plan.Schedule.drivers`) searches them in the
        order this search's frames would pop, charges ``run.cost``, tests
        ``run``'s budget and yields what ``run.emit(found, introduced,
        dedupe)`` yields of each leaf step's violations; it returns True
        where a budget stopped it.  No frame is pushed.
        """
        self._bind_prefix(graph, prefix)
        if order is not self._order:
            self._order, self._schedule = order, self.plan.schedule_for(order)
        return self._schedule.drivers[len(prefix)](self, run, nodes, introduced, dedupe)

    def _bind_prefix(self, graph: Graph, prefix: Sequence[Hashable]) -> None:
        """Read ``graph``'s store from here on, and bind slot ``d`` of the slot lists to ``prefix[d]``."""
        store = graph.store
        if store is not self.store:
            self.bind(store)
        # node ids come out of the store's own indexes, so reads skip the facade's existence checks
        get_node = store.get_node
        for slot, node_id in enumerate(prefix):
            self.ids[slot] = node_id
            self.slots[slot] = get_node(node_id).attributes

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
        """
        depth, node_id, attrs, order = self.stack.pop()
        self.ids[depth] = node_id
        self.slots[depth] = attrs
        if order is not self._order:
            self._order, self._schedule = order, self.plan.schedule_for(order)
        return self._schedule.expand[depth](self, order)
