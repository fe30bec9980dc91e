"""The serial drain: how Dect and IncDect search one seed's subtree after another.

Both kernels seed a rule's search (:class:`~repro.matching.search.
RuleSearch`, built from the rule's plan alone), search it depth-first,
deduplicate what it finds, charge the cost model, test the budget and
attribute the work to the rule.  The search itself is the rule's
generated driver (:meth:`~repro.matching.search.RuleSearch.drive`), whose
nested loops run the steps, charge each to the run's ``cost``, test the
run's budget after each and emit the violations of each leaf step through
:meth:`KernelRun.emit`; there is no frame loop here.  Dect hands a rule's
seeds to its driver of depth 0, and :meth:`SerialRun.drain` hands one
proven prefix at a time (IncDect's pivots) to the driver of the depth it
reaches.  The kernels differ only in where the seeds come from and which graph a
seed is searched in, so the rest lives here, once.  A degraded process run
(:class:`~repro.detect.parallel.executor.ProcessRun`, a :class:`SerialRun`)
finishes the units its workers could not on this drain too, and each
worker drains its share on one.  The parallel backends have one loop
each, of the same ``drain(seeds, graph_for, dedupe)`` shape:
:class:`~repro.detect.parallel.cluster.SimulatedRun` steps work units one
at a time, and ``ProcessRun`` maps seeds over workers.  All three share
:class:`KernelRun`: what a run has emitted, its budget tests, its emit
step and its rule attribution.
"""

from __future__ import annotations

import time
from collections.abc import Generator, Iterable, Iterator
from typing import Optional

from repro import obs
from repro.detect.instrument import RuleAttribution
from repro.detect.observers import DetectionBudget, ViolationEvent
from repro.matching.candidates import MatchStatistics

__all__ = ["KernelRun", "SerialRun"]


class KernelRun:
    """What one kernel run has spent and emitted, and the emit step every backend's loop shares.

    An ``incremental`` run (IncDect, PIncDect) streams
    :class:`~repro.detect.observers.ViolationEvent` objects, the others bare
    violations.  Subclasses supply ``cost``.
    """

    #: Attribute each violation to its rule as it is emitted.  The serial
    #: kernels count a rule's violations with the rest of its row instead
    #: (:meth:`SerialRun.rule`).
    counts_each_violation = True

    def __init__(self, algorithm: str, incremental: bool, budget: Optional[DetectionBudget]) -> None:
        self.algorithm = algorithm
        self.incremental = incremental
        self.budget = budget
        self.stats = MatchStatistics()
        self.emitted = 0
        self.stop_reason: Optional[str] = None
        self.attribution = RuleAttribution(algorithm)
        # parent of the per-rule spans, captured where the generator starts (the
        # contextvar is only reliable in the consuming thread's context)
        self._trace_parent = obs.current_span()

    def cost_exhausted(self) -> bool:
        """Record and return whether the cost budget is spent or the deadline has passed."""
        budget = self.budget
        if budget is None:
            return False
        if budget.cost_exhausted(self.cost):
            self.stop_reason = "max_cost"
        elif budget.past_deadline():
            self.stop_reason = "deadline"
        else:
            return False
        return True

    def emit(self, violations: Iterable, introduced: bool, dedupe: tuple) -> Generator:
        """Yield the violations new against ``dedupe[0]`` (introduced) or ``dedupe[1]`` (removed).

        Each is counted, attributed and yielded.  The generator returns True
        (``stop_reason`` set) the moment the violation budget is spent, else
        False.
        """
        seen = dedupe[not introduced]
        for violation in violations:
            if violation in seen:
                continue
            seen.add(violation)
            self.emitted += 1
            if self.counts_each_violation:
                self.attribution.violation(violation.rule)
            yield ViolationEvent(violation, introduced) if self.incremental else violation
            if self.budget is not None and self.budget.violations_exhausted(self.emitted):
                self.stop_reason = "max_violations"
                return True
        return False

    def flush(self) -> None:
        """Emit the rules' rows: once per run, also when its consumer stops early."""
        self.attribution.emit(self._trace_parent)

    def outcome(self) -> dict:
        """The result fields every run decides: its statistics, cost and stop."""
        return dict(
            stats=self.stats,
            cost=self.cost,
            stopped_early=self.stop_reason in ("max_violations", "max_cost", "deadline"),
            stop_reason=self.stop_reason,
        )


class SerialRun(KernelRun):
    """One serial kernel run: its cost so far, its rules' rows and the loop that advances it."""

    counts_each_violation = False
    cost = 0.0

    def rule(self, rule_name: str) -> "SerialRun":
        """Attribute the counters, cost, violations and time of the enclosed ``with`` block to one rule."""
        before = self.attribution.before(self.stats)
        self._open_rule = (rule_name, before, self.cost, self.emitted, time.time(), time.monotonic())
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        rule_name, before, cost, emitted, started, clock = self._open_rule
        self.attribution.record(
            rule_name, before, self.stats, self.emitted - emitted, self.cost - cost, started, time.monotonic() - clock
        )

    def drain(self, seeds: Iterable[tuple], graph_for, dedupe: tuple) -> Iterator:
        """Search every seed's subtree depth-first, yielding each new violation.

        ``seeds`` are ``(search, order, ids, introduced)`` in the order they
        are to be searched: the rule's search core, the bound prefix of
        ``order``, and the ΔVio direction.  A seed is searched in
        ``graph_for(introduced)`` and its findings are new against
        ``dedupe[0]`` (introduced) or ``dedupe[1]`` (removed).  A seed is
        started once the last one's subtree is drained, each by the driver
        of the depth its prefix reaches (:meth:`~repro.matching.search.RuleSearch.drive`).
        """
        graphs = (graph_for(False), graph_for(True))
        for search, order, ids, introduced in seeds:
            graph = graphs[introduced]
            node = graph.store.get_node(ids[-1])
            if (yield from search.drive(self, graph, order, ids[:-1], (node,), introduced, dedupe)):
                return
