"""The serial drain loop: how Dect and IncDect advance one search, step by step.

Both kernels seed a rule's search (:func:`~repro.detect.parallel.workunits.
rule_search`), expand it depth-first, deduplicate what it finds, notify the
sink, charge the cost model, test the budget and attribute the work to the
rule.  They differ only in where the seeds come from and which violation set
a seed's findings are new against, so the rest lives here, once.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from typing import Optional

from repro import obs
from repro.detect.instrument import RuleAttribution
from repro.detect.observers import DetectionBudget, ViolationEvent, ViolationSink, notify_violation
from repro.matching.candidates import MatchStatistics

__all__ = ["SerialRun"]


class SerialRun:
    """What one serial kernel run has spent and emitted, and the loop that advances it."""

    def __init__(self, algorithm: str, budget: Optional[DetectionBudget], sink: Optional[ViolationSink]) -> None:
        self.algorithm = algorithm
        self.budget = budget
        self.sink = sink
        self.cost = 0.0
        self.stats = MatchStatistics()
        self.emitted = 0
        self.stop_reason: Optional[str] = None
        self.attribution = RuleAttribution(algorithm)
        self._open_rule: Optional[tuple] = None
        # parent of the per-rule spans, captured where the generator starts (the
        # contextvar is only reliable in the consuming thread's context)
        self._trace_parent = obs.current_span()

    def cost_exhausted(self) -> bool:
        """Record and return whether the cost budget is spent."""
        if self.budget is not None and self.budget.cost_exhausted(self.cost):
            self.stop_reason = "max_cost"
            return True
        return False

    def rule(self, rule_name: str) -> "SerialRun":
        """Attribute the counters, cost, violations and time of the enclosed ``with`` block to one rule."""
        before = self.attribution.before(self.stats)
        if before is not None:
            before = (rule_name, before, self.cost, self.emitted, time.time(), time.monotonic())
        self._open_rule = before
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        if self._open_rule is not None:
            rule_name, before, cost, emitted, started, clock = self._open_rule
            self.attribution.record(
                rule_name, before, self.stats, self.emitted - emitted, self.cost - cost, started, time.monotonic() - clock
            )

    def flush(self) -> None:
        """Emit the rules' rows: once per run, also when its consumer stops early."""
        self.attribution.emit(self._trace_parent)

    def drain(self, search, seeds: Iterable[tuple]) -> Iterator:
        """Expand every seed's subtree depth-first, yielding each new violation.

        ``seeds`` are ``(graph, order, ids, seen, introduced)`` in the order
        they are to be expanded: the bound prefix of ``order``, the violation
        set a finding must be new against, and its ΔVio direction.  Every
        step is charged ``max(filtering, 1) + verification``; the budget is
        tested after each violation and after each step, and the run stops
        (``stop_reason`` set) the moment either cap is reached.  IncDect
        streams :class:`ViolationEvent`\\ s, Dect bare violations.
        """
        budget, sink, stack = self.budget, self.sink, search.stack
        incremental = self.algorithm == "IncDect"
        for graph, order, ids, seen, introduced in seeds:
            search.start(graph, order, ids)
            while stack:
                found = search.step()
                self.cost += max(search.filtering, 1) + search.verification
                for violation in found:
                    if violation in seen:
                        continue
                    seen.add(violation)
                    self.emitted += 1
                    notify_violation(sink, violation, introduced)
                    yield ViolationEvent(violation, introduced) if incremental else violation
                    if budget is not None and budget.violations_exhausted(self.emitted):
                        self.stop_reason = "max_violations"
                        return
                if self.cost_exhausted():
                    return
