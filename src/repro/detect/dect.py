"""``Dect``: the batch error-detection algorithm.

The paper uses (an NGD extension of) the batch GFD detection algorithm of
[24] as the yardstick the incremental algorithms are compared against
(Section 7, algorithm "Dect").  For every rule it enumerates every match of
the rule's pattern in the whole graph and keeps those that violate the
attribute dependency.

The search itself is the core of :mod:`repro.matching.search`: the
first-step candidates of each rule go to the rule's generated driver of
depth 0, through :class:`~repro.detect.serial.SerialRun` — the drain IncDect
searches its update pivots with.  A step is charged what the parallel kernels charge for the same
step (the simulator runs it through :func:`~repro.detect.parallel.workunits.
expand_work_unit`), so the reported ``cost`` is in the same units as the
simulated parallel makespans and the speedups of Figures 4(a)–(l) are
measured against a consistent yardstick.

:func:`iter_dect` is the kernel itself: a generator that yields each
violation the moment the step that completes it returns and honours an
optional :class:`~repro.detect.observers.DetectionBudget`.  Callers reach it
through the :class:`~repro.detect.session.Detector` session
(``engine="batch"``), which hands it the plans the session keeps.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from typing import Optional

from repro.core.ngd import NGD, RuleSet
from repro.core.violations import Violation, ViolationSet
from repro.detect.base import DetectionResult
from repro.detect.observers import DetectionBudget
from repro.detect.parallel.workunits import first_step_seeds
from repro.detect.serial import SerialRun
from repro.graph.graph import Graph
from repro.matching.plan import MatchPlan, resolve_plans
from repro.matching.search import RuleSearch, empty_match

__all__ = ["iter_dect"]


def iter_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    budget: Optional[DetectionBudget] = None,
    plans: Optional[Sequence[MatchPlan]] = None,
) -> Iterator[Violation]:
    """Run batch detection, yielding each violation as it is confirmed.

    The generator's return value (``StopIteration.value``, or via
    :func:`repro.detect.observers.drain`) is the :class:`DetectionResult`.
    ``budget`` limits are enforced between expansion steps, so a capped run
    performs strictly less work than a full one.  ``plans``
    carries pre-compiled :class:`~repro.matching.plan.MatchPlan`\\ s (one per
    rule, the session's cache); when omitted they are compiled here.  Every
    rule's search follows its plan's root order as compiled.
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    plans = resolve_plans(graph, list(rule_set), plans)
    started = time.perf_counter()
    violations = ViolationSet()
    dedupe = (violations, violations)
    run = SerialRun("Dect", False, budget)

    try:
        for plan in plans:
            order = plan.order
            with run.rule(plan.rule.name):
                if not order:
                    yield from run.emit(empty_match(plan, run.stats), True, dedupe)
                else:
                    candidates, scanned = first_step_seeds(graph, plan, run.stats)
                    run.cost += scanned
                    if not run.cost_exhausted():
                        search = RuleSearch(plan, run.stats)
                        yield from search.drive(run, graph, order, (), candidates, True, dedupe)
            if run.stop_reason is not None:
                break
    finally:
        run.flush()
    return DetectionResult(
        violations=violations,
        wall_time=time.perf_counter() - started,
        processors=1,
        algorithm="Dect",
        **run.outcome(),
    )
