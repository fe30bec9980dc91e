"""``Dect``: the batch error-detection algorithm.

The paper uses (an NGD extension of) the batch GFD detection algorithm of
[24] as the yardstick the incremental algorithms are compared against
(Section 7, algorithm "Dect").  For every rule it enumerates every match of
the rule's pattern in the whole graph and keeps those that violate the
attribute dependency.

The search itself is the core of :mod:`repro.matching.search`, seeded with
the first-step candidates of each rule and drained depth-first by
:class:`~repro.detect.serial.SerialRun` — the loop IncDect drains its update
pivots with.  A step is charged what the parallel kernels charge for the same
step (they run it through :func:`~repro.detect.parallel.workunits.
expand_work_unit`), so the reported ``cost`` is in the same units as the
simulated parallel makespans and the speedups of Figures 4(a)–(l) are
measured against a consistent yardstick.

:func:`iter_dect` is the kernel itself: a generator that yields each
violation the moment the step that completes it returns and honours an
optional :class:`~repro.detect.observers.DetectionBudget`.  :func:`dect` is
the original batch entry point, kept as a thin compatibility shim over the
:class:`~repro.detect.session.Detector` session.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from typing import Optional

from repro.core.ngd import NGD, RuleSet
from repro.core.violations import Violation, ViolationSet
from repro.detect.base import DetectionResult
from repro.detect.observers import DetectionBudget, ViolationSink
from repro.detect.parallel.workunits import rule_search
from repro.detect.serial import SerialRun
from repro.graph.graph import Graph
from repro.matching.adaptive import resolve_adaptive
from repro.matching.plan import MatchPlan, first_step_candidates, resolve_plans

__all__ = ["dect", "iter_dect"]


def iter_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    use_literal_pruning: bool = True,
    budget: Optional[DetectionBudget] = None,
    sink: Optional[ViolationSink] = None,
    plans: Optional[Sequence[MatchPlan]] = None,
    adaptive=None,
) -> Iterator[Violation]:
    """Run batch detection, yielding each violation as it is confirmed.

    The generator's return value (``StopIteration.value``, or via
    :func:`repro.detect.observers.drain`) is the :class:`DetectionResult`.
    ``budget`` limits are enforced between expansion steps, so a capped run
    performs strictly less work than a full one; ``sink`` (if given) is
    notified of every violation right before it is yielded.  ``plans``
    carries pre-compiled :class:`~repro.matching.plan.MatchPlan`\\ s (one per
    rule, the session's cache); when omitted they are compiled here.
    ``adaptive`` follows :func:`~repro.matching.adaptive.resolve_adaptive`
    conventions (None = environment default, bool = force, sequence = the
    caller's controllers).
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    rule_list = list(rule_set)
    plans = resolve_plans(graph, rule_list, plans)
    controllers = resolve_adaptive(plans, adaptive)
    started = time.perf_counter()
    violations = ViolationSet()
    run = SerialRun("Dect", budget, sink)

    for rule_index, rule in enumerate(rule_list):
        plan = plans[rule_index]
        controller = controllers[rule_index] if controllers is not None else None
        order = plan.order
        if not order:
            continue
        with run.rule(rule.name):
            candidates, scan_cost = first_step_candidates(graph, rule, plan, order, use_literal_pruning, run.stats)
            run.cost += scan_cost
            if not run.cost_exhausted():
                # the seeds are a stack: the last candidate's subtree is searched
                # first; a single-variable pattern has no subtrees and streams in
                # rank order
                if len(order) > 1:
                    candidates.reverse()
                search = rule_search(rule, plan, use_literal_pruning, run.stats, controller)
                yield from run.drain(
                    search, ((graph, order, (candidate,), violations, True) for candidate in candidates)
                )
        if run.stop_reason is not None:
            break

    return DetectionResult(
        violations=violations,
        stats=run.stats,
        wall_time=time.perf_counter() - started,
        cost=run.cost,
        processors=1,
        algorithm="Dect",
        stopped_early=run.stop_reason is not None,
        stop_reason=run.stop_reason,
    )


def dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    use_literal_pruning: bool = True,
) -> DetectionResult:
    """Run batch detection of ``Vio(Σ, G)`` over the whole graph.

    Compatibility shim: equivalent to
    ``Detector(rules, engine="batch").run(graph)``; new code should prefer
    the :class:`~repro.detect.session.Detector` session, which adds
    streaming, sinks, and budgets on the same kernel.
    """
    from repro.detect.session import DetectionOptions, Detector

    options = DetectionOptions(use_literal_pruning=use_literal_pruning)
    return Detector(rules, engine="batch", options=options).run(graph)
