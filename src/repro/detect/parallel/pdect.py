"""``PDect``: parallel batch error detection.

The paper extends the parallel GFD-detection algorithm of [24] to NGDs and
uses it as the batch baseline of the parallel experiments.  PDect is
PIncDect with another seed source: its initial work units come from the
*whole graph* rather than from update pivots.  Both kernels hand their seeds
to the same run of a backend — :class:`~repro.detect.parallel.cluster.
SimulatedRun` on the simulated cluster (splitting and dynamic
redistribution), :class:`~repro.detect.parallel.executor.ProcessRun` on
worker processes (a supervised map of the seeds) — which owns budgets and
attribution, so PDect supplies only its one seed list, the graph it is
searched in and its result type.

Because batch detection visits every candidate in ``G`` regardless of ΔG, its
makespan is essentially flat across update sizes — which is exactly the
behaviour Figures 4(a)–(d) show for PDect.

:func:`iter_p_dect` is the kernel: a generator yielding each violation as
its work unit completes, with budget-capped early termination (``max_cost``
caps the simulated makespan).  Callers reach it through the
:class:`~repro.detect.session.Detector` session (``engine="parallel"``).
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterator, Sequence
from typing import Optional

from repro.core.ngd import NGD, RuleSet
from repro.core.violations import Violation, ViolationSet
from repro.detect.base import EXECUTION_MODES, DetectionResult
from repro.detect.observers import DetectionBudget
from repro.detect.parallel.balancing import BalancingPolicy
from repro.detect.parallel.cluster import SimulatedRun
from repro.detect.parallel.workunits import WorkUnit, first_step_seeds
from repro.errors import ExecutionError
from repro.graph.graph import Graph
from repro.matching.plan import MatchPlan, resolve_plans
from repro.matching.search import empty_match

__all__ = ["iter_p_dect"]


def iter_p_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    processors: int = 8,
    policy: Optional[BalancingPolicy] = None,
    budget: Optional[DetectionBudget] = None,
    plans: Optional[Sequence[MatchPlan]] = None,
    execution: str = "simulated",
) -> Iterator[Violation]:
    """Run parallel batch detection, yielding violations as units complete.

    The generator's return value is the :class:`DetectionResult` whose
    ``cost`` is the simulated makespan; ``budget.max_cost`` therefore caps
    the makespan, and ``budget.max_violations`` caps the number of emitted
    violations.  Every first-step candidate seeds one unit, placed on the
    least-loaded processor by the plan's candidate estimates, so the initial
    distribution already reflects the expected subtree sizes; on the
    simulator a single-variable rule's candidates are decided while seeding.

    ``execution="processes"`` maps the same seed list over ``processors``
    real OS processes, each reading one image of ``G``
    (:mod:`repro.detect.parallel.executor`); the parent runs the first-step
    scans.  Violations are byte-identical, and ``cost`` becomes the
    aggregate work performed, which equals Dect's (wall-clock lives in
    ``wall_time``).
    """
    if execution not in EXECUTION_MODES:
        raise ExecutionError(
            f"unknown execution mode {execution!r}; expected 'simulated' or 'processes'"
        )
    plans = resolve_plans(graph, list(rules if isinstance(rules, RuleSet) else RuleSet(rules)), plans)
    policy = policy if policy is not None else BalancingPolicy.hybrid()
    started = time.perf_counter()
    if execution == "processes":
        from repro.detect.parallel.executor import ProcessRun

        run = ProcessRun("PDect", False, plans, processors, budget, images=(graph, None))
    else:
        run = SimulatedRun("PDect", False, plans, processors, policy, budget)
    violations = ViolationSet()
    dedupe = (violations, violations)
    stopped = yield from run.emit(_empty_matches(run), True, dedupe)
    yield from run.drain(() if stopped else _candidate_seeds(run, graph), lambda _: graph, dedupe)
    return DetectionResult(
        violations=violations,
        wall_time=time.perf_counter() - started,
        processors=processors,
        algorithm="PDect",
        **run.outcome(),
    )


def _empty_matches(run) -> list[Violation]:
    """The violations of the rules without variables (:func:`~repro.matching.search.empty_match`), each billed to its rule."""
    found: list[Violation] = []
    for plan in run.plans:
        if not plan.order:
            before = run.attribution.before(run.stats)
            found += empty_match(plan, run.stats)
            run.attribution.after(plan.rule.name, before, run.stats)
    return found


def _candidate_seeds(run, graph: Graph) -> Iterator[tuple[int, WorkUnit, bool]]:
    """One unit per candidate of the first variable of every rule, placed as it is scanned.

    The same placement on both backends: a multi-variable unit lands on the
    processor with the least estimated pending work (first index wins ties,
    so placement is deterministic) and is queued; a single-variable one goes
    round-robin and is not (the simulator decides it at once).  Each rule's
    scan is charged to ``run`` (:meth:`charge_scan`): a broadcast shared by
    the simulated processors, or Dect's scan cost on processes.
    """
    processors = run.processors
    # (estimated pending work, processor): the heap's head is the least-loaded processor, lowest index first
    loads = [(0.0, index) for index in range(processors)]
    position = 0
    for rule_index, plan in enumerate(run.plans):
        order = plan.order
        if not order:
            continue
        before = run.attribution.before(run.stats)
        candidates, scanned = first_step_seeds(graph, plan, run.stats)
        run.attribution.after(plan.rule.name, before, run.stats)
        run.charge_scan(len(candidates), scanned)
        unit_estimate = plan.estimated_unit_cost(1)
        for candidate in candidates:
            unit = WorkUnit(rule_index, order, ((order[0], candidate.id),), from_insertion=True)
            if len(order) == 1:
                yield position % processors, unit, False
            else:
                load, owner = loads[0]
                heapq.heapreplace(loads, (load + unit_estimate, owner))
                yield owner, unit, True
            position += 1
