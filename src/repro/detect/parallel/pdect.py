"""``PDect``: parallel batch error detection.

The paper extends the parallel GFD-detection algorithm of [24] to NGDs and
uses it as the batch baseline of the parallel experiments.  Here PDect shares
the work-unit machinery of PIncDect, but its initial work units come from the
*whole graph* rather than from update pivots: for every rule, every candidate
of the first pattern variable in the matching order seeds one work unit.
Work-unit splitting is applied with the same cost model; dynamic
redistribution is also available (the paper's batch algorithm balances
workload through its own estimation scheme, which this reproduces with the
same mechanism as PIncDect).

Because batch detection visits every candidate in ``G`` regardless of ΔG, its
makespan is essentially flat across update sizes — which is exactly the
behaviour Figures 4(a)–(d) show for PDect.

:func:`iter_p_dect` is the kernel: a generator yielding each violation as
its work unit completes on the simulated cluster, with optional sink
notification and budget-capped early termination (``max_cost`` caps the
simulated makespan).  :func:`p_dect` keeps the original signature as a
compatibility shim over the :class:`~repro.detect.session.Detector` session.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from typing import Optional

from repro import obs
from repro.core.ngd import NGD, RuleSet
from repro.core.violations import Violation, ViolationSet
from repro.detect.base import DetectionResult
from repro.detect.instrument import RuleAttribution
from repro.detect.observers import DetectionBudget, ViolationSink, notify_violation
from repro.detect.parallel.balancing import (
    BalancingPolicy,
    plan_rebalancing,
    rebalancing_pays,
    should_split_step,
    skewness,
)
from repro.detect.parallel.cluster import ClusterSimulator
from repro.detect.parallel.workunits import WorkUnit, expand_work_unit
from repro.errors import ExecutionError
from repro.graph.graph import Graph
from repro.matching.candidates import MatchStatistics
from repro.matching.plan import MatchPlan, first_step_candidates, resolve_plans

__all__ = ["p_dect", "iter_p_dect"]


def iter_p_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    processors: int = 8,
    policy: Optional[BalancingPolicy] = None,
    use_literal_pruning: bool = True,
    budget: Optional[DetectionBudget] = None,
    sink: Optional[ViolationSink] = None,
    plans: Optional[Sequence[MatchPlan]] = None,
    execution: str = "simulated",
    warm_pool=None,
    runtime_key=None,
) -> Iterator[Violation]:
    """Run parallel batch detection, yielding violations as units complete.

    The generator's return value is the :class:`DetectionResult` whose
    ``cost`` is the simulated makespan; ``budget.max_cost`` therefore caps
    the makespan, and ``budget.max_violations`` caps the number of emitted
    violations.  Seed work units are placed on the least-loaded processor by
    the plan's candidate estimates, so the initial distribution already
    reflects the expected subtree sizes.

    ``execution="processes"`` runs the same work units on ``processors``
    real OS processes, each reading one image of ``G``
    (:mod:`repro.detect.parallel.executor`): violations are byte-identical,
    and ``cost`` becomes the aggregate work performed (wall-clock lives in
    ``wall_time``).  ``warm_pool`` (a
    :class:`~repro.detect.parallel.executor.WarmExecutorPool`) reuses live
    workers across runs: ``runtime_key`` identifies the graph/rules
    snapshot the workers may already have loaded.
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    rule_list = list(rule_set)
    plans = resolve_plans(graph, rule_list, plans)
    policy = policy if policy is not None else BalancingPolicy.hybrid()
    if execution == "processes":
        return _iter_p_dect_processes(
            graph, rule_list, plans, processors, policy,
            use_literal_pruning, budget, sink, warm_pool, runtime_key,
        )
    if execution != "simulated":
        raise ExecutionError(
            f"unknown execution mode {execution!r}; expected 'simulated' or 'processes'"
        )
    return _iter_p_dect_simulated(
        graph, rule_list, plans, processors, policy, use_literal_pruning, budget, sink
    )


def _iter_p_dect_simulated(
    graph: Graph,
    rule_list: list[NGD],
    plans: tuple[MatchPlan, ...],
    processors: int,
    policy: BalancingPolicy,
    use_literal_pruning: bool,
    budget: Optional[DetectionBudget],
    sink: Optional[ViolationSink],
) -> Iterator[Violation]:
    """The original deterministic kernel: one process, simulated clocks."""
    stats = MatchStatistics()
    started = time.perf_counter()

    cluster = ClusterSimulator(processors, policy.latency)
    violations = ViolationSet()
    emitted = 0
    stop_reason: Optional[str] = None
    attribution = RuleAttribution("PDect")
    trace_parent = obs.current_span()

    # seed work units: one per candidate of the first variable of every rule
    position = 0
    estimated_loads = [0.0] * processors
    for rule_index, rule in enumerate(rule_list):
        plan = plans[rule_index]
        order = plan.order
        if not order:
            continue
        first = order[0]
        rule_before = attribution.before(stats)
        candidates, _ = first_step_candidates(graph, rule, plan, order, use_literal_pruning, stats)
        # the scan of the label index is shared evenly by the processors
        cluster.charge_broadcast(0, len(candidates) / processors, policy.latency)
        unit_estimate = plan.estimated_unit_cost(1)
        for candidate in candidates:
            unit = WorkUnit(
                rule_index=rule_index,
                order=order,
                assignment=((first, candidate),),
                from_insertion=True,
            )
            if len(order) == 1:
                # single-node pattern: decide the violation immediately
                outcome = expand_work_unit(graph, rule, unit, use_literal_pruning, stats, plan)
                for violation in outcome.violations:
                    if violation not in violations:
                        violations.add(violation)
                        emitted += 1
                        attribution.violation(rule.name)
                        notify_violation(sink, violation)
                        yield violation
                cluster.charge(position % processors, 1.0)
                if budget is not None and budget.violations_exhausted(emitted):
                    stop_reason = "max_violations"
                    break
            else:
                # plan-estimated placement: each seed unit lands on the
                # processor with the least estimated pending work (first
                # index wins ties, so placement is deterministic)
                owner = min(range(processors), key=lambda i: (estimated_loads[i], i))
                estimated_loads[owner] += unit_estimate
                cluster.enqueue(owner, unit)
            position += 1
        attribution.after(rule.name, rule_before, stats)
        if stop_reason is not None:
            break

    last_balance = 0.0
    work_done = 0.0
    units_done = 0
    while stop_reason is None and cluster.has_pending_work():
        if budget is not None and budget.cost_exhausted(cluster.makespan()):
            stop_reason = "max_cost"
            break
        if policy.enable_rebalancing and cluster.global_time() - last_balance >= policy.interval:
            last_balance = cluster.global_time()
            lengths = cluster.queue_lengths()
            # redistributing a near-empty system only buys message latency; rebalance
            # only when some queue holds a meaningful batch of pending units
            # AND shipping it beats the per-participant message cost at the
            # observed average unit cost (benefit-aware gate)
            if max(lengths) >= 4 and any(value > policy.eta for value in skewness(lengths)):
                moves = plan_rebalancing(lengths, policy.eta, policy.eta_prime)
                average_unit_cost = work_done / units_done if units_done else 0.0
                if rebalancing_pays(moves, policy.latency, average_unit_cost):
                    participants: set[int] = set()
                    for origin, destination, count in moves:
                        if cluster.move_units(origin, destination, count, charge=False):
                            participants.add(origin)
                            participants.add(destination)
                            if attribution.enabled:
                                obs.counter_inc("repro_executor_steals_total", {"mode": "simulated"}, count)
                    for worker_index in participants:
                        cluster.charge(worker_index, policy.latency)

        worker = cluster.next_busy_worker()
        if worker is None:
            break
        unit: WorkUnit = cluster.pop_unit(worker)
        rule = rule_list[unit.rule_index]
        plan = plans[unit.rule_index]
        unit_before = attribution.before(stats)
        outcome = expand_work_unit(
            graph,
            rule,
            unit,
            use_literal_pruning=use_literal_pruning,
            stats=stats,
            plan=plan,
        )
        attribution.after(rule.name, unit_before, stats)

        depth = unit.depth()
        filtering = max(outcome.filtering_adjacency, 1)
        # split decision: the plan's remaining-subtree estimate; the charges
        # are actual sizes
        if policy.enable_splitting and should_split_step(
            plan, unit.order, filtering, depth, processors, policy.latency
        ):
            cluster.charge_broadcast(worker, filtering / processors, policy.latency * (depth + 1))
        else:
            cluster.charge(worker, float(filtering))
        verification = outcome.verification_adjacency
        if verification:
            if policy.enable_splitting and should_split_step(
                plan, unit.order, verification, depth + 1, processors, policy.latency
            ):
                cluster.charge_broadcast(worker, verification / processors, policy.latency * (depth + 2))
            else:
                cluster.charge(worker, float(verification))
        work_done += filtering + verification
        units_done += 1

        for new_unit in outcome.new_units:
            cluster.enqueue(worker, new_unit)
        for violation in outcome.violations:
            if violation in violations:
                continue
            violations.add(violation)
            emitted += 1
            attribution.violation(rule.name)
            notify_violation(sink, violation)
            yield violation
            if budget is not None and budget.violations_exhausted(emitted):
                stop_reason = "max_violations"
                break

    attribution.emit(trace_parent)
    elapsed = time.perf_counter() - started
    return DetectionResult(
        violations=violations,
        stats=stats,
        wall_time=elapsed,
        cost=cluster.makespan(),
        processors=processors,
        worker_traces=cluster.traces(),
        algorithm="PDect",
        stopped_early=stop_reason is not None,
        stop_reason=stop_reason,
    )


def _iter_p_dect_processes(
    graph: Graph,
    rule_list: list[NGD],
    plans: tuple[MatchPlan, ...],
    processors: int,
    policy: BalancingPolicy,
    use_literal_pruning: bool,
    budget: Optional[DetectionBudget],
    sink: Optional[ViolationSink],
    warm_pool=None,
    runtime_key=None,
) -> Iterator[Violation]:
    """Real multi-process batch detection over one shared image of ``G``.

    The parent ships one root unit per rule — the worker performs the
    first-step scan itself, so seeding parallelises across rules and only
    |Σ| units cross the queue — each placed on the worker with the least
    plan-estimated pending work; skew between rule subtrees is the
    rebalancer's job.  Violations are byte-identical to the simulated and
    serial paths; ``cost`` is the aggregate work performed.

    With a ``warm_pool`` the runtime is built lazily — a pool hit on
    ``runtime_key`` never touches the store at all.
    """
    from repro.detect.parallel.executor import (
        ExecutionRuntime,
        ProcessRunSummary,
        drain_units_serially,
        iter_process_execution,
        note_degraded_run,
    )
    from repro.errors import WorkerPoolCollapse

    started = time.perf_counter()
    violations = ViolationSet()
    stop_reason: Optional[str] = None
    attribution = RuleAttribution("PDect")
    trace_parent = obs.current_span()

    def runtime_factory() -> ExecutionRuntime:
        return ExecutionRuntime(
            rules=rule_list, plans=plans, use_literal_pruning=use_literal_pruning, image=graph
        )

    seeds: list[tuple[int, WorkUnit]] = []
    estimated_loads = [0.0] * processors
    for rule_index, plan in enumerate(plans):
        if not plan.order:
            continue
        owner = min(range(processors), key=lambda i: (estimated_loads[i], i))
        estimated_loads[owner] += plan.estimated_unit_cost(0)
        # a depth-0 unit: its step is the first-step scan
        seeds.append((owner, WorkUnit(rule_index, plan.order, (), from_insertion=True)))

    summary = ProcessRunSummary()
    leftovers: list[WorkUnit] = []
    if seeds:
        if warm_pool is not None:
            events = warm_pool.execute(
                runtime_key,
                runtime_factory,
                seeds,
                processors,
                policy,
                budget=budget,
                sink=sink,
                dedupe=(violations, ViolationSet()),
                summary=summary,
            )
        else:
            events = iter_process_execution(
                runtime_factory(),
                seeds,
                processors,
                policy,
                budget=budget,
                sink=sink,
                dedupe=(violations, ViolationSet()),
                summary=summary,
            )
        try:
            for violation, _ in events:
                attribution.violation(violation.rule)
                yield violation
        except WorkerPoolCollapse as collapse:
            leftovers = list(collapse.outstanding)
        finally:
            events.close()
        stop_reason = summary.stop_reason
    leftovers.extend(summary.quarantined)
    if leftovers and stop_reason is None:
        # graceful degradation: the pool is gone (or quarantined poison
        # units remain) — finish every unconfirmed unit serially against
        # the parent's full image.  The shared dedupe set absorbs
        # whatever the workers already reported, so the violations stay
        # byte-identical to an undisturbed run.
        summary.degraded = True
        note_degraded_run()
        drained = drain_units_serially(
            leftovers,
            rules=rule_list,
            plans=plans,
            use_literal_pruning=use_literal_pruning,
            graph_for=lambda from_insertion: graph,
            budget=budget,
            sink=sink,
            dedupe=(violations, ViolationSet()),
            summary=summary,
        )
        for violation, _ in drained:
            attribution.violation(violation.rule)
            yield violation
        stop_reason = summary.stop_reason
        if stop_reason is None and summary.quarantined:
            stop_reason = "units_quarantined"

    attribution.emit(trace_parent)
    elapsed = time.perf_counter() - started
    return DetectionResult(
        violations=violations,
        stats=summary.stats,
        wall_time=elapsed,
        cost=summary.cost,
        processors=processors,
        worker_traces=summary.worker_traces,
        algorithm="PDect",
        stopped_early=stop_reason in ("max_violations", "max_cost"),
        stop_reason=stop_reason,
        degraded=summary.degraded,
    )


def p_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    processors: int = 8,
    policy: Optional[BalancingPolicy] = None,
    use_literal_pruning: bool = True,
) -> DetectionResult:
    """Run parallel batch detection of ``Vio(Σ, G)`` on a simulated cluster.

    Compatibility shim: equivalent to ``Detector(rules, engine="parallel",
    processors=processors).run(graph)``; new code should prefer the
    :class:`~repro.detect.session.Detector` session.
    """
    from repro.detect.session import DetectionOptions, Detector

    options = DetectionOptions(use_literal_pruning=use_literal_pruning, policy=policy)
    detector = Detector(rules, engine="parallel", processors=processors, options=options)
    return detector.run(graph)
