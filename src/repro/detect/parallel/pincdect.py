"""``PIncDect``: parallel incremental error detection.

The algorithm of Figure 3 in the paper:

1. For every unit update and every matching pattern edge, build an update
   pivot and identify its candidate neighbourhood; the union ``N_C(ΔG, Σ)``
   is replicated at every processor (charged to the simulated clocks).
2. Evenly distribute the update pivots across the ``p`` processors as the
   initial work units (the queues ``BVio_i``).
3. Every processor expands its partial solutions — candidate filtering, then
   verification — splitting a step across all processors when the estimated
   parallel cost beats the sequential one (work-unit splitting).
4. At interval ``intvl`` the driver measures queue skewness and moves work
   units from processors above η to processors below η′ (workload
   redistribution).
5. When every queue drains, the union of the local violation sets is
   ΔVio(Σ, G, ΔG).

The cluster is simulated (see ``cluster.py``): the work is executed once, the
cost of each step is charged to the worker that would have performed it, and
the reported ``cost`` of the run is the makespan.  Theorem 6's claim — cost
``O(|Σ|·|G_dΣ(ΔG)|^|Σ| / p)`` relative to IncDect — shows up as the makespan
shrinking roughly linearly in ``p`` (Figures 4(i)–(l)).

:func:`iter_pinc_dect` is the kernel: a generator yielding a
:class:`~repro.detect.observers.ViolationEvent` per ΔVio finding as its work
unit completes, with optional sink notification and budget-capped early
termination (``max_cost`` caps the simulated makespan).  :func:`pinc_dect`
keeps the original signature as a compatibility shim over the
:class:`~repro.detect.session.Detector` session.
"""

from __future__ import annotations

import time
import zlib
from collections.abc import Iterator, Sequence
from typing import Optional

from repro import obs
from repro.core.ngd import NGD, RuleSet
from repro.core.violations import ViolationDelta, ViolationSet
from repro.detect.base import IncrementalDetectionResult
from repro.detect.instrument import RuleAttribution
from repro.detect.observers import (
    DetectionBudget,
    ViolationEvent,
    ViolationSink,
    notify_violation,
)
from repro.detect.parallel.balancing import (
    BalancingPolicy,
    plan_rebalancing,
    rebalancing_pays,
    should_split_step,
    skewness,
)
from repro.detect.parallel.cluster import ClusterSimulator
from repro.errors import ExecutionError
from repro.detect.parallel.workunits import (
    WorkUnit,
    expand_work_unit,
)
from repro.graph.graph import Graph
from repro.graph.neighborhood import multi_source_nodes_within_hops
from repro.graph.updates import BatchUpdate, apply_update
from repro.matching.candidates import MatchStatistics
from repro.matching.incmatch import pivots_by_rule
from repro.matching.plan import MatchPlan, resolve_plans

__all__ = ["pinc_dect", "iter_pinc_dect"]


def iter_pinc_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    delta: BatchUpdate,
    processors: int = 8,
    policy: Optional[BalancingPolicy] = None,
    use_literal_pruning: bool = True,
    graph_after: Optional[Graph] = None,
    budget: Optional[DetectionBudget] = None,
    sink: Optional[ViolationSink] = None,
    plans: Optional[Sequence[MatchPlan]] = None,
    execution: str = "simulated",
    start_method: Optional[str] = None,
    adaptive=None,
    warm_pool=None,
) -> Iterator[ViolationEvent]:
    """Run parallel incremental detection, yielding ΔVio events as they complete.

    Yields :class:`ViolationEvent` objects; the generator's return value is
    the :class:`IncrementalDetectionResult` whose ``cost`` is the simulated
    makespan (capped by ``budget.max_cost``).  ``execution="processes"``
    replicates the candidate neighbourhood ``N_C(ΔG, Σ)`` to ``processors``
    real worker processes and expands the pivot work units there (byte-
    identical ΔVio; ``cost`` becomes the aggregate work performed).
    ``warm_pool`` reuses live worker processes between runs; the
    neighbourhood images differ per delta, so every run reloads its runtime
    but skips process startup.
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    rule_list = list(rule_set)
    policy = policy if policy is not None else BalancingPolicy.hybrid()
    updated = graph_after if graph_after is not None else apply_update(graph, delta)
    plans = resolve_plans(updated, rule_list, plans)
    if execution == "processes":
        return _iter_pinc_dect_processes(
            graph, updated, rule_set, rule_list, plans, delta, processors, policy,
            use_literal_pruning, budget, sink, start_method, adaptive, warm_pool,
        )
    if execution != "simulated":
        raise ExecutionError(
            f"unknown execution mode {execution!r}; expected 'simulated' or 'processes'"
        )
    return _iter_pinc_dect_simulated(
        graph, updated, rule_set, rule_list, plans, delta, processors, policy,
        use_literal_pruning, budget, sink, adaptive,
    )


def _pivot_units(
    rule_set: RuleSet,
    plans: tuple[MatchPlan, ...],
    delta: BatchUpdate,
    graph: Graph,
    updated: Graph,
) -> list[WorkUnit]:
    """Return a work unit per consistent update pivot, rule by rule, from one pass over ΔG.

    Seeded as IncDect seeds its search: the pivot's order, its endpoints,
    and the seed's internal pattern edges probed in the graph it expands in.
    """
    units = []
    for rule_index, found in enumerate(pivots_by_rule(rule_set, delta, graph, updated)):
        for site, update in found:
            ids = site.ids(update)
            if site.holds_in((updated if update.is_insertion else graph).store, ids):
                order = site.order(plans[rule_index])
                units.append(WorkUnit(rule_index, order, tuple(zip(order, ids)), update.is_insertion))
    return units


def _iter_pinc_dect_simulated(
    graph: Graph,
    updated: Graph,
    rule_set: RuleSet,
    rule_list: list[NGD],
    plans: tuple[MatchPlan, ...],
    delta: BatchUpdate,
    processors: int,
    policy: BalancingPolicy,
    use_literal_pruning: bool,
    budget: Optional[DetectionBudget],
    sink: Optional[ViolationSink],
    adaptive=None,
) -> Iterator[ViolationEvent]:
    """The original deterministic kernel: one process, simulated clocks."""
    from repro.matching.adaptive import resolve_adaptive

    controllers = resolve_adaptive(plans, adaptive)
    stats = MatchStatistics()
    started = time.perf_counter()
    cluster = ClusterSimulator(processors, policy.latency)

    # ---------------------------------------------------------- phase 1: pivots
    units = _pivot_units(rule_set, plans, delta, graph, updated)

    diameter = max(rule_set.diameter(), 1)
    neighborhood_size = len(
        multi_source_nodes_within_hops(updated, delta.touched_nodes(), diameter)
    )
    # extraction and replication of N_C(ΔG, Σ): O(|G_dΣ(ΔG)|) work shared by p workers,
    # plus one broadcast round.
    if neighborhood_size:
        cluster.charge_broadcast(0, neighborhood_size / processors, policy.latency)

    # ------------------------------------------------- phase 2: distribute pivots
    # A pivot is generated at the processor owning the updated edge (hash
    # partitioning of the source endpoint stands in for the fragment owner).
    # Ownership-based placement is what the real system does, and it is what
    # creates the workload skew the balancing machinery then has to fix.
    for unit in units:
        owner = zlib.crc32(repr(unit.assignment[0][1]).encode()) % processors
        cluster.enqueue(owner, unit)

    introduced = ViolationSet()
    removed = ViolationSet()
    emitted = 0
    stop_reason: Optional[str] = None
    attribution = RuleAttribution(f"PIncDect{policy.variant_suffix()}")
    trace_parent = obs.current_span()

    # --------------------------------------------------- phase 3: parallel expansion
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
        search_graph = updated if unit.from_insertion else graph

        unit_before = attribution.before(stats)
        outcome = expand_work_unit(
            search_graph,
            rule,
            unit,
            use_literal_pruning=use_literal_pruning,
            stats=stats,
            plan=plan,
            adaptive=controllers[unit.rule_index] if controllers is not None else None,
        )
        attribution.after(rule.name, unit_before, stats)

        # candidate filtering cost (possibly split across processors); the
        # split decision uses the plan's remaining-subtree estimate, the
        # charges are actual sizes
        depth = unit.depth()
        filtering = max(outcome.filtering_adjacency, 1)
        if policy.enable_splitting and should_split_step(
            plan, unit.order, filtering, depth, processors, policy.latency
        ):
            cluster.charge_broadcast(worker, filtering / processors, policy.latency * (depth + 1))
        else:
            cluster.charge(worker, float(filtering))

        # verification cost (possibly split as well, with k+2 broadcast term)
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
        target = introduced if unit.from_insertion else removed
        for violation in outcome.violations:
            if violation in target:
                continue
            target.add(violation)
            emitted += 1
            attribution.violation(rule.name)
            notify_violation(sink, violation, introduced=unit.from_insertion)
            yield ViolationEvent(violation, introduced=unit.from_insertion)
            if budget is not None and budget.violations_exhausted(emitted):
                stop_reason = "max_violations"
                break

    attribution.emit(trace_parent)
    elapsed = time.perf_counter() - started
    return IncrementalDetectionResult(
        delta=ViolationDelta(introduced=introduced, removed=removed),
        stats=stats,
        wall_time=elapsed,
        cost=cluster.makespan(),
        processors=processors,
        worker_traces=cluster.traces(),
        algorithm=f"PIncDect{policy.variant_suffix()}",
        neighborhood_size=neighborhood_size,
        stopped_early=stop_reason is not None,
        stop_reason=stop_reason,
    )


def _iter_pinc_dect_processes(
    graph: Graph,
    updated: Graph,
    rule_set: RuleSet,
    rule_list: list[NGD],
    plans: tuple[MatchPlan, ...],
    delta: BatchUpdate,
    processors: int,
    policy: BalancingPolicy,
    use_literal_pruning: bool,
    budget: Optional[DetectionBudget],
    sink: Optional[ViolationSink],
    start_method: Optional[str],
    adaptive=None,
    warm_pool=None,
) -> Iterator[ViolationEvent]:
    """Real multi-process incremental detection over the replicated N_C(ΔG, Σ).

    The parent finds the update pivots against the full graphs, extracts
    the dΣ-neighbourhood of the touched nodes in both ``G`` and
    ``G ⊕ ΔG`` (the paper's candidate neighbourhood, replicated to every
    worker), and ships pivot work units to the processor owning the
    updated edge — the same crc32 ownership hash the simulator uses, so
    the initial skew the balancer must fix is the same.  A rule set with
    a disconnected pattern falls back to replicating the full graphs
    (neighbourhood-local search would miss its detached component).
    """
    from repro.detect.parallel.executor import (
        ExecutionRuntime,
        ProcessRunSummary,
        drain_units_serially,
        iter_process_execution,
        note_degraded_run,
    )
    from repro.errors import WorkerPoolCollapse
    from repro.graph.sharded import ShardedStore, supports_localized_matching

    stats = MatchStatistics()
    started = time.perf_counter()

    units = _pivot_units(rule_set, plans, delta, graph, updated)

    diameter = max(rule_set.diameter(), 1)
    touched = delta.touched_nodes()
    localized = supports_localized_matching(rule_list)
    if localized:
        after_nodes = multi_source_nodes_within_hops(updated, touched, diameter)
        before_nodes = multi_source_nodes_within_hops(graph, touched, diameter)
        after_image = updated.induced_subgraph(after_nodes, name=f"{updated.name}[N_C]")
        before_image = graph.induced_subgraph(before_nodes, name=f"{graph.name}[N_C]")
    else:
        after_nodes = multi_source_nodes_within_hops(updated, touched, diameter)
        after_image, before_image = updated, graph
    neighborhood_size = len(after_nodes)
    base_cost = float(neighborhood_size)  # extraction + replication charge

    def runtime_factory() -> ExecutionRuntime:
        return ExecutionRuntime(
            rules=rule_list,
            plans=plans,
            use_literal_pruning=use_literal_pruning,
            shards=ShardedStore.single(after_image),
            before_shards=ShardedStore.single(before_image),
            # controllers cannot cross process boundaries: workers build their own
            adaptive=adaptive if isinstance(adaptive, (bool, type(None))) else True,
        )

    seeds: list[tuple[int, int, WorkUnit]] = []
    for unit in units:
        owner = zlib.crc32(repr(unit.assignment[0][1]).encode()) % processors
        seeds.append((owner, 0, unit))

    introduced = ViolationSet()
    removed = ViolationSet()
    attribution = RuleAttribution(f"PIncDect{policy.variant_suffix()}")
    trace_parent = obs.current_span()
    summary = ProcessRunSummary()
    if seeds:
        if warm_pool is not None:
            # the neighbourhood images are delta-specific, so the runtime
            # key is None: every run reloads, but worker processes survive
            events = warm_pool.execute(
                None,
                runtime_factory,
                seeds,
                processors,
                policy,
                budget=budget,
                sink=sink,
                dedupe=(introduced, removed),
                base_cost=base_cost,
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
                dedupe=(introduced, removed),
                base_cost=base_cost,
                start_method=start_method,
                summary=summary,
            )
        leftovers: list[tuple[int, WorkUnit]] = []
        try:
            for violation, from_insertion in events:
                attribution.violation(violation.rule)
                yield ViolationEvent(violation, introduced=from_insertion)
        except WorkerPoolCollapse as collapse:
            leftovers = list(collapse.outstanding)
        finally:
            events.close()
        leftovers.extend(summary.quarantined)
        if leftovers and summary.stop_reason is None:
            # graceful degradation: finish every unconfirmed unit serially
            # against the parent's full graphs.  The full graphs are
            # supersets of the shipped N_C images and matching is
            # neighbourhood-local, so expansion yields the same matches;
            # the shared dedupe sets keep ΔVio byte-identical.
            summary.degraded = True
            note_degraded_run()
            drained = drain_units_serially(
                leftovers,
                rules=rule_list,
                plans=plans,
                use_literal_pruning=use_literal_pruning,
                graph_for=lambda shard_id, from_insertion: (
                    updated if from_insertion else graph
                ),
                budget=budget,
                sink=sink,
                dedupe=(introduced, removed),
                summary=summary,
            )
            for violation, from_insertion in drained:
                attribution.violation(violation.rule)
                yield ViolationEvent(violation, introduced=from_insertion)
            if summary.stop_reason is None and summary.quarantined:
                summary.stop_reason = "units_quarantined"
    else:
        summary.cost = base_cost
    stats.merge(summary.stats)

    attribution.emit(trace_parent)
    elapsed = time.perf_counter() - started
    return IncrementalDetectionResult(
        delta=ViolationDelta(introduced=introduced, removed=removed),
        stats=stats,
        wall_time=elapsed,
        cost=summary.cost,
        processors=processors,
        worker_traces=summary.worker_traces,
        algorithm=f"PIncDect{policy.variant_suffix()}",
        neighborhood_size=neighborhood_size,
        stopped_early=summary.stop_reason in ("max_violations", "max_cost"),
        stop_reason=summary.stop_reason,
        degraded=summary.degraded,
    )


def pinc_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    delta: BatchUpdate,
    processors: int = 8,
    policy: Optional[BalancingPolicy] = None,
    use_literal_pruning: bool = True,
    graph_after: Optional[Graph] = None,
) -> IncrementalDetectionResult:
    """Run parallel incremental detection on a simulated ``processors``-worker cluster.

    Compatibility shim: equivalent to ``Detector(rules, engine="parallel",
    processors=processors).run_incremental(graph, delta, graph_after)``; new
    code should prefer the :class:`~repro.detect.session.Detector` session.
    """
    from repro.detect.session import DetectionOptions, Detector

    options = DetectionOptions(use_literal_pruning=use_literal_pruning, policy=policy)
    detector = Detector(rules, engine="parallel", processors=processors, options=options)
    return detector.run_incremental(graph, delta, graph_after=graph_after)
