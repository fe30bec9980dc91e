"""``PIncDect``: parallel incremental error detection.

The algorithm of Figure 3 in the paper:

1. For every unit update and every matching pattern edge, build an update
   pivot and identify its candidate neighbourhood; the union ``N_C(ΔG, Σ)``
   is replicated at every processor (charged to the simulated clocks).
2. Distribute the update pivots across the ``p`` processors as the initial
   work units (the queues ``BVio_i``).
3. Every processor expands its partial solutions — candidate filtering, then
   verification — splitting a step across all processors when the estimated
   parallel cost beats the sequential one (work-unit splitting).
4. At interval ``intvl`` the driver measures queue skewness and moves work
   units from processors above η to processors below η′ (workload
   redistribution).
5. When every queue drains, the union of the local violation sets is
   ΔVio(Σ, G, ΔG).

Steps 3–5 are PDect's too: both kernels hand their seeds to one run of a
backend — :class:`~repro.detect.parallel.cluster.SimulatedRun` or
:class:`~repro.detect.parallel.executor.ProcessRun` — so PIncDect supplies
only its pivots, the graph each is searched in (``G ⊕ ΔG`` for insertions,
``G`` for deletions), the charge and images of ``N_C(ΔG, Σ)`` and its
result type.  On the simulator the work is executed once, the cost of each
step is charged to the worker that would have performed it, and the
reported ``cost`` of the run is the makespan.  Theorem 6's claim — cost
``O(|Σ|·|G_dΣ(ΔG)|^|Σ| / p)`` relative to IncDect — shows up as the makespan
shrinking roughly linearly in ``p`` (Figures 4(i)–(l)).

:func:`iter_pinc_dect` is the kernel: a generator yielding a
:class:`~repro.detect.observers.ViolationEvent` per ΔVio finding as its work
unit completes, with budget-capped early termination (``max_cost`` caps the
simulated makespan).  Callers reach it through the
:class:`~repro.detect.session.Detector` session (``engine="parallel"``,
:meth:`~repro.detect.session.Detector.run_incremental`).
"""

from __future__ import annotations

import time
import zlib
from collections.abc import Iterator, Sequence
from typing import Optional

from repro.core.ngd import NGD, RuleSet
from repro.core.violations import ViolationDelta, ViolationSet
from repro.detect.base import EXECUTION_MODES, IncrementalDetectionResult
from repro.detect.observers import DetectionBudget, ViolationEvent
from repro.detect.parallel.balancing import BalancingPolicy
from repro.detect.parallel.cluster import SimulatedRun
from repro.detect.parallel.workunits import WorkUnit
from repro.errors import ExecutionError
from repro.graph.graph import Graph
from repro.graph.neighborhood import multi_source_nodes_within_hops
from repro.graph.updates import BatchUpdate, apply_update
from repro.matching.incmatch import pivot_seeds, pivots_by_rule
from repro.matching.plan import MatchPlan, resolve_plans

__all__ = ["iter_pinc_dect"]


def iter_pinc_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    delta: BatchUpdate,
    processors: int = 8,
    policy: Optional[BalancingPolicy] = None,
    graph_after: Optional[Graph] = None,
    budget: Optional[DetectionBudget] = None,
    plans: Optional[Sequence[MatchPlan]] = None,
    execution: str = "simulated",
) -> Iterator[ViolationEvent]:
    """Run parallel incremental detection, yielding ΔVio events as they complete.

    Yields :class:`ViolationEvent` objects; the generator's return value is
    the :class:`IncrementalDetectionResult` whose ``cost`` is the simulated
    makespan (capped by ``budget.max_cost``).  A pivot is placed on the
    processor owning the updated edge: a crc32 hash of its source endpoint
    stands in for the fragment owner, on both backends.  Ownership-based
    placement is what the real system does, and it is what creates the
    workload skew the balancing machinery then has to fix.

    ``execution="processes"`` replicates the candidate neighbourhood
    ``N_C(ΔG, Σ)`` — the dΣ-neighbourhood of the touched nodes in ``G`` and
    in ``G ⊕ ΔG`` — to ``processors`` real worker processes and expands the
    pivots there, each on its owner (byte-identical ΔVio; ``cost`` becomes
    the aggregate work performed).  A rule set with a disconnected pattern
    replicates the full graphs instead (neighbourhood-local search would
    miss its detached component).
    """
    if execution not in EXECUTION_MODES:
        raise ExecutionError(
            f"unknown execution mode {execution!r}; expected 'simulated' or 'processes'"
        )
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    policy = policy if policy is not None else BalancingPolicy.hybrid()
    updated = graph_after if graph_after is not None else apply_update(graph, delta)
    plans = resolve_plans(updated, list(rule_set), plans)
    started = time.perf_counter()
    diameter = max(rule_set.diameter(), 1)
    touched = delta.touched_nodes()
    after_nodes = multi_source_nodes_within_hops(updated, touched, diameter)
    neighborhood_size = len(after_nodes)
    algorithm = f"PIncDect{policy.variant_suffix()}"
    if execution == "processes":
        from repro.detect.parallel.executor import ProcessRun

        if all(plan.rule.pattern.is_connected() for plan in plans):
            before_nodes = multi_source_nodes_within_hops(graph, touched, diameter)
            images = (
                updated.induced_subgraph(after_nodes, name=f"{updated.name}[N_C]"),
                graph.induced_subgraph(before_nodes, name=f"{graph.name}[N_C]"),
            )
        else:
            images = (updated, graph)
        # extraction and replication of N_C(ΔG, Σ) is charged to the run's aggregate cost
        run = ProcessRun(
            algorithm, True, plans, processors, budget,
            images=images, base_cost=float(neighborhood_size),
        )
    else:
        run = SimulatedRun(algorithm, True, plans, processors, policy, budget)
        # extraction and replication of N_C(ΔG, Σ): O(|G_dΣ(ΔG)|) work shared
        # by p workers, plus one broadcast round
        if neighborhood_size:
            run.cluster.charge_broadcast(0, neighborhood_size / processors, policy.latency)
    # each pivot made as IncDect makes its seeds, the proofs billed to the run and its rules' rows
    graph_for = lambda inserted: updated if inserted else graph  # noqa: E731
    seeds = []
    for rule_index, found in enumerate(pivots_by_rule(rule_set, delta, graph, updated)):
        before = run.attribution.before(run.stats)
        consistent, proven = pivot_seeds(plans[rule_index], found, graph_for, run.stats)
        if consistent:
            run.attribution.after(plans[rule_index].rule.name, before, run.stats)
        for order, ids, inserted in proven:
            unit = WorkUnit(rule_index, order, tuple(zip(order, ids)), inserted)
            seeds.append((zlib.crc32(repr(ids[0]).encode()) % processors, unit, True))
    introduced, removed = ViolationSet(), ViolationSet()
    yield from run.drain(seeds, graph_for, (introduced, removed))
    return IncrementalDetectionResult(
        delta=ViolationDelta(introduced=introduced, removed=removed),
        wall_time=time.perf_counter() - started,
        processors=processors,
        algorithm=algorithm,
        neighborhood_size=neighborhood_size,
        **run.outcome(),
    )

