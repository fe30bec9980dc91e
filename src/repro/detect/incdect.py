"""``IncDect``: the sequential, localizable incremental detection algorithm.

Section 6.2.  Given a graph ``G``, a rule set Σ and a batch update ΔG,
IncDect computes ΔVio(Σ, G, ΔG) by update-driven evaluation:

1. For every rule and every unit update, build the *update pivots*: partial
   solutions mapping a pattern edge onto the updated data edge.
2. Expand each pivot with the same backtracking expansion as ``Matchn``,
   restricted to the pivot's neighbourhood — insertion pivots in ``G ⊕ ΔG``
   (candidates for ΔVio⁺), deletion pivots in ``G`` (candidates for ΔVio⁻).
3. Literal-driven pruning discards partial solutions that can no longer
   produce a violation.

The algorithm is *localizable*: the nodes it ever touches lie within the
dΣ-neighbourhood of the endpoints of ΔG, so its cost is
``O(|Σ| · |G_dΣ(ΔG)|^|Σ|)`` independently of |G|.

The pivots of all of Σ come from one pass over ΔG
(:func:`~repro.matching.incmatch.pivots_by_rule`) and seed the search core of
:mod:`repro.matching.search` directly, drained by the loop Dect drains its
seeds with (:class:`~repro.detect.serial.SerialRun`) and charged per step
what the parallel kernels charge.  The reported ``cost`` is what the search
touched — one unit per consistent pivot plus the charged steps — in the units
of the simulated parallel makespans, making PIncDect's relative parallel
scalability (Theorem 6) directly observable in the benchmarks.  The search
never needs ``G_dΣ(ΔG)`` itself: its size, ``neighborhood_size``, is one BFS
run when the result is first asked for it.  ``restrict_to_neighborhood``
extracts ``G_dΣ(ΔG)`` up front to demonstrate locality explicitly, and
charges that extraction to ``cost``.

:func:`iter_inc_dect` is the kernel: a generator yielding a
:class:`~repro.detect.observers.ViolationEvent` (violation + ΔVio⁺/ΔVio⁻
direction) per finding, with optional sink notification and budget-capped
early termination.  :func:`inc_dect` keeps the original signature as a
compatibility shim over the :class:`~repro.detect.session.Detector` session.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from typing import Optional

from repro.core.ngd import NGD, RuleSet
from repro.core.violations import ViolationDelta, ViolationSet
from repro.detect.base import IncrementalDetectionResult
from repro.detect.observers import DetectionBudget, ViolationEvent, ViolationSink
from repro.detect.parallel.workunits import rule_search
from repro.detect.serial import SerialRun
from repro.graph.graph import Graph
from repro.graph.neighborhood import update_neighborhood
from repro.graph.updates import BatchUpdate, apply_update
from repro.matching.adaptive import resolve_adaptive
from repro.matching.incmatch import pivots_by_rule
from repro.matching.plan import MatchPlan, resolve_plans

__all__ = ["inc_dect", "iter_inc_dect"]


def iter_inc_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    delta: BatchUpdate,
    use_literal_pruning: bool = True,
    restrict_to_neighborhood: bool = False,
    graph_after: Optional[Graph] = None,
    budget: Optional[DetectionBudget] = None,
    sink: Optional[ViolationSink] = None,
    plans: Optional[Sequence[MatchPlan]] = None,
    adaptive=None,
) -> Iterator[ViolationEvent]:
    """Run incremental detection, yielding each ΔVio event as it is confirmed.

    Yields :class:`ViolationEvent` objects (``introduced=True`` for ΔVio⁺,
    ``False`` for ΔVio⁻); the generator's return value is the
    :class:`IncrementalDetectionResult`.  ``graph_after`` may be supplied
    when the caller has already materialised ``G ⊕ ΔG`` (the experiment
    harness reuses it across algorithms); otherwise it is computed here, and
    its construction is not charged to the algorithm's cost (the paper
    likewise assumes the updated graph is maintained by the storage layer).

    The result's ``cost`` is one unit per consistent pivot plus what each
    search step charged, and, with ``restrict_to_neighborhood``, the size of
    the extracted region.  Otherwise ``neighborhood_size`` is counted in
    ``G ⊕ ΔG`` when first read, so that snapshot must not be mutated before.
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    rule_list = list(rule_set)
    started = time.perf_counter()

    updated = graph_after if graph_after is not None else apply_update(graph, delta)
    hops = max(rule_set.diameter(), 1)

    search_before, search_after = graph, updated
    neighborhood_size: Optional[int] = None
    if restrict_to_neighborhood:
        region_before = update_neighborhood(graph, delta, hops)
        region_after = update_neighborhood(updated, delta, hops)
        neighborhood_size = max(region_before.total_size(), region_after.total_size())
        search_before, search_after = region_before, region_after
        if plans is not None:
            # session-cached plans were compiled against the whole graph; the
            # restricted regions have their own statistics, so recompile there
            plans = None
            if not isinstance(adaptive, (bool, type(None))):
                # caller-built controllers belong to the discarded plans
                adaptive = None

    # one plan per rule serves both expansion directions (the statistics of
    # G and G ⊕ ΔG differ by at most |ΔG|, well within estimate noise)
    plans = resolve_plans(search_after, rule_list, plans)
    controllers = resolve_adaptive(plans, adaptive)

    introduced = ViolationSet()
    removed = ViolationSet()
    # extracting the region up front is work this run did; on the default
    # path nothing outside what the search touches is charged
    run = SerialRun("IncDect", budget, sink, cost=float(neighborhood_size or 0))
    pivots_of = pivots_by_rule(rule_set, delta, search_before, search_after)

    for rule_index, rule in enumerate(rule_list):
        plan = plans[rule_index]
        controller = controllers[rule_index] if controllers is not None else None
        if run.cost_exhausted():
            break
        pivots = pivots_of[rule_index]
        if not pivots:
            continue
        with run.rule(rule.name):
            seeds = []
            for site, update in pivots:
                # insertion pivots are expanded in G ⊕ ΔG (ΔVio⁺), deletion pivots in G (ΔVio⁻)
                inserted = update.is_insertion
                search_graph, target = (search_after, introduced) if inserted else (search_before, removed)
                ids = site.ids(update)
                if not site.holds_in(search_graph.store, ids):
                    continue
                run.cost += 1.0
                seeds.append((search_graph, site.order(plan), ids, target, inserted))
            # the pivots are a stack: the last one's subtree is searched first
            seeds.reverse()
            search = rule_search(rule, plan, use_literal_pruning, run.stats, controller)
            yield from run.drain(search, seeds)
        if run.stop_reason is not None:
            break

    result = IncrementalDetectionResult(
        delta=ViolationDelta(introduced=introduced, removed=removed),
        stats=run.stats,
        wall_time=time.perf_counter() - started,
        cost=run.cost,
        processors=1,
        algorithm="IncDect",
        neighborhood_size=neighborhood_size,
        stopped_early=run.stop_reason is not None,
        stop_reason=run.stop_reason,
    )
    if neighborhood_size is None:
        result.measure_neighborhood_on_read(updated, delta.touched_nodes(), hops)
    return result


def inc_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    delta: BatchUpdate,
    use_literal_pruning: bool = True,
    restrict_to_neighborhood: bool = False,
    graph_after: Optional[Graph] = None,
) -> IncrementalDetectionResult:
    """Compute ΔVio(Σ, G, ΔG) with the update-driven sequential algorithm.

    Compatibility shim: equivalent to ``Detector(rules,
    engine="incremental").run_incremental(graph, delta, graph_after)``; new
    code should prefer the :class:`~repro.detect.session.Detector` session.
    """
    from repro.detect.session import DetectionOptions, Detector

    options = DetectionOptions(
        use_literal_pruning=use_literal_pruning,
        restrict_to_neighborhood=restrict_to_neighborhood,
    )
    detector = Detector(rules, engine="incremental", options=options)
    return detector.run_incremental(graph, delta, graph_after=graph_after)
