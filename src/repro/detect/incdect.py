"""``IncDect``: the sequential, localizable incremental detection algorithm.

Section 6.2.  Given a graph ``G``, a rule set Σ and a batch update ΔG,
IncDect computes ΔVio(Σ, G, ΔG) by update-driven evaluation:

1. For every rule and every unit update, build the *update pivots*: partial
   solutions mapping a pattern edge onto the updated data edge, and the
   variable of a pattern component with no edge onto a node the update
   introduces (a *node pivot*, searched in ``G ⊕ ΔG``).
2. Expand each pivot with the same backtracking expansion as ``Matchn``,
   restricted to the pivot's neighbourhood — insertion pivots in ``G ⊕ ΔG``
   (candidates for ΔVio⁺), deletion pivots in ``G`` (candidates for ΔVio⁻).
3. Literal-driven pruning discards partial solutions that can no longer
   produce a violation.

The algorithm is *localizable*: the nodes it ever touches lie within the
dΣ-neighbourhood of the endpoints of ΔG, so its cost is
``O(|Σ| · |G_dΣ(ΔG)|^|Σ|)`` independently of |G|.  It runs the plans it is
given in ``G`` and ``G ⊕ ΔG`` themselves: the pivots keep the search inside
``G_dΣ(ΔG)``, so that region is never extracted.

The pivots of all of Σ come from one pass over ΔG
(:func:`~repro.matching.incmatch.pivots_by_rule`), are proven where they are
made (:func:`~repro.matching.incmatch.pivot_seeds`) and seed the search core
of :mod:`repro.matching.search` directly, each searched by the generated
driver of the depth its prefix reaches, through the drain Dect searches its
seeds with (:class:`~repro.detect.serial.SerialRun`), and charged per step
what the parallel kernels charge.  The reported ``cost`` is what the
search touched — one unit per pivot that passes ``holds_in``, refused by its
literals or not, plus the charged steps — in the units of the simulated
parallel makespans, making
PIncDect's relative parallel scalability (Theorem 6) directly observable in
the benchmarks.  The size of
``G_dΣ(ΔG)``, ``neighborhood_size``, is one BFS run when the result is first
asked for it.

:func:`iter_inc_dect` is the kernel: a generator yielding a
:class:`~repro.detect.observers.ViolationEvent` (violation + ΔVio⁺/ΔVio⁻
direction) per finding, with budget-capped early termination.  Callers reach
it through the :class:`~repro.detect.session.Detector` session
(``engine="incremental"``, :meth:`~repro.detect.session.Detector.run_incremental`).
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from typing import Optional

from repro.core.ngd import NGD, RuleSet
from repro.core.violations import ViolationDelta, ViolationSet
from repro.detect.base import IncrementalDetectionResult
from repro.detect.observers import DetectionBudget, ViolationEvent
from repro.detect.serial import SerialRun
from repro.graph.graph import Graph
from repro.graph.updates import BatchUpdate, apply_update
from repro.matching.incmatch import pivot_seeds, pivots_by_rule
from repro.matching.plan import MatchPlan, resolve_plans
from repro.matching.search import RuleSearch

__all__ = ["iter_inc_dect"]


def iter_inc_dect(
    graph: Graph,
    rules: RuleSet | list[NGD],
    delta: BatchUpdate,
    graph_after: Optional[Graph] = None,
    budget: Optional[DetectionBudget] = None,
    plans: Optional[Sequence[MatchPlan]] = None,
) -> Iterator[ViolationEvent]:
    """Run incremental detection, yielding each ΔVio event as it is confirmed.

    Yields :class:`ViolationEvent` objects (``introduced=True`` for ΔVio⁺,
    ``False`` for ΔVio⁻); the generator's return value is the
    :class:`IncrementalDetectionResult`.  ``graph_after`` may be supplied
    when the caller has already materialised ``G ⊕ ΔG`` (the experiment
    harness reuses it across algorithms); otherwise it is computed here, and
    its construction is not charged to the algorithm's cost (the paper
    likewise assumes the updated graph is maintained by the storage layer).

    The result's ``cost`` is one unit per pivot that passes ``holds_in``,
    refused by its literals or not, plus what each search step charged.
    ``neighborhood_size`` is counted in ``G ⊕ ΔG`` when
    first read, so that snapshot must not be written in place before (a copy
    of it may be).
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    started = time.perf_counter()

    updated = graph_after if graph_after is not None else apply_update(graph, delta)

    # one plan per rule serves both expansion directions (the statistics of
    # G and G ⊕ ΔG differ by at most |ΔG|, well within estimate noise)
    plans = resolve_plans(updated, list(rule_set), plans)

    introduced = ViolationSet()
    removed = ViolationSet()
    # nothing outside what the search touches is charged
    run = SerialRun("IncDect", True, budget)
    pivots_of = pivots_by_rule(rule_set, delta, graph, updated)

    def graph_for(inserted: bool) -> Graph:
        # insertion pivots are expanded in G ⊕ ΔG (ΔVio⁺), deletion pivots in G (ΔVio⁻)
        return updated if inserted else graph

    try:
        for plan, pivots in zip(plans, pivots_of):
            if run.cost_exhausted():
                break
            if not pivots:
                continue
            with run.rule(plan.rule.name):
                consistent, seeds = pivot_seeds(plan, pivots, graph_for, run.stats)
                run.cost += consistent
                search = RuleSearch(plan, run.stats)
                # the pivots are a stack: the last one's subtree is searched first
                seeds = [(search, order, ids, inserted) for order, ids, inserted in reversed(seeds)]
                yield from run.drain(seeds, graph_for, (introduced, removed))
            if run.stop_reason is not None:
                break
    finally:
        run.flush()
    result = IncrementalDetectionResult(
        delta=ViolationDelta(introduced=introduced, removed=removed),
        wall_time=time.perf_counter() - started,
        processors=1,
        algorithm="IncDect",
        **run.outcome(),
    )
    result.measure_neighborhood_on_read(updated, delta.touched_nodes(), max(rule_set.diameter(), 1))
    return result
