"""The unified detection session API.

The paper's four algorithms — Dect, IncDect, PDect, PIncDect — are one
conceptual operation, "find ``Vio(Σ, G)``", under different execution
regimes (batch vs update-driven, one processor vs a simulated cluster).
:class:`Detector` makes that explicit: construct a session once from a rule
set, an *engine* and :class:`DetectionOptions`, then point it at graphs::

    from repro import Detector, DetectionOptions
    from repro.core import example_rules

    detector = Detector(example_rules(), engine="auto",
                        options=DetectionOptions(max_violations=10))
    result = detector.run(graph)                  # full (capped) batch run
    for violation in detector.stream(graph):      # violations as found
        print(violation)
    delta = detector.run_incremental(graph, dg)   # ΔVio(Σ, G, ΔG)

Engines
-------

``"auto"``
    Pick per call: one processor → the sequential kernels (Dect / IncDect);
    ``processors > 1`` → the simulated-cluster kernels (PDect / PIncDect).
``"batch"``
    The batch kernel; supports only ``run`` / ``stream`` (it has no ΔG to
    localise around).
``"incremental"``
    The update-driven kernel; supports only ``run_incremental`` /
    ``stream_incremental`` (a full run has no ΔG to localise around).
``"parallel"``
    The simulated-cluster kernels (PDect / PIncDect).

Streaming and early termination are native: the kernels are generators, so
:meth:`Detector.stream` yields each violation the moment its work unit
completes — the one way out, which ``run`` drains — and
:class:`~repro.detect.observers.DetectionBudget` limits (``max_violations`` /
``max_cost`` / ``timeout_seconds``) stop the kernels mid-search rather than
filtering afterwards.
The session is the one way in: the CLI, the service and the examples all
construct a :class:`Detector`; only the problem statements of
:mod:`repro.core.validation` drain the batch kernel without one.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs
from repro.core.ngd import NGD, RuleSet
from repro.core.violations import Violation
from repro.detect.base import EXECUTION_MODES, DetectionResult, IncrementalDetectionResult
from repro.detect.instrument import flush_step_counts
from repro.detect.observers import DetectionBudget, ViolationEvent, drain
from repro.detect.parallel.balancing import BalancingPolicy
from repro.errors import SessionError
from repro.graph.graph import Graph
from repro.graph.updates import BatchUpdate
from repro.matching.plan import MatchPlan, compile_plans

__all__ = ["DetectionOptions", "Detector", "ENGINES", "EXECUTION_MODES"]

#: A session recompiles its plans once ``|V| + |E|`` has drifted by more than
#: this fraction from the graph they were compiled against.
PLAN_DRIFT_TOLERANCE = 0.2

#: The execution regimes a session can be pinned to.
ENGINES = ("auto", "batch", "incremental", "parallel")

#: The processor count of a parallel run whose session names none.
DEFAULT_PROCESSORS = 8

#: Runs whose observed cost exceeds the planner's estimate by this factor
#: are logged to ``repro.detect.slowplan`` and counted in
#: ``repro_slow_plans_total``.
DEFAULT_SLOW_PLAN_RATIO = 25.0

_slow_plan_logger = logging.getLogger("repro.detect.slowplan")


@dataclass(frozen=True)
class DetectionOptions:
    """Tuning knobs shared by every engine of a :class:`Detector` session.

    * ``policy`` — the :class:`BalancingPolicy` of the simulated cluster
      (parallel engines only; default: hybrid splitting + rebalancing);
    * ``max_violations`` / ``max_cost`` — early-termination budget, enforced
      inside the kernels (see :class:`DetectionBudget`);
    * ``execution`` — how the parallel engine runs: ``"simulated"`` (the
      deterministic cluster simulator, cost = makespan) or ``"processes"``
      (real OS worker processes, each reading one image of the graph it
      searches; cost = aggregate work, wall-clock in ``wall_time``).  The
      workers fork while the parent is single-threaded and spawn otherwise
      (:func:`~repro.detect.parallel.executor.resolve_start_method`), with
      the same answer and the same counts either way.  ``engine="auto"``
      resolves to the parallel engine whenever ``execution="processes"``
      is asked for.  Every run starts its own workers and stops them
      before it returns;
    * ``timeout_seconds`` — a deadline, counted from the start of each run
      (plan compilation included) and enforced inside the kernels like the
      other limits: the run stops with ``stop_reason="deadline"``.  A
      session without one builds no budget for it.

    Every engine runs compiled :class:`~repro.matching.plan.MatchPlan`\\ s
    (cost-based variable orders, generated literal schedules) on the
    one search core, each in the order it was compiled with: one plan per
    run, which IncDect runs in ``G`` and ``G ⊕ ΔG`` themselves.  Every
    engine applies Section 6.2's literal-driven pruning: a partial solution
    that can no longer violate the dependency is discarded.
    """

    policy: Optional[BalancingPolicy] = None
    max_violations: Optional[int] = None
    max_cost: Optional[float] = None
    execution: str = "simulated"
    timeout_seconds: Optional[float] = None

    def budget(self) -> Optional[DetectionBudget]:
        """Return a run's termination budget, its deadline counted from now; None when unbounded."""
        timeout = self.timeout_seconds
        if self.max_violations is None and self.max_cost is None and timeout is None:
            return None
        if timeout is not None and not 0 < timeout < math.inf:
            raise SessionError(f"timeout_seconds must be a finite number > 0, got {timeout}")
        return DetectionBudget(
            max_violations=self.max_violations,
            max_cost=self.max_cost,
            deadline=time.monotonic() + timeout if timeout is not None else None,
        )


class Detector:
    """A reusable detection session: rules + engine + options.

    The session owns no graph: pass one to each :meth:`run` /
    :meth:`run_incremental` / :meth:`stream` call and reuse the session
    across graphs, deltas, and sweeps.  ``last_result`` keeps the result
    object of the most recently *completed* run (streams set it when the
    generator is exhausted).
    """

    def __init__(
        self,
        rules: RuleSet | list[NGD] | Iterable[NGD],
        engine: str = "auto",
        processors: Optional[int] = None,
        options: Optional[DetectionOptions] = None,
    ) -> None:
        if engine not in ENGINES:
            raise SessionError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if processors is not None and processors < 1:
            raise SessionError(f"processors must be >= 1, got {processors}")
        self.rules = rules if isinstance(rules, RuleSet) else RuleSet(rules)
        self.engine = engine
        self.processors = processors
        self.options = options if options is not None else DetectionOptions()
        if self.options.execution not in EXECUTION_MODES:
            raise SessionError(
                f"unknown execution mode {self.options.execution!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        if self.options.execution == "processes" and engine in ("batch", "incremental"):
            raise SessionError(
                f"execution='processes' runs the parallel kernels; engine={engine!r} "
                "is single-process by definition — use engine='auto' or 'parallel' "
                "(or drop execution='processes')"
            )
        self.last_result: Optional[DetectionResult | IncrementalDetectionResult] = None
        # the last compiled plan set, kept across snapshots: ``apply_update``
        # returns a new store per ΔG, and any plan over this session's rules
        # is a valid execution order on any graph, so the plans follow the
        # graph until its size leaves PLAN_DRIFT_TOLERANCE of ``plan_size``
        self._plans: Optional[tuple[MatchPlan, ...]] = None
        #: ``|V| + |E|`` of the graph the kept plans were compiled against.
        self.plan_size = 0
        #: How many times this session has compiled its plans.
        self.plan_compilations = 0
        # (plan set, its summed root estimate): the trace root's plan_estimate,
        # summed once per plan set rather than once per run
        self._plan_estimate: Optional[tuple[Sequence[MatchPlan], float]] = None

    # ------------------------------------------------------------------ plans

    def compile_plans(self, graph: Graph) -> tuple[MatchPlan, ...]:
        """Compile (or fetch cached) :class:`MatchPlan`\\ s for this session's rules.

        The session keeps its last plan set and compiles again only when
        ``graph.total_size()`` has drifted by more than
        :data:`PLAN_DRIFT_TOLERANCE` from the graph those plans were compiled
        against (counted in ``plan_compilations``), so a stream of
        ``run_incremental(G, ΔG)`` calls — each on the new store
        ``apply_update`` returned — pays for statistics and plans once, as a
        caller passing ``plans=`` does.
        """
        size = graph.total_size()
        drift = abs(size - self.plan_size)
        if self._plans is not None and drift <= PLAN_DRIFT_TOLERANCE * max(self.plan_size, 1):
            return self._plans
        with obs.span("detect.compile_plans", store=graph.store_backend) as plan_span:
            plans = compile_plans(graph, self.rules)
            plan_span.set(plans=len(plans))
        self._plans, self.plan_size = plans, size
        self.plan_compilations += 1
        return plans

    # ------------------------------------------------------------- resolution

    def _effective_processors(self) -> int:
        return self.processors if self.processors is not None else DEFAULT_PROCESSORS

    def _resolve_batch_engine(self) -> str:
        if self.engine == "incremental":
            raise SessionError(
                "engine='incremental' performs update-driven detection only; "
                "call run_incremental(graph, delta) or construct the Detector "
                "with engine='auto'/'batch' for full runs"
            )
        if self.engine == "auto":
            if self.options.execution == "processes":
                return "parallel"
            return "parallel" if (self.processors or 1) > 1 else "batch"
        return self.engine

    def _resolve_incremental_engine(self) -> str:
        if self.engine == "batch":
            raise SessionError(
                "engine='batch' performs full runs only; call run(graph) or "
                "construct the Detector with engine='auto'/'incremental' for "
                "update-driven detection"
            )
        if self.engine == "auto":
            if self.options.execution == "processes":
                return "parallel"
            return "parallel" if (self.processors or 1) > 1 else "incremental"
        return self.engine

    # ------------------------------------------------------------------- runs

    def run(self, graph: Graph, plans: Optional[Sequence[MatchPlan]] = None) -> DetectionResult:
        """Compute ``Vio(Σ, G)`` (subject to the session's budget).

        ``plans`` overrides the session's compiled-plan cache: a caller that
        holds plans compiled for these rules (pinned to an order with
        ``MatchPlan(rule, statistics, order)``, say) runs them as they are.
        """
        result = drain(self._traced_events(lambda: self._batch_events(graph, plans), "detect.run"))
        self.last_result = result
        return result

    def stream(
        self, graph: Graph, plans: Optional[Sequence[MatchPlan]] = None
    ) -> Iterator[Violation]:
        """Yield violations of ``Vio(Σ, G)`` as their work units complete.

        The same violations, in the same deterministic order, as :meth:`run`
        finds; after exhaustion the full :class:`DetectionResult` is
        available as ``last_result``.
        """
        self.last_result = yield from self._traced_events(
            lambda: self._batch_events(graph, plans), "detect.run"
        )

    def run_incremental(
        self,
        graph: Graph,
        delta: BatchUpdate,
        graph_after: Optional[Graph] = None,
        plans: Optional[Sequence[MatchPlan]] = None,
    ) -> IncrementalDetectionResult:
        """Compute ΔVio(Σ, G, ΔG) (subject to the session's budget).

        ``graph_after`` may be supplied when ``G ⊕ ΔG`` is already
        materialised; otherwise it is computed (uncharged, as the paper
        assumes the storage layer maintains it).
        """
        result = drain(
            self._traced_events(
                lambda: self._incremental_events(graph, delta, graph_after, plans),
                "detect.run_incremental",
            )
        )
        self.last_result = result
        return result

    def stream_incremental(
        self,
        graph: Graph,
        delta: BatchUpdate,
        graph_after: Optional[Graph] = None,
        plans: Optional[Sequence[MatchPlan]] = None,
    ) -> Iterator[ViolationEvent]:
        """Yield :class:`ViolationEvent`\\ s of ΔVio(Σ, G, ΔG) as found."""
        self.last_result = yield from self._traced_events(
            lambda: self._incremental_events(graph, delta, graph_after, plans),
            "detect.run_incremental",
        )

    # ------------------------------------------------------------- internals

    def _traced_events(self, factory: Callable[[], Iterator], name: str):
        """Drive ``factory()``'s event stream under one root span.

        The root span becomes the contextvar-current span before the
        factory runs, so plan compilation and the kernels (which capture
        ``obs.current_span()`` at generator start) parent their spans —
        and hence the whole run's trace — under it.  On completion the
        result gains the ``trace_id`` and the run is counted and checked
        against the slow-plan threshold.
        """
        enclosing = obs.current_span_var.get()
        if enclosing is not None:
            # e.g. the service's per-job span: the whole run joins its trace
            root = obs.Span(
                name, trace_id=enclosing.trace_id, parent_id=enclosing.span_id
            )
        else:
            root = obs.Span(name)
        token = obs.current_span_var.set(root)
        try:
            result = yield from factory()
            result.trace_id = root.trace_id
            self._note_run(root, result)
        except BaseException as exc:
            root.set(error=type(exc).__name__)
            raise
        finally:
            try:
                obs.current_span_var.reset(token)
            except ValueError:  # consumer resumed the stream from another context
                pass
            root.finish()
            obs.recorder().record(root)
        return result

    def _note_run(
        self, root: obs.Span, result: DetectionResult | IncrementalDetectionResult
    ) -> None:
        """Close out a traced run: root-span attributes, counters, slow-plan check."""
        flush_step_counts(result.stats)
        if isinstance(result, IncrementalDetectionResult):
            changes = result.total_changes()
        else:
            changes = result.violation_count()
        root.set(
            algorithm=result.algorithm,
            cost=round(result.cost, 6),
            violations=changes,
            processors=result.processors,
        )
        if getattr(result, "degraded", False):
            # a process run finished seeds on the serial path; the
            # violations are still exact but the trace should say so
            root.set(degraded=True)
        obs.counter_inc("repro_detect_runs_total", {"algorithm": result.algorithm})
        if result.stats.literal_evaluations:
            obs.counter_inc("repro_literal_evals_total", None, result.stats.literal_evaluations)
        estimate = root.attributes.get("plan_estimate")
        # a simulated parallel run's cost is its makespan, latency terms
        # included: not in the planner's work units, so not compared with them
        simulated = bool(result.worker_traces) and self.options.execution == "simulated"
        if not simulated and isinstance(estimate, (int, float)) and estimate > 0:
            ratio = result.cost / estimate
            root.set(cost_ratio=round(ratio, 3))
            if ratio >= DEFAULT_SLOW_PLAN_RATIO:
                obs.counter_inc("repro_slow_plans_total", {"algorithm": result.algorithm})
                _slow_plan_logger.warning(
                    "slow plan: %s run cost %.1f is %.1fx the planner estimate %.1f "
                    "(threshold %.1fx, trace %s)",
                    result.algorithm,
                    result.cost,
                    ratio,
                    estimate,
                    DEFAULT_SLOW_PLAN_RATIO,
                    root.trace_id,
                )

    def _annotate_root(self, mode: str, graph: Graph, plans) -> None:
        """Stamp run context onto the root span :meth:`_traced_events` opened."""
        root = obs.current_span()
        root.set(
            mode=mode,
            execution=self.options.execution,
            store=graph.store_backend,
            nodes=graph.node_count(),
            edges=graph.edge_count(),
        )
        if plans:
            memo = self._plan_estimate
            if memo is None or memo[0] is not plans:
                estimate = round(sum(plan.estimated_unit_cost(0) for plan in plans), 3)
                memo = self._plan_estimate = (plans, estimate)
            root.set(plan_estimate=memo[1])

    def _batch_events(
        self, graph: Graph, plans: Optional[Sequence[MatchPlan]] = None
    ) -> Iterator[Violation]:
        from repro.detect.dect import iter_dect

        mode = self._resolve_batch_engine()
        budget = self.options.budget()
        if plans is None:
            plans = self.compile_plans(graph)
        self._annotate_root(mode, graph, plans)
        if mode == "batch":
            return iter_dect(graph, self.rules, budget=budget, plans=plans)
        from repro.detect.parallel.pdect import iter_p_dect

        return iter_p_dect(
            graph,
            self.rules,
            processors=self._effective_processors(),
            policy=self.options.policy,
            budget=budget,
            plans=plans,
            execution=self.options.execution,
        )

    def _incremental_events(
        self,
        graph: Graph,
        delta: BatchUpdate,
        graph_after: Optional[Graph],
        plans: Optional[Sequence[MatchPlan]] = None,
    ) -> Iterator[ViolationEvent]:
        from repro.detect.incdect import iter_inc_dect

        mode = self._resolve_incremental_engine()
        budget = self.options.budget()
        if plans is None:
            # plans are compiled against G ⊕ ΔG when it is already
            # materialised (the service always hands it over); otherwise
            # against G — the statistics differ by at most |ΔG|
            plans = self.compile_plans(graph_after if graph_after is not None else graph)
        self._annotate_root(mode, graph, plans)
        if mode == "incremental":
            return iter_inc_dect(
                graph, self.rules, delta, graph_after=graph_after, budget=budget, plans=plans
            )
        from repro.detect.parallel.pincdect import iter_pinc_dect

        return iter_pinc_dect(
            graph,
            self.rules,
            delta,
            processors=self._effective_processors(),
            policy=self.options.policy,
            graph_after=graph_after,
            budget=budget,
            plans=plans,
            execution=self.options.execution,
        )
