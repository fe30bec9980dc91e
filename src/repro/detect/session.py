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
    Always the batch kernel.  ``run_incremental`` computes ΔVio the
    ground-truth way — two full batch runs diffed — which is exactly the
    oracle the incremental algorithms are tested against.
``"incremental"``
    The update-driven kernel; supports only ``run_incremental`` /
    ``stream_incremental`` (a full run has no ΔG to localise around).
``"parallel"``
    The simulated-cluster kernels (PDect / PIncDect).

Streaming and early termination are native: the kernels are generators, so
:meth:`Detector.stream` yields each violation the moment its work unit
completes, sinks (:class:`~repro.detect.observers.ViolationSink`) observe
every run mode, and :class:`~repro.detect.observers.DetectionBudget` limits
(``max_violations`` / ``max_cost``) stop the kernels mid-search rather than
filtering afterwards.

The module-level functions ``dect`` / ``inc_dect`` / ``p_dect`` /
``pinc_dect`` remain as thin compatibility shims over this session.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import time
import weakref
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.core.ngd import NGD, RuleSet
from repro.core.violations import Violation, ViolationDelta
from repro.detect.base import EXECUTION_MODES, DetectionResult, IncrementalDetectionResult
from repro.detect.instrument import flush_step_counts
from repro.detect.observers import (
    DetectionBudget,
    FanOutSink,
    ViolationEvent,
    ViolationSink,
    drain,
    notify_finish,
    notify_start,
    notify_violation,
)
from repro.detect.parallel.balancing import BalancingPolicy
from repro.errors import SessionError
from repro.graph.graph import Graph
from repro.graph.store import STORE_REGISTRY
from repro.graph.updates import BatchUpdate, apply_update
from repro.matching.adaptive import CardinalityHistory, history_from_document, resolve_adaptive
from repro.matching.plan import MatchPlan, compile_plans, load_plans

if TYPE_CHECKING:  # pragma: no cover - the executor is imported when a process run asks for it
    from repro.detect.parallel.executor import WarmExecutorPool

__all__ = ["DetectionOptions", "Detector", "ENGINES", "EXECUTION_MODES"]

#: Process-wide identity tokens for graph stores: a warm-pool runtime key
#: must never alias two different stores the way a recycled ``id()`` can,
#: and must not keep dead stores alive the way a strong map would.
_STORE_TOKENS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_STORE_TOKEN_COUNTER = itertools.count(1)


def _store_token(store) -> Optional[int]:
    """Return a stable process-unique token for ``store`` (None: not weakref-able)."""
    try:
        token = _STORE_TOKENS.get(store)
        if token is None:
            token = next(_STORE_TOKEN_COUNTER)
            _STORE_TOKENS[store] = token
        return token
    except TypeError:  # pragma: no cover - store without weakref support
        return None

#: A session recompiles its plans once ``|V| + |E|`` has drifted by more than
#: this fraction from the graph they were compiled against.
PLAN_DRIFT_TOLERANCE = 0.2

#: The execution regimes a session can be pinned to.
ENGINES = ("auto", "batch", "incremental", "parallel")

#: Runs whose observed cost exceeds the planner's estimate by this factor
#: are logged to ``repro.detect.slowplan`` and counted in
#: ``repro_slow_plans_total`` (override with ``REPRO_SLOW_PLAN_RATIO``).
DEFAULT_SLOW_PLAN_RATIO = 25.0

_slow_plan_logger = logging.getLogger("repro.detect.slowplan")


def _slow_plan_ratio() -> float:
    raw = os.environ.get("REPRO_SLOW_PLAN_RATIO")
    if not raw:
        return DEFAULT_SLOW_PLAN_RATIO
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_SLOW_PLAN_RATIO


@dataclass(frozen=True)
class DetectionOptions:
    """Tuning knobs shared by every engine of a :class:`Detector` session.

    * ``use_literal_pruning`` — discard partial solutions that can no longer
      violate the dependency (Section 6.2's literal-driven pruning);
    * ``restrict_to_neighborhood`` — have IncDect materialise ``G_dΣ(ΔG)``
      up front to demonstrate locality explicitly;
    * ``policy`` — the :class:`BalancingPolicy` of the simulated cluster
      (parallel engines only; default: hybrid splitting + rebalancing);
    * ``max_violations`` / ``max_cost`` — early-termination budget, enforced
      inside the kernels (see :class:`DetectionBudget`).  The one mode that
      cannot honour a budget is ``engine="batch"`` incremental detection
      (the BatchDiff oracle: a capped batch run would make the diff
      unsound); a session configured that way raises :class:`SessionError`
      rather than silently running unbounded;
    * ``execution`` — how the parallel engine runs: ``"simulated"`` (the
      deterministic cluster simulator, cost = makespan) or ``"processes"``
      (real OS worker processes over a sharded store, cost = aggregate
      work, wall-clock in ``wall_time``).  ``engine="auto"`` resolves to
      the parallel engine whenever ``execution="processes"`` is asked for;
    * ``start_method`` — multiprocessing start method for
      ``execution="processes"`` (``None``: fork where available, the
      ``REPRO_EXECUTION_START_METHOD`` environment variable overrides);
    * ``adaptive`` — adaptive replanning from observed cardinalities
      (:mod:`repro.matching.adaptive`).  ``None`` (the default) defers to
      the ``REPRO_ADAPTIVE_REPLAN`` environment switch;
    * ``warm_pool`` — for ``execution="processes"``, keep the worker
      processes (and their loaded graph images) alive across this
      session's runs in a
      :class:`~repro.detect.parallel.executor.WarmExecutorPool` instead
      of spawning a fresh crew per run.  Close the session (``close()`` or
      the context-manager form) to stop the workers.

    Every engine runs compiled :class:`~repro.matching.plan.MatchPlan`\\ s
    (cost-based variable orders, closure-compiled literal schedules) on the
    one search core.
    """

    use_literal_pruning: bool = True
    restrict_to_neighborhood: bool = False
    policy: Optional[BalancingPolicy] = None
    max_violations: Optional[int] = None
    max_cost: Optional[float] = None
    execution: str = "simulated"
    start_method: Optional[str] = None
    adaptive: Optional[bool] = None
    warm_pool: bool = False

    def budget(self) -> Optional[DetectionBudget]:
        """Return the termination budget, or None when the run is unbounded."""
        if self.max_violations is None and self.max_cost is None:
            return None
        return DetectionBudget(max_violations=self.max_violations, max_cost=self.max_cost)


class Detector:
    """A reusable detection session: rules + engine + options + sinks.

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
        store: Optional[str] = None,
        options: Optional[DetectionOptions] = None,
        sinks: Iterable[ViolationSink] = (),
        plans_file: Optional[str] = None,
        executor_pool: Optional[WarmExecutorPool] = None,
    ) -> None:
        if engine not in ENGINES:
            raise SessionError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if store is not None and store not in STORE_REGISTRY:
            raise SessionError(
                f"unknown graph store {store!r}; expected one of {sorted(STORE_REGISTRY)}"
            )
        if processors is not None and processors < 1:
            raise SessionError(f"processors must be >= 1, got {processors}")
        self.rules = rules if isinstance(rules, RuleSet) else RuleSet(rules)
        self.engine = engine
        self.processors = processors
        self.store = store
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
        if self.options.warm_pool and self.options.execution != "processes":
            raise SessionError(
                "warm_pool keeps OS worker processes alive and therefore "
                "requires execution='processes'"
            )
        # a persisted plan set (matching.plan.save_plans, written next to its
        # rule catalog) pins this session's plans: loaded once lazily, reused
        # for every run, no statistics pass, no drift invalidation
        self.plans_file = plans_file
        self._file_plans: Optional[tuple[MatchPlan, ...]] = None
        self._sinks: list[ViolationSink] = list(sinks)
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
        # observed cardinalities harvested from this session's adaptive
        # controllers; folded into later compile_plans calls as priors and
        # persistable next to the plan document (save_plans(history=...))
        self.history = CardinalityHistory()
        # warm executor pool: injected (shared, e.g. the service's) or owned
        # (options.warm_pool); only the owned one is stopped by close()
        self._executor_pool = executor_pool
        self._owns_pool = False
        self._rules_digest: Optional[str] = None
        # (plan set, its summed root estimate): the trace root's plan_estimate,
        # summed once per plan set rather than once per run
        self._plan_estimate: Optional[tuple[Sequence[MatchPlan], float]] = None

    # ------------------------------------------------------------------ sinks

    def add_sink(self, sink: ViolationSink) -> "Detector":
        """Attach a sink (builder style); it observes every subsequent run."""
        self._sinks.append(sink)
        return self

    def _sink(self) -> Optional[ViolationSink]:
        if not self._sinks:
            return None
        if len(self._sinks) == 1:
            return self._sinks[0]
        return FanOutSink(self._sinks)

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
        if self.plans_file is not None:
            if self._file_plans is None:
                self._file_plans = load_plans(self.plans_file, self.rules)
                # a plan document may embed the cardinality history of the
                # runs that produced it; adopt it so this session's own
                # observations fold on top
                with open(self.plans_file, "r", encoding="utf-8") as handle:
                    embedded = history_from_document(json.load(handle))
                if embedded is not None:
                    self.history = embedded
            return self._file_plans
        size = graph.total_size()
        drift = abs(size - self.plan_size)
        if self._plans is not None and drift <= PLAN_DRIFT_TOLERANCE * max(self.plan_size, 1):
            return self._plans
        with obs.span("detect.compile_plans", store=graph.store_backend) as plan_span:
            plans = compile_plans(graph, self.rules, history=self.history if self.history else None)
            plan_span.set(plans=len(plans))
        self._plans, self.plan_size = plans, size
        self.plan_compilations += 1
        return plans

    def clear_plan_cache(self) -> None:
        """Drop the kept plans (the next run recompiles)."""
        self._plans = None

    def save_history(self, path: str) -> None:
        """Persist the session's observed-cardinality history as JSON."""
        self.history.save(path)

    # ------------------------------------------------------------ warm pooling

    def executor_pool(self) -> Optional[WarmExecutorPool]:
        """Return the session's warm executor pool, creating an owned one
        on first use when ``options.warm_pool`` asks for it."""
        if self._executor_pool is None and self.options.warm_pool:
            from repro.detect.parallel.executor import WarmExecutorPool

            self._executor_pool = WarmExecutorPool(
                self._effective_processors(), start_method=self.options.start_method
            )
            self._owns_pool = True
        return self._executor_pool

    def close(self) -> None:
        """Release session resources (the owned warm pool's workers)."""
        if self._owns_pool and self._executor_pool is not None:
            self._executor_pool.shutdown()

    def __enter__(self) -> "Detector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _runtime_key(self, graph: Graph, caller_plans: bool) -> Optional[tuple]:
        """Identify a batch runtime for warm-pool reuse, or None to force a miss.

        The key pins everything the workers' loaded runtime is a function
        of: the graph snapshot (store identity token + node/edge counts —
        graphs the session detects over are treated as immutable
        snapshots, which is how the registry publishes them) and this
        session's rules/flags.  Caller-supplied plans bypass the session's
        deterministic compile, so they force a reload.
        """
        token = _store_token(graph.store)
        if token is None or caller_plans:
            return None
        if self._rules_digest is None:
            self._rules_digest = hashlib.sha1(self.rules.to_json().encode("utf-8")).hexdigest()
        return (
            token,
            graph.node_count(),
            graph.edge_count(),
            self._rules_digest,
            self.options.use_literal_pruning,
            self.options.adaptive,
        )

    # ------------------------------------------------------------- resolution

    def _effective_processors(self) -> int:
        return self.processors if self.processors is not None else 8

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
        if self.engine == "auto":
            if self.options.execution == "processes":
                return "parallel"
            return "parallel" if (self.processors or 1) > 1 else "incremental"
        return self.engine

    def _prepare(self, graph: Graph) -> Graph:
        """Convert the input graph to the session's preferred storage backend."""
        if self.store is not None and graph.store_backend != self.store:
            return graph.with_backend(self.store)
        return graph

    # ------------------------------------------------------------------- runs

    def run(self, graph: Graph, plans: Optional[Sequence[MatchPlan]] = None) -> DetectionResult:
        """Compute ``Vio(Σ, G)`` (subject to the session's budget).

        ``plans`` overrides the session's compiled-plan cache (continuous
        sessions hand back the plans they compiled at an earlier version).
        """
        result = drain(self._traced_events(lambda: self._batch_events(graph, plans), "detect.run"))
        self._finish(result)
        return result

    def stream(
        self, graph: Graph, plans: Optional[Sequence[MatchPlan]] = None
    ) -> Iterator[Violation]:
        """Yield violations of ``Vio(Σ, G)`` as their work units complete.

        The same violations, in the same deterministic order, as the sinks
        observe during :meth:`run`; after exhaustion the full
        :class:`DetectionResult` is available as ``last_result``.
        """
        result = yield from self._traced_events(
            lambda: self._batch_events(graph, plans), "detect.run"
        )
        self._finish(result)

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
        self._finish(result)
        return result

    def stream_incremental(
        self,
        graph: Graph,
        delta: BatchUpdate,
        graph_after: Optional[Graph] = None,
        plans: Optional[Sequence[MatchPlan]] = None,
    ) -> Iterator[ViolationEvent]:
        """Yield :class:`ViolationEvent`\\ s of ΔVio(Σ, G, ΔG) as found."""
        result = yield from self._traced_events(
            lambda: self._incremental_events(graph, delta, graph_after, plans),
            "detect.run_incremental",
        )
        self._finish(result)

    # ------------------------------------------------------------- internals

    def _finish(self, result: DetectionResult | IncrementalDetectionResult) -> None:
        self.last_result = result
        notify_finish(self._sink(), result)

    def _traced_events(self, factory: Callable[[], Iterator], name: str):
        """Drive ``factory()``'s event stream under one root span.

        The root span becomes the contextvar-current span before the
        factory runs, so plan compilation and the kernels (which capture
        ``obs.current_span()`` at generator start) parent their spans —
        and hence the whole run's trace — under it.  On completion the
        result gains the ``trace_id`` and the run is counted and checked
        against the slow-plan threshold.  With observability off this is
        a plain pass-through.
        """
        if not obs.enabled():
            result = yield from factory()
            return result
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
            # the worker pool degraded to the serial path mid-run; the
            # violations are still exact but the trace should say so
            root.set(degraded=True)
        obs.counter_inc("repro_detect_runs_total", {"algorithm": result.algorithm})
        if result.stats.literal_evaluations:
            obs.counter_inc("repro_literal_evals_total", None, result.stats.literal_evaluations)
        estimate = root.attributes.get("plan_estimate")
        if isinstance(estimate, (int, float)) and estimate > 0:
            ratio = result.cost / estimate
            root.set(cost_ratio=round(ratio, 3))
            threshold = _slow_plan_ratio()
            if ratio >= threshold:
                obs.counter_inc("repro_slow_plans_total", {"algorithm": result.algorithm})
                _slow_plan_logger.warning(
                    "slow plan: %s run cost %.1f is %.1fx the planner estimate %.1f "
                    "(threshold %.1fx, trace %s)",
                    result.algorithm,
                    result.cost,
                    ratio,
                    estimate,
                    threshold,
                    root.trace_id,
                )

    def _annotate_root(self, mode: str, graph: Graph, plans) -> None:
        """Stamp run context onto the root span (no-op outside a traced run)."""
        root = obs.current_span()
        if root is None:
            return
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

    def _adaptive_argument(self, plans, processes: bool):
        """Resolve what the kernels receive as ``adaptive``.

        In-process kernels get session-built controllers (so the session
        can harvest their observations into ``history`` afterwards); the
        processes backend only gets the bool/None switch — controllers
        cannot cross the process boundary, workers build their own.
        """
        if processes:
            return self.options.adaptive
        if not plans:
            return self.options.adaptive
        resolved = resolve_adaptive(plans, self.options.adaptive)
        if resolved is None:
            return False
        return resolved

    def _harvesting(self, events, controllers):
        """Run ``events`` to completion, then fold controller observations."""
        result = yield from events
        self.history.fold_controllers(controllers)
        return result

    def _batch_events(
        self, graph: Graph, plans: Optional[Sequence[MatchPlan]] = None
    ) -> Iterator[Violation]:
        from repro.detect.dect import iter_dect

        mode = self._resolve_batch_engine()
        graph = self._prepare(graph)
        caller_plans = plans is not None
        if plans is None:
            plans = self.compile_plans(graph)
        sink = self._sink()
        budget = self.options.budget()
        notify_start(sink, self)
        self._annotate_root(mode, graph, plans)
        processes = mode == "parallel" and self.options.execution == "processes"
        adaptive = self._adaptive_argument(plans, processes)
        if mode == "batch":
            events = iter_dect(
                graph,
                self.rules,
                use_literal_pruning=self.options.use_literal_pruning,
                budget=budget,
                sink=sink,
                plans=plans,
                adaptive=adaptive,
            )
        else:
            from repro.detect.parallel.pdect import iter_p_dect

            pool = self.executor_pool() if processes else None
            events = iter_p_dect(
                graph,
                self.rules,
                processors=self._effective_processors(),
                policy=self.options.policy,
                use_literal_pruning=self.options.use_literal_pruning,
                budget=budget,
                sink=sink,
                plans=plans,
                execution=self.options.execution,
                start_method=self.options.start_method,
                adaptive=adaptive,
                warm_pool=pool,
                runtime_key=self._runtime_key(graph, caller_plans) if pool is not None else None,
            )
        if isinstance(adaptive, tuple):
            return self._harvesting(events, adaptive)
        return events

    def _incremental_events(
        self,
        graph: Graph,
        delta: BatchUpdate,
        graph_after: Optional[Graph],
        plans: Optional[Sequence[MatchPlan]] = None,
    ) -> Iterator[ViolationEvent]:
        from repro.detect.incdect import iter_inc_dect

        mode = self._resolve_incremental_engine()
        graph = self._prepare(graph)
        if graph_after is not None:
            graph_after = self._prepare(graph_after)
        if plans is None and mode in ("incremental", "parallel"):
            # plans are compiled against G ⊕ ΔG when it is already
            # materialised (the service always hands it over); otherwise
            # against G — the statistics differ by at most |ΔG|
            plans = self.compile_plans(graph_after if graph_after is not None else graph)
        sink = self._sink()
        budget = self.options.budget()
        notify_start(sink, self)
        self._annotate_root(mode, graph, plans)
        processes = mode == "parallel" and self.options.execution == "processes"
        adaptive = self._adaptive_argument(plans, processes)
        if mode == "incremental":
            events = iter_inc_dect(
                graph,
                self.rules,
                delta,
                use_literal_pruning=self.options.use_literal_pruning,
                restrict_to_neighborhood=self.options.restrict_to_neighborhood,
                graph_after=graph_after,
                budget=budget,
                sink=sink,
                plans=plans,
                adaptive=adaptive,
            )
            if isinstance(adaptive, tuple):
                return self._harvesting(events, adaptive)
            return events
        if mode == "parallel":
            from repro.detect.parallel.pincdect import iter_pinc_dect

            events = iter_pinc_dect(
                graph,
                self.rules,
                delta,
                processors=self._effective_processors(),
                policy=self.options.policy,
                use_literal_pruning=self.options.use_literal_pruning,
                graph_after=graph_after,
                budget=budget,
                sink=sink,
                plans=plans,
                execution=self.options.execution,
                start_method=self.options.start_method,
                adaptive=adaptive,
                warm_pool=self.executor_pool() if processes else None,
            )
            if isinstance(adaptive, tuple):
                return self._harvesting(events, adaptive)
            return events
        if budget is not None:
            raise SessionError(
                "engine='batch' incremental detection (BatchDiff) cannot honour "
                "a DetectionBudget: capping either full batch run would make the "
                "diff unsound; drop max_violations/max_cost or use "
                "engine='incremental'/'parallel'"
            )
        return self._batch_diff_events(graph, delta, graph_after, sink, plans)

    def _batch_diff_events(
        self,
        graph: Graph,
        delta: BatchUpdate,
        graph_after: Optional[Graph],
        sink: Optional[ViolationSink],
        plans: Optional[Sequence[MatchPlan]] = None,
    ) -> Iterator[ViolationEvent]:
        """Ground-truth incremental mode for ``engine="batch"``.

        Runs the batch kernel on ``G`` and ``G ⊕ ΔG`` and diffs the two
        violation sets — exactly the oracle the incremental algorithms are
        validated against in the tests.  Budgets are rejected upstream in
        :meth:`_incremental_events` (a capped batch run would make the diff
        unsound); events stream only after the second run completes.  Each
        batch run receives its own plans (explicit ``plans`` serve both
        graphs).
        """
        from repro.detect.dect import iter_dect

        started = time.perf_counter()
        updated = graph_after if graph_after is not None else apply_update(graph, delta)
        if plans is None:
            before_plans = self.compile_plans(graph)
            after_plans = self.compile_plans(updated)
        else:
            before_plans = after_plans = plans
        before = drain(iter_dect(graph, self.rules, self.options.use_literal_pruning, plans=before_plans))
        after = drain(iter_dect(updated, self.rules, self.options.use_literal_pruning, plans=after_plans))
        violation_delta = ViolationDelta.from_sets(before.violations, after.violations)
        stats = before.stats
        stats.merge(after.stats)
        result = IncrementalDetectionResult(
            delta=violation_delta,
            stats=stats,
            wall_time=time.perf_counter() - started,
            cost=before.cost + after.cost,
            processors=1,
            algorithm="BatchDiff",
        )
        for violation in sorted(violation_delta.introduced, key=str):
            notify_violation(sink, violation, introduced=True)
            yield ViolationEvent(violation, introduced=True)
        for violation in sorted(violation_delta.removed, key=str):
            notify_violation(sink, violation, introduced=False)
            yield ViolationEvent(violation, introduced=False)
        return result
