"""Real multi-process execution of detection work units.

The :class:`~repro.detect.parallel.cluster.ClusterSimulator` reproduces the
paper's *scheduling* behaviour deterministically but executes every work
unit serially — ``processors=N`` only divides virtual clocks.  This module
is the wall-clock counterpart: ``execution="processes"`` runs the same
:func:`~repro.detect.parallel.workunits.expand_work_unit` kernel inside N
OS processes, so N cores really do N expansions at once.  The simulator is
retained as the deterministic cost-model oracle; this backend is measured
(``benchmarks/bench_parallel_speedup.py``), not modeled.

Execution model
---------------

* The **parent** owns the full graph(s).  It computes the seed work units
  exactly as the simulated kernels do (first-variable candidates for
  PDect, update pivots for PIncDect), then places them on workers — by the
  shard that owns the seed node when the run is sharded, else on the
  least-loaded worker by the compiled plan's ``estimated_unit_cost``.
* Each **worker process** owns a LIFO stack of work units and expands them
  depth-first against a read-only graph image from a
  :class:`~repro.graph.sharded.ShardedStore` — inherited copy-on-write
  under the ``fork`` start method, spooled once and memo-loaded per
  process under ``spawn``.  Children of a unit stay on the worker that
  produced them; violations stream back over the shared result queue the
  moment their unit completes, so the parent generator yields (and
  notifies :class:`~repro.detect.observers.ViolationSink`\\ s) while
  workers are still searching.
* **Balancing** uses the same :class:`BalancingPolicy` thresholds as the
  simulator: workers piggyback queue lengths on every report, the parent
  computes the η/η′ skewness test and tells overloaded workers to shed
  their oldest (shallowest, largest-subtree) units, which are re-placed on
  the emptiest workers.  The monitoring cadence is wall-clock here
  (``REBALANCE_PERIOD_SECONDS``) — the simulator's ``intvl`` is in virtual
  work units and has no wall-clock meaning.  Work-unit *splitting* has no
  process-pool analogue: a unit's children are themselves units, so the
  shed/steal path already parallelises a hot subtree.
* **Budgets** are enforced in the parent (the only place the global
  violation count and aggregate cost exist): when a
  :class:`~repro.detect.observers.DetectionBudget` trips, a shared Event
  tells every worker to drop its pending stack, and the run reports
  ``stopped_early`` exactly like the simulated kernels.  Cancellation is
  prompt (workers poll the event between expansions) but asynchronous —
  a capped run does strictly less work, not a deterministic prefix.

The ``cost`` of a process run is the *aggregate* work performed (the sum
of the per-unit filtering + verification charges, same units as the
sequential kernels), not a simulated makespan — real wall-clock lives in
``wall_time``.  Violations are byte-identical to the serial and simulated
paths; per-unit cost counters can differ on sharded runs because border
nodes have truncated adjacency (see :mod:`repro.graph.sharded`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import shutil
import threading
import time
import traceback
import weakref
from collections.abc import Callable, Hashable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import obs
from repro.core.ngd import NGD, RuleSet
from repro.core.violations import Violation
from repro.detect.base import EXECUTION_MODES, WorkerTrace
from repro.detect.instrument import RuleAttribution
from repro.detect.observers import DetectionBudget, ViolationSink, notify_violation
from repro.detect.parallel.balancing import BalancingPolicy, plan_rebalancing, skewness
from repro.detect.parallel.workunits import WorkUnit, expand_work_unit
from repro.errors import ExecutionError, WorkerPoolCollapse
from repro.graph.sharded import ShardedStore
from repro.matching.adaptive import resolve_adaptive
from repro.matching.candidates import MatchStatistics
from repro.matching.plan import MatchPlan, plans_from_document, plans_to_document
from repro.testing.faults import resolve_fault_plan

__all__ = [
    "EXECUTION_MODES",
    "START_METHOD_ENV",
    "WORKER_RESTARTS_ENV",
    "UNIT_RETRIES_ENV",
    "HEARTBEAT_PERIOD_ENV",
    "HEARTBEAT_TIMEOUT_ENV",
    "SHUTDOWN_GRACE_ENV",
    "DEFAULT_IDLE_TTL_SECONDS",
    "resolve_start_method",
    "ExecutionRuntime",
    "ProcessRunSummary",
    "WarmExecutorPool",
    "iter_process_execution",
    "drain_units_serially",
    "fault_tolerance_counters",
    "note_degraded_run",
]

#: Environment override for the multiprocessing start method
#: (``fork`` shares images copy-on-write; ``spawn`` loads spooled images).
START_METHOD_ENV = "REPRO_EXECUTION_START_METHOD"

#: Parent-side minimum wall-clock seconds between skewness checks.
REBALANCE_PERIOD_SECONDS = 0.05

#: Workers report queue length / cost at least every this many expansions.
STATUS_EVERY_EXPANSIONS = 64

#: Workers poll their inbox / the stop event every this many expansions
#: while they still hold work (responsiveness vs per-expansion overhead).
POLL_EVERY_EXPANSIONS = 16

#: Parent-side wait for worker messages before liveness checks.
RESULT_POLL_SECONDS = 0.25

#: How long the parent waits for workers to acknowledge ``exit`` before
#: terminating them (generous: a worker finishes at most one expansion).
#: Override with ``REPRO_SHUTDOWN_GRACE`` (the env name below).
SHUTDOWN_GRACE_SECONDS = 10.0

#: Environment override for the shutdown grace period (seconds).
SHUTDOWN_GRACE_ENV = "REPRO_SHUTDOWN_GRACE"

#: A :class:`WarmExecutorPool` crew untouched for this long is torn down by
#: the next :meth:`~WarmExecutorPool.maintain` call.
DEFAULT_IDLE_TTL_SECONDS = 300.0

#: How many dead workers one run may respawn before survivors absorb the
#: load (and, with no survivors left, the run degrades to the serial path).
WORKER_RESTARTS_ENV = "REPRO_WORKER_RESTARTS"
DEFAULT_WORKER_RESTARTS = 2

#: How many times one work unit may be re-shipped after worker deaths
#: before it is quarantined as poison (finished serially in the parent,
#: where a worker-killing fault cannot follow it).
UNIT_RETRIES_ENV = "REPRO_UNIT_RETRIES"
DEFAULT_UNIT_RETRIES = 2

#: Workers send a heartbeat when no other message has gone out for this
#: long; ``0`` disables heartbeats (used by the overhead benchmark).
HEARTBEAT_PERIOD_ENV = "REPRO_WORKER_HEARTBEAT_PERIOD"
DEFAULT_HEARTBEAT_PERIOD_SECONDS = 1.0

#: A live, non-idle worker silent for this long is presumed wedged: the
#: parent kills it (terminate, then SIGKILL) and recovers its units just
#: like a death.  Generous by default — recovery is correct either way,
#: so a false positive only costs duplicated (deduplicated) work.
HEARTBEAT_TIMEOUT_ENV = "REPRO_WORKER_HEARTBEAT_TIMEOUT"
DEFAULT_HEARTBEAT_TIMEOUT_SECONDS = 30.0


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


# Process-wide fault-tolerance tallies surfaced by the service's /health
# endpoint.  Plain locked integers, deliberately independent of the obs
# registry: supervision telemetry must survive REPRO_OBS=off.
_FT_LOCK = threading.Lock()
_FT_COUNTERS = {"worker_restarts": 0, "units_retried": 0, "degraded_runs": 0}


def fault_tolerance_counters() -> dict:
    """Snapshot of this process's supervision tallies (for ``/health``)."""
    with _FT_LOCK:
        return dict(_FT_COUNTERS)


def _ft_count(key: str, amount: int = 1) -> None:
    with _FT_LOCK:
        _FT_COUNTERS[key] += amount


def note_degraded_run() -> None:
    """Record one run that finished on the serial path after pool trouble."""
    _ft_count("degraded_runs")
    obs.counter_inc("repro_degraded_runs_total")


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """Return the multiprocessing start method a run should use.

    Explicit argument beats the ``REPRO_EXECUTION_START_METHOD``
    environment override beats the platform default: ``fork`` where
    available (zero-copy image inheritance) — but only while the parent
    is single-threaded.  Forking a multi-threaded parent (the detection
    service runs kernels on job threads inside a ThreadingHTTPServer) can
    clone a lock held by another thread and deadlock the child, so there
    the default degrades to ``spawn``; an explicit choice is honoured
    as given.
    """
    import threading

    chosen = start_method or os.environ.get(START_METHOD_ENV) or None
    available = multiprocessing.get_all_start_methods()
    if chosen is None:
        if "fork" in available and threading.active_count() == 1:
            return "fork"
        return "spawn"
    if chosen not in available:
        raise ExecutionError(
            f"start method {chosen!r} is not available on this platform "
            f"(expected one of {available})"
        )
    return chosen


# ---------------------------------------------------------------- worker side


@dataclass
class ExecutionRuntime:
    """Everything a worker needs to expand units: rules, plans, graph images.

    Built once per run in the parent.  Under ``fork`` the object itself is
    inherited by the children (nothing is pickled); under ``spawn`` each
    worker rebuilds it from :meth:`payload` — rules travel as their JSON
    rule-file form, plans as their persisted document (so workers skip the
    statistics pass entirely), and graph images by spool manifest path.
    """

    rules: list[NGD]
    plans: tuple[MatchPlan, ...]
    use_literal_pruning: bool
    shards: ShardedStore
    before_shards: Optional[ShardedStore] = None
    #: Adaptive replanning switch for the workers (True/False force, None =
    #: environment default).  Controllers themselves never cross the process
    #: boundary: every worker builds its own from the shipped plans.
    adaptive: Optional[bool] = None

    def graph_for(self, shard_id: int, from_insertion: bool):
        """Return the read-only image a work unit expands against."""
        store = self.shards if from_insertion or self.before_shards is None else self.before_shards
        return store.shard(shard_id)

    def payload(self, spool_dir: str) -> dict:
        """Return the picklable ``spawn`` form (spools images if needed)."""
        rule_set = RuleSet(self.rules)
        document = {
            "rules_json": rule_set.to_json(),
            "plans": plans_to_document(self.plans),
            "use_literal_pruning": self.use_literal_pruning,
            "shards_manifest": self.shards.spool(os.path.join(spool_dir, "after")),
            "before_manifest": (
                self.before_shards.spool(os.path.join(spool_dir, "before"))
                if self.before_shards is not None
                else None
            ),
            "adaptive": self.adaptive,
        }
        return document

    @classmethod
    def from_payload(cls, payload: dict) -> "ExecutionRuntime":
        """Rebuild the runtime inside a ``spawn`` worker (no recompilation)."""
        rules = list(RuleSet.from_json(payload["rules_json"]))
        plans = plans_from_document(payload["plans"], rules)
        before = (
            ShardedStore.load(payload["before_manifest"])
            if payload.get("before_manifest")
            else None
        )
        return cls(
            rules=rules,
            plans=plans,
            use_literal_pruning=payload["use_literal_pruning"],
            shards=ShardedStore.load(payload["shards_manifest"]),
            before_shards=before,
            adaptive=payload.get("adaptive"),
        )


def _worker_controllers(runtime: Optional[ExecutionRuntime]):
    """Build this worker's adaptive controllers for ``runtime`` (or None)."""
    if runtime is None:
        return None
    return resolve_adaptive(runtime.plans, runtime.adaptive)


def _worker_main(worker_id, epoch, runtime_or_payload, inbox, results, stop_event) -> None:
    """Entry point of one worker process (one *incarnation* of a slot).

    Message protocol (parent → worker): ``("units", epoch, [(shard_id,
    unit), ...])``, ``("shed", epoch, count)``, ``("runtime", payload)``,
    ``("sync",)``, ``("exit",)``.  Worker → parent — every message starts
    ``(kind, wid, epoch, ...)``:
    ``("found", wid, epoch, [(violation, from_insertion), ...], cost,
    queue_len, obs)``, ``("status", wid, epoch, queue_len, cost, obs)``,
    ``("idle", wid, epoch, cost, batches_seen, obs)``, ``("heartbeat",
    wid, epoch, queue_len)``, ``("shed_units", wid, epoch, [(shard_id,
    unit), ...])``, ``("synced", wid, epoch, stats, cost,
    units_processed, obs)``, ``("exited", wid, epoch, stats, cost,
    units_processed, obs)``, ``("error", wid, epoch, traceback_text)``.
    The trailing ``obs`` field piggybacks this worker's observability
    delta (:func:`repro.obs.drain_for_shipping`: metric deltas +
    completed spans, or None when disabled/empty) on the messages the
    worker was sending anyway — no extra queue traffic, and both ``fork``
    and ``spawn`` ship the same plain-dict payloads.  Per-producer queue
    ordering guarantees the parent has seen every violation a worker
    found before it sees that worker go idle.

    ``epoch`` is this slot's incarnation number: 0 originally, +1 per
    supervised respawn.  Both sides stamp it on run messages and discard
    mismatches, so a replacement can never consume a dead predecessor's
    in-flight units batch (and then confuse the parent's batch counters),
    and the parent can never credit a predecessor's stale idle report to
    the replacement.  ``runtime``/``sync``/``exit`` are crew-scoped, not
    run-scoped, and stay epoch-free.

    ``runtime_or_payload`` may be None: a :class:`WarmExecutorPool` worker
    bootstraps empty and receives its runtime as a ``("runtime", payload)``
    message (and a new one whenever the pool's cached key misses).
    ``("sync",)`` is the pool's end-of-run barrier: the worker reports and
    then resets its per-run counters, staying alive for the next run.
    """
    try:
        # fresh per-worker observability state: fork children must not carry
        # the parent's shards (their dumps would double-count), spawn
        # children re-resolve REPRO_OBS from the inherited environment
        obs.reset_for_worker()
        obs_on = obs.enabled()
        attribution = RuleAttribution("executor")
        fault_plan = resolve_fault_plan()
        faults = fault_plan.for_worker(worker_id, epoch) if fault_plan is not None else None
        heartbeat_period = _env_float(HEARTBEAT_PERIOD_ENV, DEFAULT_HEARTBEAT_PERIOD_SECONDS)
        last_heartbeat = time.monotonic()
        if runtime_or_payload is None:
            runtime = None
        elif isinstance(runtime_or_payload, ExecutionRuntime):
            runtime = runtime_or_payload
        else:
            runtime = ExecutionRuntime.from_payload(runtime_or_payload)
        controllers = _worker_controllers(runtime)
        stack: list[tuple[int, WorkUnit]] = []
        stats = MatchStatistics()
        cost_since = 0.0
        expansions_since = 0
        units_processed = 0
        units_since_ship = 0
        total_cost = 0.0
        idle_announced = False
        batches_seen = 0
        since_poll = 0
        wait_start: Optional[float] = None

        def _ship() -> Optional[dict]:
            """Flush per-rule accumulators + unit count, drain the delta."""
            nonlocal units_since_ship
            if not obs_on:
                return None
            attribution.emit()
            if units_since_ship:
                obs.counter_inc("repro_executor_units_total", None, units_since_ship)
                units_since_ship = 0
            return obs.drain_for_shipping()

        while True:
            # drain control messages; poll cheaply while holding work,
            # block (briefly) only when out of it
            if not stack or since_poll >= POLL_EVERY_EXPANSIONS:
                since_poll = 0
                if obs_on and not stack and wait_start is None:
                    wait_start = time.monotonic()
                try:
                    while True:
                        message = inbox.get_nowait() if stack else inbox.get(timeout=0.05)
                        kind = message[0]
                        if kind == "exit":
                            if obs_on:
                                with obs.span(
                                    "executor.worker", worker=worker_id,
                                    units_processed=units_processed, cost=round(total_cost, 3),
                                ):
                                    pass
                            results.put(
                                ("exited", worker_id, epoch,
                                 stats, total_cost, units_processed, _ship())
                            )
                            return
                        if kind == "units":
                            if message[1] != epoch:
                                # a batch addressed to a dead predecessor of
                                # this slot: its units were already recovered
                                continue
                            if wait_start is not None:
                                obs.histogram_observe(
                                    "repro_executor_queue_wait_seconds",
                                    None,
                                    time.monotonic() - wait_start,
                                )
                                wait_start = None
                            stack.extend(message[2])
                            batches_seen += 1
                            idle_announced = False
                        elif kind == "shed":
                            if message[1] != epoch:
                                continue
                            # shed the oldest (shallowest) units: the largest
                            # remaining subtrees, the best payload for a steal
                            count = min(message[2], max(len(stack) - 1, 0))
                            if count > 0:
                                shed, stack = stack[:count], stack[count:]
                                obs.counter_inc("repro_executor_shed_units_total", None, len(shed))
                                results.put(("shed_units", worker_id, epoch, shed))
                            else:
                                results.put(("shed_units", worker_id, epoch, []))
                        elif kind == "runtime":
                            runtime = ExecutionRuntime.from_payload(message[1])
                            controllers = _worker_controllers(runtime)
                            stack.clear()
                        elif kind == "sync":
                            if obs_on:
                                with obs.span(
                                    "executor.worker", worker=worker_id,
                                    units_processed=units_processed, cost=round(total_cost, 3),
                                ):
                                    pass
                            results.put(
                                ("synced", worker_id, epoch,
                                 stats, total_cost, units_processed, _ship())
                            )
                            stack.clear()
                            stats = MatchStatistics()
                            cost_since = 0.0
                            expansions_since = 0
                            units_processed = 0
                            total_cost = 0.0
                            batches_seen = 0
                            idle_announced = False
                            # fresh controllers per run: observations from one
                            # request must not replan another's tiny workload
                            controllers = _worker_controllers(runtime)
                        if stack:
                            break
                except queue_module.Empty:
                    pass
                if stop_event.is_set():
                    stack.clear()
                if heartbeat_period > 0.0:
                    now = time.monotonic()
                    if now - last_heartbeat >= heartbeat_period:
                        results.put(("heartbeat", worker_id, epoch, len(stack)))
                        last_heartbeat = now
            if not stack:
                if not idle_announced:
                    # batches_seen lets the parent discard an idle report
                    # that raced with a units batch still in this inbox
                    results.put(("idle", worker_id, epoch, cost_since, batches_seen, _ship()))
                    cost_since = 0.0
                    idle_announced = True
                continue
            if faults is not None:
                faults.on_unit()
            shard_id, unit = stack.pop()
            rule = runtime.rules[unit.rule_index]
            graph = runtime.graph_for(shard_id, unit.from_insertion)
            unit_before = attribution.before(stats)
            outcome = expand_work_unit(
                graph,
                rule,
                unit,
                use_literal_pruning=runtime.use_literal_pruning,
                stats=stats,
                plan=runtime.plans[unit.rule_index],
                adaptive=controllers[unit.rule_index] if controllers is not None else None,
            )
            attribution.after(rule.name, unit_before, stats)
            stack.extend((shard_id, new_unit) for new_unit in outcome.new_units)
            charge = float(max(outcome.filtering_adjacency, 1) + outcome.verification_adjacency)
            cost_since += charge
            total_cost += charge
            units_processed += 1
            units_since_ship += 1
            expansions_since += 1
            since_poll += 1
            if outcome.violations:
                if faults is not None:
                    faults.on_put()
                found = [(violation, unit.from_insertion) for violation in outcome.violations]
                results.put(("found", worker_id, epoch, found, cost_since, len(stack), _ship()))
                last_heartbeat = time.monotonic()
                cost_since = 0.0
                expansions_since = 0
            elif expansions_since >= STATUS_EVERY_EXPANSIONS:
                if faults is not None:
                    faults.on_put()
                results.put(("status", worker_id, epoch, len(stack), cost_since, _ship()))
                last_heartbeat = time.monotonic()
                cost_since = 0.0
                expansions_since = 0
    except Exception:  # noqa: BLE001 - ship the traceback to the parent
        try:
            results.put(("error", worker_id, epoch, traceback.format_exc()))
        except Exception:  # pragma: no cover - results queue itself broken
            pass


# ---------------------------------------------------------------- parent side


@dataclass
class ProcessRunSummary:
    """What a finished (or cancelled) process run reports to its kernel."""

    cost: float = 0.0
    stats: MatchStatistics = field(default_factory=MatchStatistics)
    stop_reason: Optional[str] = None
    worker_traces: list[WorkerTrace] = field(default_factory=list)
    #: Supervised worker respawns performed during this run.
    restarts: int = 0
    #: Work units re-shipped (or quarantined) after a worker death.
    units_retried: int = 0
    #: ``(shard_id, unit)`` pairs that exceeded the per-unit retry cap —
    #: poison units the kernel must finish on the serial path.
    quarantined: list = field(default_factory=list)
    #: Set by the kernel when part of the run was drained serially.
    degraded: bool = False


@dataclass
class _WorkerCrew:
    """One set of live worker processes plus their shared channels.

    ``epochs[i]`` is slot *i*'s incarnation number; :meth:`respawn` bumps
    it and starts a replacement process on the same channels.  The spawn
    argument (and, for warm crews, the last runtime payload shipped by
    message) is retained so replacements bootstrap identically to the
    worker they replace.
    """

    method: str
    processors: int
    workers: list
    inboxes: list
    results: Any
    stop_event: Any
    worker_argument: Any = None
    epochs: list = field(default_factory=list)
    runtime_payload: Optional[dict] = None

    def alive(self) -> bool:
        return all(worker.is_alive() for worker in self.workers)

    def respawn(self, index: int):
        """Start a fresh incarnation of slot ``index`` on its channels.

        The replacement discards any stale epoch-tagged messages left in
        the inbox by its predecessor; a warm crew's replacement is
        re-primed with the crew's current runtime payload first (ordering
        holds: the runtime message is enqueued before any new units).
        """
        context = multiprocessing.get_context(self.method)
        self.epochs[index] += 1
        worker = context.Process(
            target=_worker_main,
            args=(
                index,
                self.epochs[index],
                self.worker_argument,
                self.inboxes[index],
                self.results,
                self.stop_event,
            ),
            name=f"repro-exec-{index}",
            daemon=True,
        )
        worker.start()
        self.workers[index] = worker
        if self.worker_argument is None and self.runtime_payload is not None:
            self.inboxes[index].put(("runtime", self.runtime_payload))
        return worker


def _spawn_crew(processors: int, worker_argument, method: str) -> _WorkerCrew:
    """Start ``processors`` worker processes sharing one result queue.

    ``worker_argument`` is the runtime (fork), its payload (spawn), or None
    for a warm-pool crew that receives its runtime by message later.
    """
    context = multiprocessing.get_context(method)
    stop_event = context.Event()
    results = context.Queue()
    inboxes = [context.Queue() for _ in range(processors)]
    workers = []
    try:
        for index in range(processors):
            worker = context.Process(
                target=_worker_main,
                args=(index, 0, worker_argument, inboxes[index], results, stop_event),
                name=f"repro-exec-{index}",
                daemon=True,
            )
            worker.start()
            workers.append(worker)
    except BaseException:  # pragma: no cover - start failures are environmental
        for worker in workers:
            worker.terminate()
        raise
    return _WorkerCrew(
        method=method,
        processors=processors,
        workers=workers,
        inboxes=inboxes,
        results=results,
        stop_event=stop_event,
        worker_argument=worker_argument,
        epochs=[0] * processors,
    )


def _drive_run(
    crew: _WorkerCrew,
    seeds: Sequence[tuple[int, int, WorkUnit]],
    policy: BalancingPolicy,
    budget: Optional[DetectionBudget],
    sink: Optional[ViolationSink],
    dedupe: Optional[tuple],
    base_cost: float,
    summary: ProcessRunSummary,
) -> Iterator[tuple[Violation, bool]]:
    """Distribute ``seeds`` over a live crew and stream back violations.

    The shared drive loop of one run — identical for a one-shot crew
    (:func:`iter_process_execution`) and a warm one
    (:class:`WarmExecutorPool`): initial placement, the found/status/idle
    message loop, skewness-based rebalancing, budget enforcement, and
    worker supervision.  Per-run bookkeeping (queue lengths, batch
    counters, outstanding units) is local; the caller owns crew lifecycle
    and end-of-run reconciliation.

    Supervision and exactly-once recovery: the parent remembers every
    unit it shipped to a worker (``outstanding``) and only clears the set
    on a *confirmed* idle report — per-producer queue ordering guarantees
    all of that worker's violations arrived first.  When a worker dies
    (``is_alive`` false) or goes silent past the heartbeat timeout (then
    it is killed), its outstanding units are re-executed: on a respawned
    replacement while the ``REPRO_WORKER_RESTARTS`` budget lasts, on
    survivors after.  Units are deterministic and the parent dedups every
    violation against ``introduced``/``removed`` before yielding, so this
    at-least-once re-execution still yields each violation exactly once —
    byte-identical output to an undisturbed run.  A unit that out-lives
    ``REPRO_UNIT_RETRIES`` worker deaths is poison: it is quarantined on
    ``summary.quarantined`` for the kernel's serial path instead of being
    re-shipped forever.  With no restart budget left *and* no survivor to
    absorb the load, :class:`~repro.errors.WorkerPoolCollapse` carries
    every unconfirmed unit to the kernel for serial completion.
    """
    from repro.core.violations import ViolationSet

    processors = crew.processors
    inboxes, results, workers = crew.inboxes, crew.results, crew.workers
    stop_event = crew.stop_event
    introduced, removed = dedupe if dedupe is not None else (ViolationSet(), ViolationSet())
    summary.cost = base_cost
    queue_lens = [0] * processors
    idle = [False] * processors
    batches_sent = [0] * processors
    pending_shed = 0
    pending_shed_by = [0] * processors
    emitted = len(introduced) + len(removed)
    now = time.monotonic()
    last_balance = now
    last_liveness = now
    last_seen = [now] * processors
    outstanding: list[set] = [set() for _ in range(processors)]
    retries: dict = {}
    dead_for_good: set[int] = set()
    restart_budget = max(0, _env_int(WORKER_RESTARTS_ENV, DEFAULT_WORKER_RESTARTS))
    unit_retry_cap = max(0, _env_int(UNIT_RETRIES_ENV, DEFAULT_UNIT_RETRIES))
    heartbeat_timeout = _env_float(
        HEARTBEAT_TIMEOUT_ENV, DEFAULT_HEARTBEAT_TIMEOUT_SECONDS
    )

    # initial distribution: one batch message per worker keeps startup cheap
    batches: list[list[tuple[int, WorkUnit]]] = [[] for _ in range(processors)]
    for worker_index, shard_id, unit in seeds:
        batches[worker_index].append((shard_id, unit))
    for worker_index, batch in enumerate(batches):
        if batch:
            inboxes[worker_index].put(("units", crew.epochs[worker_index], batch))
            batches_sent[worker_index] += 1
            queue_lens[worker_index] = len(batch)
            outstanding[worker_index].update(batch)

    def _maybe_rebalance() -> int:
        nonlocal last_balance
        if not policy.enable_rebalancing or pending_shed:
            return 0
        now = time.monotonic()
        if now - last_balance < REBALANCE_PERIOD_SECONDS:
            return 0
        last_balance = now
        lengths = list(queue_lens)
        if max(lengths) < 4 or not any(value > policy.eta for value in skewness(lengths)):
            return 0
        requested = 0
        shed_totals: dict[int, int] = {}
        for origin, _, count in plan_rebalancing(lengths, policy.eta, policy.eta_prime):
            shed_totals[origin] = shed_totals.get(origin, 0) + count
        for origin, count in shed_totals.items():
            if origin in dead_for_good:
                continue
            inboxes[origin].put(("shed", crew.epochs[origin], count))
            pending_shed_by[origin] += 1
            requested += 1
        return requested

    def _redistribute(units: list[tuple[int, WorkUnit]], origin: int) -> None:
        if not units:
            return
        receivers = sorted(
            (
                i
                for i in range(processors)
                if (i != origin or processors == 1) and i not in dead_for_good
            ),
            key=lambda i: (queue_lens[i], i),
        )
        if not receivers and origin not in dead_for_good:
            receivers = [origin]
        if not receivers:
            # nobody left to hand these to: surrender every unconfirmed
            # unit to the kernel's serial path
            leftovers = list(units)
            for pending in outstanding:
                leftovers.extend(pending)
                pending.clear()
            raise WorkerPoolCollapse(
                f"worker pool collapsed with {len(leftovers)} unit(s) outstanding "
                f"(restart budget {restart_budget} spent)",
                outstanding=list(dict.fromkeys(leftovers)),
            )
        receivers = receivers[: max(1, min(len(receivers), len(units)))]
        share = len(units) // len(receivers)
        remainder = len(units) - share * len(receivers)
        position = 0
        for rank, receiver in enumerate(receivers):
            count = share + (1 if rank < remainder else 0)
            if count == 0:
                continue
            batch = units[position : position + count]
            position += count
            inboxes[receiver].put(("units", crew.epochs[receiver], batch))
            batches_sent[receiver] += 1
            queue_lens[receiver] += len(batch)
            idle[receiver] = False
            outstanding[receiver].update(batch)

    def _reap(proc) -> None:
        """Make sure a failed worker is really gone, then reap it."""
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=0.5)
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=1.0)

    def _recover_workers(failed: Sequence[int]) -> None:
        """Reclaim failed workers' units; respawn or redistribute."""
        nonlocal pending_shed
        for w in failed:
            _reap(workers[w])
            lost = list(outstanding[w])
            outstanding[w].clear()
            queue_lens[w] = 0
            pending_shed -= pending_shed_by[w]
            pending_shed_by[w] = 0
            batches_sent[w] = 0
            idle[w] = True
            reship: list[tuple[int, WorkUnit]] = []
            for item in lost:
                count = retries.get(item, 0) + 1
                retries[item] = count
                if count > unit_retry_cap:
                    # poison: this unit has now out-lived several workers;
                    # the kernel finishes it serially in the parent
                    summary.quarantined.append(item)
                else:
                    reship.append(item)
            if lost:
                summary.units_retried += len(lost)
                _ft_count("units_retried", len(lost))
                obs.counter_inc("repro_units_retried_total", None, len(lost))
            if summary.restarts < restart_budget:
                summary.restarts += 1
                _ft_count("worker_restarts")
                obs.counter_inc("repro_worker_restarts_total")
                crew.respawn(w)
                last_seen[w] = time.monotonic()
                if reship:
                    inboxes[w].put(("units", crew.epochs[w], reship))
                    batches_sent[w] += 1
                    queue_lens[w] = len(reship)
                    outstanding[w].update(reship)
                    idle[w] = False
            else:
                dead_for_good.add(w)
                _redistribute(reship, origin=w)

    def _check_liveness() -> None:
        nonlocal last_liveness
        last_liveness = time.monotonic()
        if stop_event.is_set():
            return
        dead_now = [
            i
            for i in range(processors)
            if i not in dead_for_good and not workers[i].is_alive()
        ]
        if dead_now:
            _recover_workers(dead_now)
        if heartbeat_timeout > 0.0:
            now = time.monotonic()
            stalled = [
                i
                for i in range(processors)
                if i not in dead_for_good
                and not idle[i]
                and now - last_seen[i] > heartbeat_timeout
            ]
            if stalled:
                # silent past the deadline: presumed wedged.  Recovery
                # kills it first (terminate, then SIGKILL) — if it was
                # merely slow, re-execution is deduplicated, so
                # correctness is unaffected either way.
                _recover_workers(stalled)

    while summary.stop_reason is None:
        if all(idle) and pending_shed == 0:
            break
        try:
            message = results.get(timeout=RESULT_POLL_SECONDS)
        except queue_module.Empty:
            _check_liveness()
            continue
        except (EOFError, OSError, pickle.UnpicklingError):
            # a worker killed mid-put can tear a frame in the shared
            # result pipe; drop the fragment — the sender's death is
            # picked up by the next liveness check and its units are
            # re-executed, so nothing is lost
            _check_liveness()
            continue
        kind = message[0]
        worker_id = message[1]
        last_seen[worker_id] = time.monotonic()
        if message[2] != crew.epochs[worker_id]:
            # a dead incarnation's leftovers: its units were re-shipped
            # wholesale, so stale reports (even a final idle) must not
            # touch the replacement's bookkeeping
            continue
        if kind == "found":
            found, cost_delta, queue_len, obs_delta = message[3:]
            obs.absorb_shipped(obs_delta, {"worker": worker_id})
            summary.cost += cost_delta
            queue_lens[worker_id] = queue_len
            idle[worker_id] = False
            for violation, from_insertion in found:
                target = introduced if from_insertion else removed
                if violation in target:
                    continue
                target.add(violation)
                emitted += 1
                notify_violation(sink, violation, introduced=from_insertion)
                yield violation, from_insertion
                if budget is not None and budget.violations_exhausted(emitted):
                    summary.stop_reason = "max_violations"
                    break
            if summary.stop_reason is None and budget is not None and budget.cost_exhausted(summary.cost):
                summary.stop_reason = "max_cost"
        elif kind == "status":
            queue_len, cost_delta, obs_delta = message[3:]
            obs.absorb_shipped(obs_delta, {"worker": worker_id})
            summary.cost += cost_delta
            queue_lens[worker_id] = queue_len
            idle[worker_id] = False
            if budget is not None and budget.cost_exhausted(summary.cost):
                summary.stop_reason = "max_cost"
        elif kind == "idle":
            cost_delta, batches_seen, obs_delta = message[3:]
            obs.absorb_shipped(obs_delta, {"worker": worker_id})
            summary.cost += cost_delta
            if batches_seen == batches_sent[worker_id]:
                queue_lens[worker_id] = 0
                idle[worker_id] = True
                # ordering guarantee: every violation this worker found
                # arrived before this report, so its assignment is done
                outstanding[worker_id].clear()
            # else: stale — a units batch was still in flight toward
            # the worker when it reported; it will report idle again
            if budget is not None and budget.cost_exhausted(summary.cost):
                summary.stop_reason = "max_cost"
        elif kind == "heartbeat":
            pass  # liveness only; last_seen is already refreshed above
        elif kind == "shed_units":
            units = message[3]
            pending_shed -= 1
            pending_shed_by[worker_id] -= 1
            queue_lens[worker_id] = max(queue_lens[worker_id] - len(units), 0)
            for item in units:
                outstanding[worker_id].discard(item)
            if units:
                obs.counter_inc("repro_executor_steals_total", {"mode": "processes"}, len(units))
            _redistribute(units, origin=worker_id)
        elif kind == "error":
            # the worker reported a failure and exited; treat it exactly
            # like a death so one bad expansion cannot abort the run —
            # a deterministic fault ends up quarantined and re-raised by
            # the kernel's serial drain instead
            obs.counter_inc("repro_worker_errors_total")
            _recover_workers([worker_id])
        if summary.stop_reason is None:
            pending_shed += _maybe_rebalance()
            if time.monotonic() - last_liveness > RESULT_POLL_SECONDS:
                _check_liveness()


def _shutdown_crew(crew: _WorkerCrew, summary: Optional[ProcessRunSummary]) -> None:
    """Stop a crew for good: exit messages, stats drain, join/terminate.

    ``summary`` collects the workers' final stats/traces for a one-shot
    crew; pass None for a warm crew (its runs were already reconciled by
    the sync barrier — merging the exit reports again would double count).
    """
    crew.stop_event.set()
    for inbox in crew.inboxes:
        try:
            inbox.put(("exit",))
        except Exception:  # pragma: no cover - queue already torn down
            pass
    exited = [False] * crew.processors
    grace = max(0.0, _env_float(SHUTDOWN_GRACE_ENV, SHUTDOWN_GRACE_SECONDS))
    deadline = time.monotonic() + grace
    while not all(exited) and time.monotonic() < deadline:
        try:
            message = crew.results.get(timeout=0.1)
        except queue_module.Empty:
            if all(not w.is_alive() for w in crew.workers):
                break
            continue
        except (EOFError, OSError, pickle.UnpicklingError):
            continue  # torn frame from a killed worker; keep draining
        if message[0] == "exited":
            worker_id = message[1]
            _, _, _, stats, cost, units_processed, obs_delta = message
            obs.absorb_shipped(obs_delta, {"worker": worker_id})
            exited[worker_id] = True
            if summary is not None:
                summary.stats.merge(stats)
                summary.worker_traces.append(
                    WorkerTrace(
                        worker=worker_id,
                        busy_time=cost,
                        work_units_processed=units_processed,
                    )
                )
    # teardown must terminate no matter what state a worker is in: give
    # each the remaining grace to exit, then escalate join -> terminate
    # (SIGTERM) -> kill (SIGKILL, cannot be ignored).  Total wait is
    # bounded by the grace period plus ~1.5s per straggler, so a wedged
    # worker can never hang the service's request thread.
    for worker in crew.workers:
        worker.join(timeout=max(0.0, min(0.5, deadline - time.monotonic())))
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=0.5)
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=0.5)
    crew.results.cancel_join_thread()
    for inbox in crew.inboxes:
        inbox.cancel_join_thread()
    if summary is not None:
        summary.worker_traces.sort(key=lambda trace: trace.worker)


def iter_process_execution(
    runtime: ExecutionRuntime,
    seeds: Sequence[tuple[int, int, WorkUnit]],
    processors: int,
    policy: BalancingPolicy,
    budget: Optional[DetectionBudget] = None,
    sink: Optional[ViolationSink] = None,
    dedupe: Optional[tuple] = None,
    base_cost: float = 0.0,
    start_method: Optional[str] = None,
    summary: Optional[ProcessRunSummary] = None,
) -> Iterator[tuple[Violation, bool]]:
    """Run ``seeds`` on a one-shot pool of ``processors`` worker processes.

    ``seeds`` are ``(worker_index, shard_id, unit)`` triples — placement is
    the caller's policy (shard affinity / plan-estimated least-loaded).
    Yields ``(violation, from_insertion)`` pairs as workers report them
    (deduplicated against ``dedupe = (introduced_set, removed_set)``,
    which the caller shares so parent-side seed results participate);
    ``summary`` (if supplied) is filled in before the generator returns,
    so callers that stop consuming early still see cost/stats/traces.
    ``base_cost`` counts the parent-side seeding charges toward the
    ``max_cost`` budget.  The generator's return value is the same
    :class:`ProcessRunSummary`.

    The spool directory (spawn mode: full serialized images) is removed on
    *every* exit path — clean end, worker crash, budget cancellation, and
    failures during payload spooling or worker startup — so a service
    handling repeated requests never leaks graph copies to disk.
    """
    method = resolve_start_method(start_method)
    summary = summary if summary is not None else ProcessRunSummary()
    spool_dir: Optional[str] = None
    crew: Optional[_WorkerCrew] = None
    try:
        if method == "fork":
            worker_argument = runtime
        else:
            spool_dir = _spool_directory()
            worker_argument = runtime.payload(spool_dir)
        crew = _spawn_crew(processors, worker_argument, method)
        yield from _drive_run(crew, seeds, policy, budget, sink, dedupe, base_cost, summary)
    finally:
        if crew is not None:
            _shutdown_crew(crew, summary)
        if spool_dir is not None:
            shutil.rmtree(spool_dir, ignore_errors=True)
    return summary


def drain_units_serially(
    units: Sequence[tuple[int, WorkUnit]],
    *,
    rules: Sequence[NGD],
    plans: Sequence[MatchPlan],
    use_literal_pruning: bool,
    graph_for: Callable[[int, bool], Any],
    budget: Optional[DetectionBudget] = None,
    sink: Optional[ViolationSink] = None,
    dedupe: Optional[tuple] = None,
    summary: Optional[ProcessRunSummary] = None,
) -> Iterator[tuple[Violation, bool]]:
    """Finish ``units`` (and their subtrees) in the parent, depth-first.

    The graceful-degradation tail of a process run: the kernels hand the
    unconfirmed units here after a :class:`~repro.errors.WorkerPoolCollapse`
    (restart budget spent, no survivors) and for every quarantined poison
    unit.  The parent owns the *full* graph(s) — ``graph_for(shard_id,
    from_insertion)`` returns them — which is always a superset of any
    worker's shard image, so expansion yields the exact same matches; the
    shared ``dedupe`` sets absorb whatever the workers already reported.
    Fault injection hooks live only in worker processes, so a unit that
    reliably killed workers completes here.

    Charges accrue to ``summary.cost`` and stats to ``summary.stats``
    under the same accounting as the worker loop; ``budget`` is enforced
    between expansions exactly like the parent's message loop.
    """
    from repro.core.violations import ViolationSet

    summary = summary if summary is not None else ProcessRunSummary()
    introduced, removed = dedupe if dedupe is not None else (ViolationSet(), ViolationSet())
    emitted = len(introduced) + len(removed)
    stack = list(dict.fromkeys(units))  # drop duplicates, keep order
    while stack and summary.stop_reason is None:
        shard_id, unit = stack.pop()
        rule = rules[unit.rule_index]
        graph = graph_for(shard_id, unit.from_insertion)
        outcome = expand_work_unit(
            graph,
            rule,
            unit,
            use_literal_pruning=use_literal_pruning,
            stats=summary.stats,
            plan=plans[unit.rule_index],
        )
        stack.extend((shard_id, new_unit) for new_unit in outcome.new_units)
        summary.cost += float(
            max(outcome.filtering_adjacency, 1) + outcome.verification_adjacency
        )
        for violation in outcome.violations:
            target = introduced if unit.from_insertion else removed
            if violation in target:
                continue
            target.add(violation)
            emitted += 1
            notify_violation(sink, violation, introduced=unit.from_insertion)
            yield violation, unit.from_insertion
            if budget is not None and budget.violations_exhausted(emitted):
                summary.stop_reason = "max_violations"
                break
        if summary.stop_reason is None and budget is not None and budget.cost_exhausted(
            summary.cost
        ):
            summary.stop_reason = "max_cost"


# ---------------------------------------------------------------- warm pool


class WarmExecutorPool:
    """Worker processes kept alive across runs, with their loaded runtime.

    A cold ``execution="processes"`` run pays process startup plus (under
    ``spawn``) a full graph spool/reload before the first expansion.  A
    service answering repeated detection requests over the same graph
    version pays that once here: the pool keeps one crew of ``processors``
    workers alive and remembers which runtime they have loaded, keyed by
    the caller's ``runtime_key`` (graph snapshot identity + rules digest —
    see :meth:`~repro.detect.session.Detector`).  A matching key reuses the
    workers' in-memory images outright; a miss ships a new runtime over the
    control channel (workers stay alive, images are reloaded); concurrent
    or mismatched requests fall back to a one-shot crew, so the pool is
    an optimisation, never a correctness constraint.

    End-of-run reconciliation uses a ``sync`` barrier: every worker reports
    its stats and resets its per-run counters, leaving the crew idle and
    reusable.  Lifecycle: :meth:`invalidate` on graph-version bumps (the
    registry listener), :meth:`maintain` for idle-TTL eviction (call it
    opportunistically — the pool runs no background threads, which would
    flip :func:`resolve_start_method`'s fork default), :meth:`shutdown`
    to stop for good.  Spool directories are finalizer-backstopped so an
    abandoned pool cannot leak them.
    """

    def __init__(
        self,
        processors: int,
        start_method: Optional[str] = None,
        idle_ttl: float = DEFAULT_IDLE_TTL_SECONDS,
        spool_cache=None,
    ) -> None:
        self.processors = processors
        self.idle_ttl = idle_ttl
        self._start_method = start_method
        #: Optional durable spool-directory provider (``directory_for(key)``,
        #: the service's --data-dir segment cache).  Cache-provided
        #: directories are owned by the cache — the pool never deletes
        #: them, so a later miss on the same runtime key adopts the
        #: already-serialized images instead of re-spooling.
        self.spool_cache = spool_cache
        self._lock = threading.Lock()
        self._crew: Optional[_WorkerCrew] = None
        self._runtime_key: Optional[Hashable] = None
        self._spool_dir: Optional[str] = None
        self._spool_finalizer = None
        self._stale = False
        self._last_used = time.monotonic()
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0
        self.evictions = 0

    # ------------------------------------------------------------- execution

    def execute(
        self,
        runtime_key: Optional[Hashable],
        runtime_factory: Callable[[], ExecutionRuntime],
        seeds: Sequence[tuple[int, int, WorkUnit]],
        processors: int,
        policy: BalancingPolicy,
        budget: Optional[DetectionBudget] = None,
        sink: Optional[ViolationSink] = None,
        dedupe: Optional[tuple] = None,
        base_cost: float = 0.0,
        summary: Optional[ProcessRunSummary] = None,
    ) -> Iterator[tuple[Violation, bool]]:
        """Run ``seeds`` on the warm crew; same contract as
        :func:`iter_process_execution`.

        ``runtime_factory`` is only called on a key miss (or fallback), so
        a warm hit skips building shard stores entirely; ``runtime_key`` of
        None forces a miss.  Requests for a different processor count, or
        arriving while another run holds the pool, fall back to a one-shot
        crew rather than queueing.
        """
        summary = summary if summary is not None else ProcessRunSummary()
        if processors != self.processors or not self._lock.acquire(blocking=False):
            self.fallbacks += 1
            yield from iter_process_execution(
                runtime_factory(),
                seeds,
                processors,
                policy,
                budget=budget,
                sink=sink,
                dedupe=dedupe,
                base_cost=base_cost,
                start_method=self._start_method,
                summary=summary,
            )
            return summary
        try:
            if self._stale:
                self._invalidate_locked()
                self._stale = False
            crew = self._crew
            if crew is not None and not crew.alive():
                # never hand out a crew with dead members: a run would
                # start by re-discovering the death and paying recovery
                self.evictions += 1
                self._teardown_locked()
                crew = None
            if crew is None:
                crew = self._spawn_locked()
            if runtime_key is None or runtime_key != self._runtime_key:
                self.misses += 1
                self._load_runtime_locked(runtime_factory(), runtime_key)
                self._runtime_key = runtime_key
            else:
                self.hits += 1
            run_failed = False
            try:
                yield from _drive_run(
                    crew, seeds, policy, budget, sink, dedupe, base_cost, summary
                )
            except (ExecutionError, OSError):
                run_failed = True
                raise
            finally:
                # reconcile even when the caller abandons the generator
                # early (GeneratorExit): cancel leftovers, then resync
                if run_failed or not self._resync(crew, summary):
                    self._teardown_locked()
                else:
                    self._last_used = time.monotonic()
        finally:
            self._lock.release()
        return summary

    # -------------------------------------------------------------- lifecycle

    def invalidate(self) -> None:
        """Forget the loaded runtime (e.g. the graph version was bumped).

        Non-blocking: if a run is in flight the pool is marked stale and
        the drop happens when that run releases it.  Workers stay alive —
        only the cached key (and its spool) is discarded, so the next
        ``execute`` reloads.
        """
        if self._lock.acquire(blocking=False):
            try:
                self._invalidate_locked()
            finally:
                self._lock.release()
        else:
            self._stale = True

    def maintain(self, now: Optional[float] = None) -> bool:
        """Tear the crew down if it idled past ``idle_ttl`` or lost workers.

        Returns True when an eviction happened.  Callers sprinkle this
        after request handling; it never blocks on a busy pool.  A crew
        with dead members goes regardless of TTL — keeping it warm would
        only defer the eviction to the next checkout.
        """
        if self._crew is None:
            return False
        now = time.monotonic() if now is None else now
        if now - self._last_used < self.idle_ttl and self._crew.alive():
            return False
        if not self._lock.acquire(blocking=False):
            return False
        try:
            if self._crew is None:
                return False
            if not self._crew.alive():
                self.evictions += 1
                self._teardown_locked()
                return True
            if now - self._last_used >= self.idle_ttl:
                self._teardown_locked()
                return True
            return False
        finally:
            self._lock.release()

    def shutdown(self) -> None:
        """Stop the crew and remove the spool; the pool may be reused after."""
        with self._lock:
            self._teardown_locked()

    def stats(self) -> dict:
        """Return hit/miss/fallback/eviction counters and warm status."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "evictions": self.evictions,
            "warm": self._crew is not None,
        }

    # -------------------------------------------------------------- internals

    def _spawn_locked(self) -> _WorkerCrew:
        method = resolve_start_method(self._start_method)
        # workers bootstrap without a runtime; it arrives by message
        crew = _spawn_crew(self.processors, None, method)
        self._crew = crew
        self._runtime_key = None
        return crew

    def _load_runtime_locked(self, runtime: ExecutionRuntime, runtime_key=None) -> None:
        crew = self._crew
        cached_dir: Optional[str] = None
        if self.spool_cache is not None and runtime_key is not None:
            cached_dir = self.spool_cache.directory_for(runtime_key)
        spool_dir = cached_dir if cached_dir is not None else _spool_directory()
        try:
            payload = runtime.payload(spool_dir)
        except BaseException:
            if cached_dir is None:
                shutil.rmtree(spool_dir, ignore_errors=True)
            raise
        for inbox in crew.inboxes:
            inbox.put(("runtime", payload))
        # retained so a supervised respawn mid-run can re-prime the
        # replacement with the runtime its predecessor had loaded
        crew.runtime_payload = payload
        # the previous runtime can never be addressed again (units always
        # follow their runtime message), so its spool goes now
        self._drop_spool()
        self._spool_dir = spool_dir
        # only one-shot temp directories get a removal finalizer; cached
        # segment directories outlive the pool by design (the cache prunes
        # them at service boot and clean shutdown)
        if cached_dir is None:
            self._spool_finalizer = weakref.finalize(self, _remove_spool, spool_dir)

    def _resync(self, crew: _WorkerCrew, summary: ProcessRunSummary) -> bool:
        """End-of-run barrier: collect every worker's report, reset the crew.

        Sets the stop event first so workers drop any stack a cancelled or
        abandoned run left behind, then drains the result queue (discarding
        the cancelled tail) until every worker has answered the ``sync``.
        Returns False — caller tears the crew down — on timeout, worker
        death, or a reported error.
        """
        crew.stop_event.set()
        try:
            for inbox in crew.inboxes:
                inbox.put(("sync",))
        except Exception:  # pragma: no cover - control queue torn down
            return False
        synced = [False] * crew.processors
        deadline = time.monotonic() + _env_float(SHUTDOWN_GRACE_ENV, SHUTDOWN_GRACE_SECONDS)
        while not all(synced):
            if time.monotonic() > deadline:
                return False
            try:
                message = crew.results.get(timeout=0.1)
            except queue_module.Empty:
                if not crew.alive():
                    return False
                continue
            except (EOFError, OSError, pickle.UnpicklingError):
                return False  # torn result pipe: the crew is not reusable
            if message[0] == "synced":
                _, worker_id, _, stats, cost, units_processed, obs_delta = message
                obs.absorb_shipped(obs_delta, {"worker": worker_id})
                synced[worker_id] = True
                summary.stats.merge(stats)
                summary.worker_traces.append(
                    WorkerTrace(
                        worker=worker_id,
                        busy_time=cost,
                        work_units_processed=units_processed,
                    )
                )
            elif message[0] == "error":
                return False
            # found/status/idle/shed_units from the cancelled tail: discard
        summary.worker_traces.sort(key=lambda trace: trace.worker)
        crew.stop_event.clear()
        return True

    def _invalidate_locked(self) -> None:
        self._runtime_key = None
        self._drop_spool()

    def _teardown_locked(self) -> None:
        crew = self._crew
        self._crew = None
        self._runtime_key = None
        self._drop_spool()
        if crew is not None:
            _shutdown_crew(crew, None)

    def _drop_spool(self) -> None:
        if self._spool_finalizer is not None:
            self._spool_finalizer()  # runs _remove_spool once; later GC no-ops
            self._spool_finalizer = None
        self._spool_dir = None


def _remove_spool(path: str) -> None:
    """Finalizer target: idempotent spool removal (module-level, picklable)."""
    shutil.rmtree(path, ignore_errors=True)


def _spool_directory() -> str:
    """Return a fresh spool directory for one run's ``spawn`` payload."""
    import tempfile

    return tempfile.mkdtemp(prefix="repro-exec-")
