"""Real multi-process execution: a supervised map of seeds over worker processes.

The :class:`~repro.detect.parallel.cluster.ClusterSimulator` reproduces the
paper's *scheduling* behaviour deterministically but executes every work
unit serially — ``processors=N`` only divides virtual clocks.  This module
is the wall-clock counterpart: ``execution="processes"`` partitions a
kernel's seeds over N OS processes, and each drains its share with
:meth:`SerialRun.drain <repro.detect.serial.SerialRun.drain>`, the loop Dect
and IncDect run.  The simulator is retained as the deterministic cost-model
oracle (the η/η′ balancing of Section 6.3 lives there); this backend is
measured (``detect_par_s`` in ``benchmarks/e2e``), not modeled.

Execution model
---------------

* The **parent** places the seeds once.  PDect's are the simulator's: one
  unit per first-step candidate of every rule, on the least estimated load;
  PIncDect's are the update pivots, on the worker a crc32 of the updated
  edge's source names.  The parent runs PDect's first-step scans itself,
  exactly as Dect does.
* Each **worker process** receives its share and the compiled plans (each
  carrying its rule) as its process arguments — inherited under ``fork``,
  pickled under ``spawn`` (a plan generates its schedules' code again on
  first use) — together with
  one read-only *image* per graph it searches (``G``, or ``N_C(ΔG)``
  before and after the update): inherited copy-on-write under ``fork``,
  spooled once and loaded on first use under ``spawn``
  (:func:`resolve_start_method` picks).  It keeps one :class:`~repro.matching.search.RuleSearch` per rule
  and drains its seeds last first, as Dect drains a rule's candidates.
  Nothing travels from the parent to a worker after it starts: shares are
  never rebalanced.
* Every **report** (worker → parent, over the worker's own pipe) carries
  the violations found, the cost spent and the seeds finished since the
  last one.  A worker reports every ``REPORT_EVERY_SEEDS`` seeds or
  violations, and at the first seed boundary after
  ``HEARTBEAT_PERIOD_SECONDS`` without one — so a report is also its
  heartbeat.  The stop event, the heartbeat and the fault-injection
  hooks sit in the worker's seed generator, between seeds, never inside the
  serial loop's steps; the stop event is read at each report and at least
  every 64 seeds between them.
* **Budgets** are enforced in the parent (the only place the global
  violation count and aggregate cost exist): when a
  :class:`~repro.detect.observers.DetectionBudget` trips — the cost after
  a report, the deadline on every result poll — a shared Event tells every
  worker to stop within 64 seeds, and the run reports ``stopped_early``
  exactly like the simulated kernels.  A capped run does
  strictly less work, not a deterministic prefix.

The ``cost`` of a process run is the *aggregate* work performed, in the
units of the serial kernels: PDect's cost and match statistics equal
Dect's on the same input.  Real wall-clock lives in ``wall_time``.
Violations are byte-identical to the serial and simulated paths, and since
every worker reads a whole image, nothing depends on the start method.

**Supervision** has the seed as its unit.  The parent knows which seeds of
a share are unfinished.  When a worker dies (its pipe closes) or stays
silent past ``HEARTBEAT_TIMEOUT_SECONDS`` (it is killed), its unfinished
seeds go to a replacement while ``WORKER_RESTARTS`` lasts; a seed that has
out-lived ``UNIT_RETRIES`` workers is quarantined.  When the
restart budget is spent or seeds were quarantined, the run *degrades*: the
parent finishes those seeds with the serial loop.  Re-executed seeds report
some violations twice; the parent's sets absorb the duplicates.
"""

from __future__ import annotations

import gc
import multiprocessing
import operator
import os
import pickle
import shutil
import tempfile
import threading
import time
import traceback
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Optional, Union

from repro import obs
from repro.detect.base import EXECUTION_MODES, WorkerTrace
from repro.detect.observers import DetectionBudget
from repro.detect.parallel.workunits import WorkUnit
from repro.detect.serial import SerialRun
from repro.graph.graph import Graph
from repro.graph.io import load_graph, save_graph
from repro.matching.plan import MatchPlan
from repro.matching.search import RuleSearch
from repro.testing.faults import resolve_fault_plan

__all__ = [
    "EXECUTION_MODES",
    "resolve_start_method",
    "ExecutionRuntime",
    "ProcessRun",
    "spool_image",
    "load_spooled",
    "note_degraded_run",
]

#: A worker reports once this many seeds finished, or this many violations
#: were found, since its last report (each report wakes the parent).
REPORT_EVERY_SEEDS = 1024

#: Parent-side wait for worker reports before the heartbeat deadlines are checked.
RESULT_POLL_SECONDS = 0.25

#: How long the parent waits for stopped workers to exit before terminating
#: them (a worker stops within 64 seeds).
SHUTDOWN_GRACE_SECONDS = 10.0

#: How many dead workers one run may respawn; past it, a dead worker's
#: unfinished seeds are finished serially in the parent.
WORKER_RESTARTS = 2

#: How many worker deaths one seed may out-live before it is quarantined
#: as poison (finished serially in the parent, where a worker-killing fault
#: cannot follow it).
UNIT_RETRIES = 2

#: A worker reports at the first seed boundary after this long without a
#: report, even with fewer than ``REPORT_EVERY_SEEDS`` seeds to report;
#: ``0`` disables these heartbeats.  A worker receives it in its start
#: arguments, so a spawned worker runs with the parent's value.
HEARTBEAT_PERIOD_SECONDS = 1.0

#: A live worker silent for this long is presumed wedged: the parent kills
#: it (terminate, then SIGKILL) and recovers its seeds just like a death.
#: Generous — recovery is correct either way, so a false positive only
#: costs duplicated (deduplicated) work.
HEARTBEAT_TIMEOUT_SECONDS = 30.0


def note_degraded_run() -> None:
    """Record one run that finished on the serial path after pool trouble."""
    obs.counter_inc("repro_degraded_runs_total")


def resolve_start_method() -> str:
    """Return the multiprocessing start method a run should use.

    ``fork`` (zero-copy image inheritance) where the platform has it and
    the parent is single-threaded, ``spawn`` otherwise.  Forking a
    multi-threaded parent (the detection service runs each kernel on the
    ThreadingHTTPServer thread that serves its request) can clone a lock
    held by another thread and deadlock the child.  This is the one place
    the choice is made; there is no override.  A run starts no thread of its own (its
    channels are pipes), so back-to-back runs from one thread all fork.
    """
    if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
        return "fork"
    return "spawn"


# ------------------------------------------------------------- graph images


def spool_image(graph: Graph, path: Union[str, Path]) -> str:
    """Write one read-only image to ``path`` (the graph/io JSON format) and return the path."""
    path = str(path)
    save_graph(graph, path)
    return path


def load_spooled(path: Union[str, Path]) -> Graph:
    """Load a spooled image onto the frozen engine."""
    return load_graph(path, store="frozen")


# ---------------------------------------------------------------- worker side


@dataclass
class ExecutionRuntime:
    """Everything a worker needs to drain seeds: the plans (each carrying its rule) and the graph images.

    Built once per run in the parent.  ``image`` is the graph an insertion
    (or batch) seed searches (``G``, or ``N_C`` after ΔG); ``before_image``
    is ``N_C`` before ΔG, which an incremental run's deletion seeds search.
    Under ``fork`` the object itself is inherited by the children (nothing
    is pickled); under ``spawn`` each worker receives the pickled copy
    :meth:`spooled` returns — the plans as they are (a plan pickles
    without its schedules and a rule without its generated code, which a
    worker generates again on first use; workers skip the statistics pass
    entirely), and each image as a spool path, loaded on first use.
    """

    plans: tuple[MatchPlan, ...]
    image: Union[Graph, str]
    before_image: Union[Graph, str, None] = None

    def graph_for(self, from_insertion: bool) -> Graph:
        """Return the read-only image a seed of this direction searches."""
        name = "image" if from_insertion or self.before_image is None else "before_image"
        image = getattr(self, name)
        if isinstance(image, str):
            image = load_spooled(image)
            setattr(self, name, image)
        return image

    def spooled(self, spool_dir: str) -> "ExecutionRuntime":
        """Return the ``spawn`` form: this runtime with each image spooled into ``spool_dir``."""
        before = self.before_image
        return replace(
            self,
            image=spool_image(self.image, os.path.join(spool_dir, "image.json")),
            before_image=(
                spool_image(before, os.path.join(spool_dir, "before.json")) if before is not None else None
            ),
        )


class _Worker:
    """One worker incarnation: its serial run, its searches, and what it has not reported yet.

    Messages go over the worker's own pipe: ``("report", [(violation,
    introduced), ...], cost, [seed position, ...], obs)`` — what was found,
    spent and finished since the last report — then ``("exited", stats,
    cost, seeds, obs)`` once, or ``("error", traceback_text)``.  The
    trailing ``obs`` field piggybacks this worker's observability delta
    (:func:`repro.obs.drain_for_shipping`, or None when empty).  Reports
    go out only between seeds, so a seed's violations and its finished mark
    travel in one report: a seed the parent saw finish never runs again.
    """

    def __init__(
        self, worker_id: int, epoch: int, runtime: ExecutionRuntime, channel, stop_event, heartbeat: float
    ) -> None:
        self.runtime, self.channel, self.stop_event = runtime, channel, stop_event
        self.heartbeat = heartbeat
        # incremental: every event carries its direction
        self.run = SerialRun("executor", True, None)
        plan = resolve_fault_plan()
        self.faults = plan.for_worker(worker_id, epoch) if plan is not None else None
        self.found: list = []
        self.finished: list = []
        self.reported_cost = 0.0
        self.seeds = 0
        self.last_report = time.monotonic()
        # the search whose rule's seeds are being drained, and the statistics when its stretch began
        self.open_search = None
        self.open_stats = None

    def drain(self, share: Iterable[tuple[int, WorkUnit]]) -> None:
        """Drain ``share`` with the serial loop, report the rest, then say goodbye."""
        for event in self.run.drain(self._seeds(share), self.runtime.graph_for, (set(), set())):
            self.found.append((event.violation, event.introduced))
        self._report()
        with obs.span("executor.worker", units_processed=self.seeds, cost=round(self.run.cost, 3)):
            pass
        self.channel.send(("exited", self.run.stats, self.run.cost, self.seeds, self._ship()))

    def _seeds(self, share: Iterable[tuple[int, WorkUnit]]) -> Iterator[tuple]:
        """The serial loop's seeds for ``share``, one search per rule; reports between seeds."""
        runtime, stats, faults = self.runtime, self.run.stats, self.faults
        finished, found, heartbeat = self.finished, self.found, self.heartbeat
        clock, node_of = time.monotonic, operator.itemgetter(1)
        searches: dict[int, Any] = {}
        index = search = previous = None
        for position, unit in share:
            if previous is not None:
                # the serial loop asks for the next seed only once the last one is drained
                finished.append(previous)
                if (
                    len(finished) >= REPORT_EVERY_SEEDS
                    or len(found) >= REPORT_EVERY_SEEDS
                    or (heartbeat and clock() - self.last_report >= heartbeat)
                ):
                    if self.stop_event.is_set():
                        return
                    self._report()
                elif len(finished) % 64 == 0 and self.stop_event.is_set():
                    # a stop between reports is seen within 64 seeds
                    return
            if faults is not None:
                faults.on_unit()
            if unit.rule_index != index:
                index = unit.rule_index
                search = searches.get(index)
                if search is None:
                    search = searches[index] = RuleSearch(runtime.plans[index], stats)
                self._attribute(search)
            previous = position
            yield search, unit.order, list(map(node_of, unit.assignment)), unit.from_insertion
        if previous is not None:
            finished.append(previous)

    def _attribute(self, search) -> None:
        """Close the open search's stretch of statistics in its rule's row and open ``search``'s."""
        attribution, stats = self.run.attribution, self.run.stats
        if self.open_search is not None:
            attribution.after(self.open_search.plan.rule.name, self.open_stats, stats)
        self.open_search, self.open_stats = search, attribution.before(stats)

    def _ship(self) -> Optional[dict]:
        """Flush the per-rule counters and drain this worker's observability delta."""
        self._attribute(self.open_search)
        self.run.attribution.emit()
        return obs.drain_for_shipping()

    def _report(self) -> None:
        if self.faults is not None:
            self.faults.on_put()
        self.seeds += len(self.finished)
        if self.finished:
            obs.counter_inc("repro_executor_units_total", None, len(self.finished))
        cost = self.run.cost
        self.channel.send(("report", self.found, cost - self.reported_cost, self.finished, self._ship()))
        # the seed generator holds these lists: empty them, do not replace them
        self.found.clear()
        self.finished.clear()
        self.reported_cost = cost
        self.last_report = time.monotonic()


def _worker_main(
    worker_id: int, epoch: int, runtime: ExecutionRuntime, share, channel, stop_event, heartbeat: float
) -> None:
    """Entry point of one worker process (one *incarnation* of a slot).

    ``runtime`` is the :class:`ExecutionRuntime`, inherited (fork) or
    unpickled with spooled images (spawn); ``share`` maps the position of
    each seed this incarnation drains to its unit, and the worker drains it
    last seed first, as Dect drains a rule's candidates; ``epoch`` counts
    the slot's supervised respawns and selects the faults a
    ``REPRO_FAULTS`` plan arms here; ``heartbeat`` is the parent's
    :data:`HEARTBEAT_PERIOD_SECONDS`.
    """
    try:
        # fresh per-worker observability state: fork children must not carry
        # the parent's samples (their dumps would double-count)
        obs.configure()
        _Worker(worker_id, epoch, runtime, channel, stop_event, heartbeat).drain(reversed(share.items()))
    except Exception:  # noqa: BLE001 - ship the traceback to the parent
        try:
            channel.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - the pipe itself is broken
            pass
    finally:
        channel.close()


# ---------------------------------------------------------------- parent side


@dataclass
class _Slot:
    """One worker slot's live incarnation: its process, its pipe and its unfinished seeds."""

    index: int
    epoch: int
    process: Any
    channel: Any
    #: seed position -> unit, for every seed not yet reported finished
    pending: dict
    last_seen: float


class _Crew:
    """The worker processes of one run, the stop event they share and the spool of their images."""

    def __init__(self, runtime: ExecutionRuntime, method: str) -> None:
        self.context = multiprocessing.get_context(method)
        self.stop_event = self.context.Event()
        self.slots: dict[int, _Slot] = {}
        self.spool_dir: Optional[str] = None
        if method == "fork":
            self.argument = runtime
            return
        self.spool_dir = tempfile.mkdtemp(prefix="repro-exec-")
        try:
            self.argument = runtime.spooled(self.spool_dir)
        except BaseException:
            shutil.rmtree(self.spool_dir, ignore_errors=True)
            raise

    def start(self, index: int, epoch: int, pending: dict) -> None:
        """Start incarnation ``epoch`` of slot ``index`` on the seeds of ``pending``."""
        reader, writer = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=_worker_main,
            args=(index, epoch, self.argument, pending, writer, self.stop_event, HEARTBEAT_PERIOD_SECONDS),
            name=f"repro-exec-{index}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:  # pragma: no cover - start failures are environmental
            reader.close()
            raise
        finally:
            # the child holds the only write end: its death closes the pipe
            writer.close()
        self.slots[index] = _Slot(index, epoch, process, reader, pending, time.monotonic())

    def retire(self, slot: _Slot, grace: float = 0.5) -> None:
        """Make sure a slot's process is gone, escalating join -> terminate -> kill, and close its pipe."""
        process = slot.process
        process.join(timeout=grace)
        if process.is_alive():
            process.terminate()
            process.join(timeout=0.5)
        if process.is_alive():
            process.kill()
            process.join(timeout=0.5)
        slot.channel.close()
        del self.slots[slot.index]

    def receive(self, timeout: float) -> list[tuple[_Slot, tuple]]:
        """Wait up to ``timeout`` for reports; a closed or torn pipe reads as ``("died",)``."""
        channels = {slot.channel: slot for slot in self.slots.values()}
        messages = []
        for channel in wait(list(channels), timeout=timeout):
            try:
                message = channel.recv()
            except (EOFError, OSError, pickle.UnpicklingError):
                # a worker killed mid-send tears its frame; either way it is gone
                message = ("died",)
            messages.append((channels[channel], message))
        return messages

    def close(self, run: "ProcessRun") -> None:
        """Stop every worker, collect the exit reports that come within the grace period, reap the rest."""
        self.stop_event.set()
        deadline = time.monotonic() + SHUTDOWN_GRACE_SECONDS
        while self.slots and time.monotonic() < deadline:
            for slot, message in self.receive(min(0.1, max(0.0, deadline - time.monotonic()))):
                if message[0] in ("exited", "died", "error"):
                    run._absorb_exit(slot, message)
                    self.retire(slot)
        # teardown must terminate whatever state a worker is in: the total
        # wait is bounded by the grace period plus ~1.5 s per straggler, so a
        # wedged worker can never hang the service's request thread
        for slot in list(self.slots.values()):
            self.retire(slot, max(0.0, min(0.5, deadline - time.monotonic())))
        if self.spool_dir is not None:
            shutil.rmtree(self.spool_dir, ignore_errors=True)


class ProcessRun(SerialRun):
    """One parallel kernel run on worker processes: the map of its seeds, its failures, the serial tail.

    ``images`` are the runtime's ``(image, before_image)``, what the workers
    search (:class:`ExecutionRuntime`).  ``base_cost`` counts the parent-side
    charges (PIncDect's neighbourhood extraction) toward ``cost`` and the
    ``max_cost`` budget.  The run is a :class:`SerialRun` too: its serial
    loop is the degradation tail.
    """

    counts_each_violation = True

    def __init__(
        self,
        algorithm: str,
        incremental: bool,
        plans: Sequence[MatchPlan],
        processors: int,
        budget: Optional[DetectionBudget],
        images: tuple,
        base_cost: float = 0.0,
    ) -> None:
        super().__init__(algorithm, incremental, budget)
        self.plans = plans
        self.processors, self.images = processors, images
        self.cost = base_cost
        self.worker_traces = [WorkerTrace(worker=index) for index in range(processors)]
        #: Supervised worker respawns performed during this run.
        self.restarts = 0
        #: Seeds re-run (or quarantined) after a worker death.
        self.units_retried = 0
        #: Seeds that exceeded the per-seed retry cap — poison the run
        #: finishes on the serial path.
        self.quarantined: list[WorkUnit] = []
        #: Set when part of the run was drained serially.
        self.degraded = False

    def runtime(self) -> ExecutionRuntime:
        """What every worker of this run searches with."""
        return ExecutionRuntime(tuple(self.plans), *self.images)

    def charge_scan(self, candidates: int, scanned: float) -> None:
        """Charge a first-step scan the parent ran: its size, as Dect charges it."""
        self.cost += scanned

    def outcome(self) -> dict:
        """The result fields the run decides: its statistics, aggregate cost, worker traces, stop and degradation."""
        return dict(super().outcome(), worker_traces=self.worker_traces, degraded=self.degraded)

    def drain(self, seeds, graph_for, dedupe: tuple) -> Iterator:
        """Map the seeds over the workers, then finish what they could not, yielding each new violation.

        ``seeds`` are ``(worker, unit, queued)`` placements, as the simulator
        takes them; a process run drains every unit on its worker.  Findings
        are new against ``dedupe[0]`` (introduced) or ``dedupe[1]``
        (removed); the parent's sets absorb the duplicates a re-run seed
        reports again.  When the restart budget is spent or seeds were
        quarantined, the run *degrades*: those seeds, last first, are
        finished by the serial loop (:meth:`SerialRun.drain`) against the
        parent's full graphs, ``graph_for(from_insertion)`` — supersets of
        any worker's image, so expansion yields the same matches.  Fault
        injection lives only in worker processes, so a seed that reliably
        killed workers completes there.  The rules' attribution is flushed
        when the run ends, also when its consumer stops early.
        """
        # A large graph is millions of objects, and the seeds add a few per
        # candidate.  Frozen, the graph is skipped by the collections the seeds'
        # allocation sets off, and a forked worker's collector never writes to
        # the pages it shares with the parent (CPython's ``gc.freeze`` idiom).
        gc.freeze()
        try:
            shares: list[dict] = [{} for _ in range(self.processors)]
            for position, (worker, unit, _) in enumerate(seeds):
                shares[worker][position] = unit
            leftovers = (yield from self._map(shares, dedupe)) if any(shares) else []
            leftovers += self.quarantined
            if leftovers and self.stop_reason is None:
                self.degraded = True
                note_degraded_run()
                yield from super().drain(self._serial_seeds(leftovers), graph_for, dedupe)
                if self.stop_reason is None and self.quarantined:
                    self.stop_reason = "units_quarantined"
        finally:
            gc.unfreeze()
            self.flush()

    def _map(self, shares: list[dict], dedupe: tuple) -> Iterator:
        """Run each non-empty share on its own worker, yielding new violations.

        Returns the seeds no worker will finish: those of a worker that died
        once the restart budget was spent.  The cost budget is tested after
        each report, the deadline also after each poll without one; no poll
        waits past the deadline.
        """
        timeout = HEARTBEAT_TIMEOUT_SECONDS
        deadline = self.budget.deadline if self.budget is not None else None
        retries: dict[int, int] = {}
        leftovers: list[WorkUnit] = []
        crew: Optional[_Crew] = None
        try:
            crew = _Crew(self.runtime(), resolve_start_method())
            for index, share in enumerate(shares):
                if share:
                    crew.start(index, 0, share)
            while crew.slots:
                wait = RESULT_POLL_SECONDS
                if deadline is not None:
                    wait = max(0.0, min(wait, deadline - time.monotonic()))
                for slot, message in crew.receive(wait):
                    slot.last_seen = time.monotonic()
                    kind = message[0]
                    if kind == "report":
                        _, found, cost, finished, shipped = message
                        obs.absorb_shipped(shipped, {"worker": slot.index})
                        for position in finished:
                            slot.pending.pop(position, None)
                        self.cost += cost
                        for violation, introduced in found:
                            if (yield from self.emit((violation,), introduced, dedupe)):
                                return leftovers
                        if self.cost_exhausted():
                            return leftovers
                    elif kind == "exited":
                        self._absorb_exit(slot, message)
                        crew.retire(slot)
                    else:
                        # "error" or "died": one bad seed must not abort the run — a
                        # deterministic fault ends up quarantined and re-raised by the
                        # serial tail instead
                        if kind == "error":
                            obs.counter_inc("repro_worker_errors_total")
                        leftovers += self._recover(crew, slot, retries)
                if self.cost_exhausted():
                    return leftovers
                if timeout > 0.0:
                    now = time.monotonic()
                    for slot in [slot for slot in crew.slots.values() if now - slot.last_seen > timeout]:
                        # silent past the deadline: presumed wedged, killed by the
                        # recovery; if it was merely slow, re-execution is deduplicated
                        leftovers += self._recover(crew, slot, retries)
            return leftovers
        finally:
            if crew is not None:
                crew.close(self)

    def _recover(self, crew: _Crew, slot: _Slot, retries: dict) -> list:
        """Reap a failed worker and re-run its unfinished seeds on a replacement.

        Returns the seeds left for the serial tail (the restart budget is spent).
        """
        crew.retire(slot, grace=0.0)
        reship: dict = {}
        for position, unit in slot.pending.items():
            retries[position] = retries.get(position, 0) + 1
            if retries[position] > UNIT_RETRIES:
                self.quarantined.append(unit)
            else:
                reship[position] = unit
        if slot.pending:
            self.units_retried += len(slot.pending)
            obs.counter_inc("repro_units_retried_total", None, len(slot.pending))
        if not reship:
            return []
        if self.restarts >= WORKER_RESTARTS:
            return list(reship.values())
        self.restarts += 1
        obs.counter_inc("repro_worker_restarts_total")
        crew.start(slot.index, slot.epoch + 1, reship)
        return []

    def _absorb_exit(self, slot: _Slot, message: tuple) -> None:
        """Merge a worker's exit report into the run's statistics and traces."""
        if message[0] != "exited":
            return
        _, stats, cost, seeds, shipped = message
        obs.absorb_shipped(shipped, {"worker": slot.index})
        self.stats.merge(stats)
        trace = self.worker_traces[slot.index]
        trace.busy_time += cost
        trace.work_units_processed += seeds

    def _serial_seeds(self, units: Sequence[WorkUnit]) -> Iterator[tuple]:
        """The serial loop's seeds for ``units``, last unit first, one search per rule."""
        searches: dict[int, Any] = {}
        for unit in reversed(list(dict.fromkeys(units))):
            index = unit.rule_index
            if index not in searches:
                searches[index] = RuleSearch(self.plans[index], self.stats)
            yield searches[index], unit.order, [node for _, node in unit.assignment], unit.from_insertion
