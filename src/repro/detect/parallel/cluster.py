"""A deterministic shared-nothing cluster simulator.

The paper evaluates PIncDect on a cluster of up to 20 machines.  Offline and
on a single host we cannot reproduce wall-clock cluster behaviour, so the
parallel algorithms run on this simulator instead: the *algorithmic work* is
executed exactly once (so the violations found are real), but every unit of
work is *charged* to the simulated clock of the worker that would have
performed it, and every broadcast is charged the latency parameter ``C`` the
paper's cost model uses.

The reported "parallel running time" of a run is the **makespan** — the
largest worker clock when all queues drain.  Because scheduling, splitting
and balancing decisions are driven by the same cost estimates as the paper's
algorithm, the makespan reproduces the shapes of Figures 4(i)–(n): more
processors → shorter makespan, skewed work without splitting/balancing →
longer makespan, too-small latency / balancing interval → communication
overhead dominates.

:class:`SimulatedRun` is the one scheduling loop over the simulator that
PDect and PIncDect share: the cost budget, the periodic η/η′
redistribution, the split charging of each step, child enqueueing,
deduplication, the violation budget and the per-rule attribution.
The two kernels differ only in their seeds — every first-step candidate of
``G``, or the update pivots of ΔG — and in the graph a seed is searched in.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.detect.base import WorkerTrace
from repro.detect.observers import DetectionBudget
from repro.detect.parallel.balancing import (
    BalancingPolicy,
    plan_rebalancing,
    rebalancing_pays,
    should_split_planned,
    skewness,
)
from repro.detect.parallel.workunits import WorkUnit, expand_work_unit
from repro.detect.serial import KernelRun
from repro.errors import ClusterError

__all__ = ["ClusterSimulator", "SimulatedRun"]


@dataclass
class _Worker:
    """One simulated processor: a clock and a queue of pending work units."""

    index: int
    clock: float = 0.0
    queue: list = field(default_factory=list)
    trace: WorkerTrace = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.trace is None:
            self.trace = WorkerTrace(worker=self.index)


class ClusterSimulator:
    """``p`` simulated workers with per-worker clocks and communication charges."""

    def __init__(self, processors: int, latency: float) -> None:
        if processors < 1:
            raise ClusterError("a cluster needs at least one processor")
        if latency < 0:
            raise ClusterError("communication latency cannot be negative")
        self.processors = processors
        self.latency = latency
        self._workers = [_Worker(index=i) for i in range(processors)]
        self.total_messages = 0

    # ----------------------------------------------------------------- clocks

    def charge(self, worker: int, amount: float) -> None:
        """Advance one worker's clock by ``amount`` work units."""
        if amount < 0:
            raise ClusterError("cannot charge negative work")
        target = self._workers[worker]
        target.clock += amount
        target.trace.busy_time += amount

    def charge_broadcast(self, origin: int, per_worker_amount: float, setup_cost: float) -> None:
        """Charge a split (broadcast) step.

        Every worker contributes its ``|adj|/p`` share (``per_worker_amount``)
        of the compute; the origin additionally pays the ``C·(k+1)`` broadcast
        and gather latency (``setup_cost``) because it must wait for the
        round-trip before the unit can continue.  Helpers overlap the message
        latency with their own compute, so they are charged the share only —
        this is what makes splitting worthwhile exactly when the paper's cost
        estimate says it is.
        """
        for worker in self._workers:
            worker.clock += per_worker_amount
            worker.trace.busy_time += per_worker_amount
        self._workers[origin].clock += setup_cost
        self._workers[origin].trace.busy_time += setup_cost
        self._workers[origin].trace.messages_sent += self.processors
        self.total_messages += self.processors

    def makespan(self) -> float:
        """Return the simulated parallel running time (maximum worker clock)."""
        return max(worker.clock for worker in self._workers)

    # ----------------------------------------------------------------- queues

    def enqueue(self, worker: int, unit: object) -> None:
        """Append a work unit to a worker's queue (BVio_i in the paper)."""
        self._workers[worker].queue.append(unit)
        self._workers[worker].trace.units_received += 1

    def queue_lengths(self) -> list[int]:
        """Return every worker's queue length."""
        return [len(worker.queue) for worker in self._workers]

    def pop_unit(self, worker: int) -> object:
        """Pop the next work unit from a worker's queue (LIFO: depth-first expansion)."""
        target = self._workers[worker]
        if not target.queue:
            raise ClusterError(f"worker {worker} has no pending work")
        target.trace.work_units_processed += 1
        return target.queue.pop()

    def move_units(self, origin: int, destination: int, count: int) -> int:
        """Move up to ``count`` pending units from ``origin`` to ``destination``.

        Moved units come from the back of the origin queue — the most recently
        generated partial solutions, i.e. the batch that just made the queue
        skewed — so a straggler sheds exactly the work that piled up on it.
        Returns the number actually moved.  A move counts one message and
        charges no clock: a balancing round ships its moves pipelined and
        charges each participant its latency once via :meth:`charge`.
        """
        source = self._workers[origin]
        target = self._workers[destination]
        moved = 0
        while moved < count and source.queue:
            target.queue.append(source.queue.pop())
            moved += 1
        if moved:
            source.trace.units_shed += moved
            target.trace.units_received += moved
            source.trace.messages_sent += 1
            self.total_messages += 1
        return moved

    def next_busy_worker(self) -> int | None:
        """Return the worker with pending work and the smallest clock, or None when all queues are empty."""
        candidates = [w for w in self._workers if w.queue]
        if not candidates:
            return None
        return min(candidates, key=lambda w: (w.clock, w.index)).index

    def has_pending_work(self) -> bool:
        """Return True while any queue is non-empty."""
        return any(worker.queue for worker in self._workers)

    def traces(self) -> list[WorkerTrace]:
        """Return per-worker accounting for the balancing analyses."""
        return [worker.trace for worker in self._workers]


class SimulatedRun(KernelRun):
    """One parallel kernel run on a :class:`ClusterSimulator`: its clocks, its loop, what it emitted.

    The run's ``cost`` is the makespan.  A work unit is expanded with the
    plan at its rule index; every expansion's statistics go to ``stats``,
    and to its rule's row of the run's attribution.
    """

    def __init__(
        self,
        algorithm: str,
        incremental: bool,
        plans,
        processors: int,
        policy: BalancingPolicy,
        budget: Optional[DetectionBudget],
    ) -> None:
        super().__init__(algorithm, incremental, budget)
        self.cluster = ClusterSimulator(processors, policy.latency)
        self.plans = plans
        self.processors, self.policy = processors, policy

    @property
    def cost(self) -> float:
        """The makespan so far."""
        return self.cluster.makespan()

    def charge_scan(self, candidates: int, scanned: float) -> None:
        """Charge a first-step scan of ``candidates`` seeds: shared evenly by the processors, one broadcast."""
        self.cluster.charge_broadcast(0, candidates / self.processors, self.policy.latency)

    def outcome(self) -> dict:
        """The result fields the run decides: its statistics, makespan, worker traces and stop."""
        return dict(super().outcome(), worker_traces=self.cluster.traces())

    def drain(self, seeds: Iterable[tuple[int, WorkUnit, bool]], graph_for, dedupe: tuple) -> Iterator:
        """Place every seed, then run the cluster until its queues drain, yielding each new violation.

        ``seeds`` are ``(worker, unit, queued)``: a queued unit joins
        ``worker``'s queue; any other is decided at once on ``worker`` and
        charged its one step (PDect's single-variable candidates).  A unit is
        expanded in ``graph_for(unit.from_insertion)`` and its findings are
        new against ``dedupe[0]`` (introduced) or ``dedupe[1]`` (removed).
        The cost budget is tested after each decided seed, when seeding ends
        and before each unit the loop pops; the violation budget after each
        violation.  The rules' attribution is flushed when the run ends, also
        when its consumer stops early.
        """
        cluster = self.cluster
        try:
            for worker, unit, queued in seeds:
                if queued:
                    cluster.enqueue(worker, unit)
                    continue
                outcome = self._expand(unit, graph_for)
                cluster.charge(worker, float(max(outcome.filtering_adjacency, 1) + outcome.verification_adjacency))
                if (yield from self.emit(outcome.violations, unit.from_insertion, dedupe)) or self.cost_exhausted():
                    return
            if not self.cost_exhausted():
                yield from self._schedule(graph_for, dedupe)
        finally:
            self.flush()

    def _schedule(self, graph_for, dedupe: tuple) -> Iterator:
        """Pop the least-advanced worker's next unit until every queue is empty or a cap is reached."""
        cluster, policy = self.cluster, self.policy
        last_balance = 0.0
        work_done = 0.0
        units_done = 0
        while cluster.has_pending_work():
            if self.cost_exhausted():
                return
            # monitoring at interval intvl runs off the makespan: elapsed time in the real system is the
            # busiest worker's; a minimum would freeze once one worker idles, a mean slow down as p grows
            if policy.enable_rebalancing and cluster.makespan() - last_balance >= policy.interval:
                last_balance = cluster.makespan()
                self._rebalance(work_done / units_done if units_done else 0.0)
            worker = cluster.next_busy_worker()
            unit: WorkUnit = cluster.pop_unit(worker)
            outcome = self._expand(unit, graph_for)
            depth = unit.depth()
            filtering = max(outcome.filtering_adjacency, 1)
            self._charge(worker, unit, filtering, depth)
            # verification may be split as well, with a k+2 broadcast term
            verification = outcome.verification_adjacency
            if verification:
                self._charge(worker, unit, verification, depth + 1)
            work_done += filtering + verification
            units_done += 1
            for new_unit in outcome.new_units:
                cluster.enqueue(worker, new_unit)
            if (yield from self.emit(outcome.violations, unit.from_insertion, dedupe)):
                return

    def _charge(self, worker: int, unit: WorkUnit, size: int, depth: int) -> None:
        """Charge ``size`` to ``worker``, or split it across the cluster when that pays.

        The split decision weighs the plan's remaining-subtree estimate
        (:func:`~repro.detect.parallel.balancing.should_split_planned`); the
        charges are actual sizes.
        """
        policy, processors = self.policy, self.processors
        if policy.enable_splitting and should_split_planned(
            self.plans[unit.rule_index].remaining_cost(unit.order, depth), size, depth, processors, policy.latency
        ):
            self.cluster.charge_broadcast(worker, size / processors, policy.latency * (depth + 1))
        else:
            self.cluster.charge(worker, float(size))

    def _rebalance(self, average_unit_cost: float) -> None:
        """Move units from queues above η to queues below η′ when shipping them pays.

        Redistributing a near-empty system only buys message latency, so it
        runs only when some queue holds a meaningful batch of pending units
        and the move beats the per-participant message cost at the observed
        average unit cost.
        """
        cluster, policy = self.cluster, self.policy
        lengths = cluster.queue_lengths()
        if max(lengths) < 4 or not any(value > policy.eta for value in skewness(lengths)):
            return
        moves = plan_rebalancing(lengths, policy.eta, policy.eta_prime)
        if not rebalancing_pays(moves, policy.latency, average_unit_cost):
            return
        participants: set[int] = set()
        for origin, destination, count in moves:
            if cluster.move_units(origin, destination, count):
                participants.add(origin)
                participants.add(destination)
                obs.counter_inc("repro_executor_steals_total", {"mode": "simulated"}, count)
        for worker_index in participants:
            cluster.charge(worker_index, policy.latency)

    def _expand(self, unit: WorkUnit, graph_for):
        plan, stats = self.plans[unit.rule_index], self.stats
        before = self.attribution.before(stats)
        outcome = expand_work_unit(graph_for(unit.from_insertion), unit, stats, plan)
        self.attribution.after(plan.rule.name, before, stats)
        return outcome
