"""Streaming observers and termination budgets for the detection kernels.

The paper's four algorithms (Dect, IncDect, PDect, PIncDect) compute
``Vio(Σ, G)`` (or its delta) as one monolithic batch; downstream consumers —
repair pipelines, dashboards, the CLI — usually want violations *as they are
found* and often only need the first few.  This module supplies the two
building blocks the kernels share to support that natively:

* :class:`ViolationSink` — an observer notified of every violation the
  moment its work unit completes (before the run finishes);
* :class:`DetectionBudget` — early-termination limits (``max_violations``,
  ``max_cost``) enforced *inside* the kernels, so a capped run really does
  less work instead of discarding surplus results.

Both are threaded through the kernels as optional keyword arguments; the
:class:`~repro.detect.session.Detector` session wires them up from
:class:`~repro.detect.session.DetectionOptions`.

Threading contract
------------------

A single detection run notifies its sink from one thread: the generator
kernels call ``on_violation`` from whichever thread is consuming the
iterator, and the simulated parallel engines (PDect / PIncDect) notify in
*worker completion order* but still from the consuming thread.  The
detection service (:mod:`repro.service`) breaks that assumption: it shares
sinks across concurrently-running sessions served by
:class:`http.server.ThreadingHTTPServer` worker threads, so a sink instance
may receive interleaved ``on_violation`` / ``on_finish`` calls from several
threads at once.

The rule is therefore: a sink attached to exactly one :class:`Detector`
used from one thread may be as simple as it likes; **any sink shared
between sessions or threads must serialise its own state changes**.  The
sinks shipped here follow it — :class:`CollectingSink` guards its violation
sets and :class:`FanOutSink` holds an internal lock across each broadcast
so children observe every event atomically and in a consistent order.

Exception contract
------------------

A sink is an *observer*: it must never be able to abort the detection that
feeds it.  Every kernel therefore notifies sinks through the
``notify_start`` / ``notify_violation`` / ``notify_finish`` helpers below,
which catch any exception the sink raises, log it once (logger
``repro.detect.sink``), count it in the ``repro_sink_errors_total{method}``
metric, and carry on.  The stream the consumer sees — violations yielded,
the final result — is byte-identical whether a sink raises or not.
(Before this contract, a raising sink had kernel-dependent behavior:
some kernels crashed mid-run, others lost violations.)  Sinks that need
their errors surfaced should catch and report them on their own channel.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.core.violations import Violation, ViolationSet
from repro.errors import SessionError

__all__ = [
    "ViolationSink",
    "CollectingSink",
    "CallbackSink",
    "FanOutSink",
    "ViolationEvent",
    "DetectionBudget",
    "drain",
    "notify_start",
    "notify_violation",
    "notify_finish",
]

_logger = logging.getLogger("repro.detect.sink")


def _sink_error(method: str, exc: BaseException) -> None:
    obs.counter_inc("repro_sink_errors_total", {"method": method})
    _logger.warning("violation sink raised in %s (ignored): %r", method, exc)


def notify_start(sink: Optional["ViolationSink"], detector: object) -> None:
    """Call ``sink.on_start``; a raising sink is logged + counted, never fatal."""
    if sink is None:
        return
    try:
        sink.on_start(detector)
    except Exception as exc:
        _sink_error("on_start", exc)


def notify_violation(
    sink: Optional["ViolationSink"], violation: Violation, introduced: bool = True
) -> None:
    """Call ``sink.on_violation``; a raising sink is logged + counted, never fatal."""
    if sink is None:
        return
    try:
        sink.on_violation(violation, introduced)
    except Exception as exc:
        _sink_error("on_violation", exc)


def notify_finish(sink: Optional["ViolationSink"], result: object) -> None:
    """Call ``sink.on_finish``; a raising sink is logged + counted, never fatal."""
    if sink is None:
        return
    try:
        sink.on_finish(result)
    except Exception as exc:
        _sink_error("on_finish", exc)


@dataclass(frozen=True)
class ViolationEvent:
    """One streamed finding: the violation plus its direction.

    ``introduced`` is always True for batch detection; incremental runs use
    False to flag a violation *removed* by the update (ΔVio⁻).
    """

    violation: Violation
    introduced: bool = True


class ViolationSink:
    """Observer protocol for streaming detection.

    Subclass and override any subset; the base methods are no-ops so sinks
    only pay for what they watch.  ``on_violation`` is invoked by the
    detection kernels the moment a violating match is confirmed — i.e. before
    the run completes — so sinks must not mutate the graph being searched.
    """

    def on_start(self, detector: object) -> None:
        """Called once by the session before the kernel starts."""

    def on_violation(self, violation: Violation, introduced: bool = True) -> None:
        """Called for every violation as its work unit completes."""

    def on_finish(self, result: object) -> None:
        """Called once with the final result object (including early stops)."""


class CollectingSink(ViolationSink):
    """A sink that accumulates streamed violations into violation sets.

    Safe to share between concurrently-running detections: additions to the
    violation sets and the results list are serialised by an internal lock
    (see the module's threading contract).
    """

    def __init__(self) -> None:
        self.introduced = ViolationSet()
        self.removed = ViolationSet()
        self.results: list[object] = []
        self._lock = threading.Lock()

    @property
    def violations(self) -> ViolationSet:
        """The violations of a batch run (alias for ``introduced``)."""
        return self.introduced

    def on_violation(self, violation: Violation, introduced: bool = True) -> None:
        with self._lock:
            (self.introduced if introduced else self.removed).add(violation)

    def on_finish(self, result: object) -> None:
        with self._lock:
            self.results.append(result)


class CallbackSink(ViolationSink):
    """Adapt a plain callable ``fn(violation, introduced)`` into a sink."""

    def __init__(self, callback: Callable[[Violation, bool], object]) -> None:
        self._callback = callback

    def on_violation(self, violation: Violation, introduced: bool = True) -> None:
        self._callback(violation, introduced)


class FanOutSink(ViolationSink):
    """Broadcast every notification to a list of child sinks, in order.

    Thread-safe: an internal lock is held across each whole broadcast, so
    when the fan-out is shared between sessions (as the detection service
    does) every child sink sees each event exactly once, events are never
    interleaved mid-broadcast, and all children observe the same order.
    Child sinks therefore need no locking of their own *against siblings*,
    though a child also attached elsewhere must still guard itself.
    """

    def __init__(self, sinks: Iterable[ViolationSink]) -> None:
        self._sinks = tuple(sinks)
        self._lock = threading.Lock()

    def on_start(self, detector: object) -> None:
        with self._lock:
            for sink in self._sinks:
                sink.on_start(detector)

    def on_violation(self, violation: Violation, introduced: bool = True) -> None:
        with self._lock:
            for sink in self._sinks:
                sink.on_violation(violation, introduced)

    def on_finish(self, result: object) -> None:
        with self._lock:
            for sink in self._sinks:
                sink.on_finish(result)


@dataclass(frozen=True)
class DetectionBudget:
    """Early-termination limits enforced inside the detection kernels.

    * ``max_violations`` — stop as soon as this many violations have been
      emitted (for incremental runs: ΔVio⁺ and ΔVio⁻ events combined);
    * ``max_cost`` — stop once the run's cost measure (work units for the
      sequential kernels, simulated makespan for the parallel ones) reaches
      this bound.

    A capped run reports ``stopped_early=True`` and the triggering limit in
    ``stop_reason`` on its result; the violations found up to that point are
    exact members of the full answer (the kernels only ever emit confirmed
    matches), the run is simply incomplete.

    Caps must leave the kernel something to do: ``max_violations`` at least
    1, ``max_cost`` positive (the kernels check exhaustion after emitting /
    charging, so a zero cap could not be honoured exactly).
    """

    max_violations: Optional[int] = None
    max_cost: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_violations is not None and self.max_violations < 1:
            raise SessionError(
                f"max_violations must be >= 1, got {self.max_violations}"
            )
        if self.max_cost is not None and self.max_cost <= 0:
            raise SessionError(f"max_cost must be > 0, got {self.max_cost}")

    def violations_exhausted(self, emitted: int) -> bool:
        """Return True once ``emitted`` violations hit the cap."""
        return self.max_violations is not None and emitted >= self.max_violations

    def cost_exhausted(self, cost: float) -> bool:
        """Return True once the cost measure hits the cap."""
        return self.max_cost is not None and cost >= self.max_cost


def drain(events: Iterator) -> object:
    """Run a detection event iterator to completion and return its result.

    The kernels are generators that *yield* violations (or
    :class:`ViolationEvent`\\ s) and *return* their result object; ``drain``
    is the batch-mode consumer that discards the stream and keeps the result.
    """
    while True:
        try:
            next(events)
        except StopIteration as stop:
            return stop.value
