"""The stream's event type and the termination budget the detection kernels share.

The paper's four algorithms (Dect, IncDect, PDect, PIncDect) compute
``Vio(Σ, G)`` (or its delta) as one monolithic batch; downstream consumers —
repair pipelines, dashboards, the CLI, the service — usually want violations
*as they are found* and often only need the first few.  The kernels are
generators, so :meth:`Detector.stream <repro.detect.session.Detector.stream>`
yields each violation the moment it is confirmed, and this module supplies
what they share around that stream:

* :class:`ViolationEvent` — one incremental finding and its ΔVio direction;
* :class:`DetectionBudget` — early-termination limits (``max_violations``,
  ``max_cost``, a ``deadline``) enforced *inside* the kernels, so a capped
  run really does less work instead of discarding surplus results;
* :func:`drain` — the batch consumer that runs a kernel to its result.

The :class:`~repro.detect.session.Detector` session builds the budget from
:class:`~repro.detect.session.DetectionOptions`.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional

from repro.core.violations import Violation
from repro.errors import SessionError

__all__ = ["ViolationEvent", "DetectionBudget", "drain"]


@dataclass(frozen=True)
class ViolationEvent:
    """One streamed finding: the violation plus its direction.

    ``introduced`` is always True for batch detection; incremental runs use
    False to flag a violation *removed* by the update (ΔVio⁻).
    """

    violation: Violation
    introduced: bool = True


@dataclass(frozen=True)
class DetectionBudget:
    """Early-termination limits enforced inside the detection kernels.

    * ``max_violations`` — stop as soon as this many violations have been
      emitted (for incremental runs: ΔVio⁺ and ΔVio⁻ events combined);
    * ``max_cost`` — stop once the run's cost measure (work units for the
      sequential kernels, simulated makespan for the parallel ones) reaches
      this bound;
    * ``deadline`` — stop once ``time.monotonic()`` reaches this instant.
      It is tested wherever ``max_cost`` is, so the run stops within one
      search step of it (within one result poll on worker processes).

    A capped run reports ``stopped_early=True`` and the triggering limit in
    ``stop_reason`` on its result; the violations found up to that point are
    exact members of the full answer (the kernels only ever emit confirmed
    matches), the run is simply incomplete.

    Caps must leave the kernel something to do: ``max_violations`` at least
    1, ``max_cost`` positive (the kernels check exhaustion after emitting /
    charging, so a zero cap could not be honoured exactly) and finite (NaN
    compares false with every cost, so it would silently mean "unbounded").
    """

    max_violations: Optional[int] = None
    max_cost: Optional[float] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_violations is not None and self.max_violations < 1:
            raise SessionError(
                f"max_violations must be >= 1, got {self.max_violations}"
            )
        if self.max_cost is not None and not 0 < self.max_cost < math.inf:
            raise SessionError(f"max_cost must be a finite number > 0, got {self.max_cost}")

    def violations_exhausted(self, emitted: int) -> bool:
        """Return True once ``emitted`` violations hit the cap."""
        return self.max_violations is not None and emitted >= self.max_violations

    def cost_exhausted(self, cost: float) -> bool:
        """Return True once the cost measure hits the cap."""
        return self.max_cost is not None and cost >= self.max_cost

    def past_deadline(self) -> bool:
        """Return True once the monotonic clock has reached the deadline."""
        return self.deadline is not None and time.monotonic() >= self.deadline


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
