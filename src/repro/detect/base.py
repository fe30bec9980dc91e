"""Common result types for the detection algorithms.

All detection algorithms (batch, incremental, parallel) report their outcome
through :class:`DetectionResult` / :class:`IncrementalDetectionResult`.  Two
cost measures are carried side by side:

* ``wall_time`` — elapsed Python time, what pytest-benchmark measures;
* ``cost`` — the number of algorithmic work units performed (candidate
  examinations, expansions, edge checks, literal evaluations), plus simulated
  communication charges for the parallel algorithms.

The paper's figures plot running time on a 20-machine Java cluster; this
reproduction plots ``cost`` (and, for the parallel algorithms, the simulated
makespan in the same units), which preserves the *shapes* the paper reports
while staying deterministic and hardware-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.violations import ViolationDelta, ViolationSet
from repro.matching.candidates import MatchStatistics

__all__ = ["DetectionResult", "EXECUTION_MODES", "IncrementalDetectionResult", "WorkerTrace"]

#: The execution regimes the parallel kernels accept (``DetectionOptions.execution``).
EXECUTION_MODES = ("simulated", "processes")


@dataclass
class WorkerTrace:
    """Per-worker accounting from a parallel run (used by the balancing analyses)."""

    worker: int
    busy_time: float = 0.0
    work_units_processed: int = 0
    units_received: int = 0
    units_shed: int = 0
    messages_sent: int = 0


@dataclass
class DetectionResult:
    """Outcome of a batch detection run (Dect / PDect)."""

    violations: ViolationSet
    stats: MatchStatistics = field(default_factory=MatchStatistics)
    wall_time: float = 0.0
    cost: float = 0.0
    processors: int = 1
    worker_traces: list[WorkerTrace] = field(default_factory=list)
    algorithm: str = "Dect"
    stopped_early: bool = False
    stop_reason: Optional[str] = None
    #: True when part of an ``execution="processes"`` run was completed on
    #: the parent's serial path after the worker pool collapsed or poison
    #: units were quarantined.  The violations are still exact — only the
    #: parallelism degraded.
    degraded: bool = False
    #: trace id of the observability span tree covering this run (None when
    #: the run was not driven through a Detector session or REPRO_OBS=off)
    trace_id: Optional[str] = None

    def violation_count(self) -> int:
        """Return |Vio(Σ, G)| (a lower bound when ``stopped_early``)."""
        return len(self.violations)


@dataclass
class IncrementalDetectionResult:
    """Outcome of an incremental detection run (IncDect / PIncDect)."""

    delta: ViolationDelta
    stats: MatchStatistics = field(default_factory=MatchStatistics)
    wall_time: float = 0.0
    cost: float = 0.0
    processors: int = 1
    worker_traces: list[WorkerTrace] = field(default_factory=list)
    algorithm: str = "IncDect"
    neighborhood_size: Optional[int] = None
    stopped_early: bool = False
    stop_reason: Optional[str] = None
    #: True when part of an ``execution="processes"`` run was completed on
    #: the parent's serial path after the worker pool collapsed or poison
    #: units were quarantined.  ΔVio is still exact — only the parallelism
    #: degraded.
    degraded: bool = False
    #: trace id of the observability span tree covering this run (None when
    #: the run was not driven through a Detector session or REPRO_OBS=off)
    trace_id: Optional[str] = None

    def introduced(self) -> ViolationSet:
        """Return ΔVio⁺."""
        return self.delta.introduced

    def removed(self) -> ViolationSet:
        """Return ΔVio⁻."""
        return self.delta.removed

    def total_changes(self) -> int:
        """Return |ΔVio⁺| + |ΔVio⁻|."""
        return self.delta.total_changes()
