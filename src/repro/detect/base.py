"""Common result types for the detection algorithms.

All detection algorithms (batch, incremental, parallel) report their outcome
through :class:`DetectionResult` / :class:`IncrementalDetectionResult`.  Two
cost measures are carried side by side:

* ``wall_time`` — elapsed Python time;
* ``cost`` — the work the search performed: per expansion step the anchor's
  scan plus one unit per candidate verified (Dect also charges its seed
  scans, IncDect one unit per consistent update pivot), plus simulated
  communication and ``N_C(ΔG, Σ)`` replication charges for the parallel
  algorithms.  IncDect's cost leaves out ``|G_dΣ(ΔG)|``, which it never
  extracts; the paper's cost model charges it, so ``benchmarks/sweeps.py``
  adds ``neighborhood_size`` back.

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
    #: the run was not driven through a Detector session)
    trace_id: Optional[str] = None

    def violation_count(self) -> int:
        """Return |Vio(Σ, G)| (a lower bound when ``stopped_early``)."""
        return len(self.violations)


@dataclass
class IncrementalDetectionResult:
    """Outcome of an incremental detection run (IncDect / PIncDect).

    ``neighborhood_size`` is ``|G_dΣ(ΔG)|``, the size of the region the
    localizability bound of Section 6.2 is stated in.  PIncDect, which
    replicates that region, sets it; IncDect, whose search never needs the
    region, leaves it to :meth:`measure_neighborhood_on_read`, so the BFS
    runs only for a caller that reads it.
    """

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
    #: the run was not driven through a Detector session)
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

    def measure_neighborhood_on_read(self, graph, sources, hops: int) -> None:
        """Make ``neighborhood_size`` ``|V_hops(sources)|`` in ``graph``, counted when first read.

        One :func:`~repro.graph.neighborhood.multi_source_nodes_within_hops`
        then, after which the count is kept and ``graph`` is let go.  ``graph``
        (the run's own ``G ⊕ ΔG`` snapshot) must not be written in place in
        between; copying it is fine — the next ``apply_update`` makes the copy
        the head, and ``graph`` reads on unchanged as a past version.
        """
        self.__dict__["_pending_neighborhood"] = (graph, sources, hops)

    def __getstate__(self) -> dict:
        # a pickled result carries the count, never the snapshot it is counted in
        _neighborhood_size(self)
        return self.__dict__


def _neighborhood_size(result: IncrementalDetectionResult) -> Optional[int]:
    pending = result.__dict__.pop("_pending_neighborhood", None)
    if pending is not None:
        from repro.graph.neighborhood import multi_source_nodes_within_hops

        result.__dict__["_neighborhood_size"] = len(multi_source_nodes_within_hops(*pending))
    return result.__dict__["_neighborhood_size"]


def _set_neighborhood_size(result: IncrementalDetectionResult, value: Optional[int]) -> None:
    result.__dict__.pop("_pending_neighborhood", None)
    result.__dict__["_neighborhood_size"] = value


# installed after @dataclass, which keeps neighborhood_size a field (init
# argument, repr, eq) whose reads and writes now go through the property
IncrementalDetectionResult.neighborhood_size = property(  # type: ignore[assignment]
    _neighborhood_size, _set_neighborhood_size, doc="``|G_dΣ(ΔG)|``, or None when not known."
)
