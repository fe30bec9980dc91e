"""Error-detection algorithms: batch (Dect, PDect) and incremental (IncDect, PIncDect).

The one entry point is the :class:`Detector` session
(:mod:`repro.detect.session`), which runs the four kernels behind one
configuration surface: ``run`` / ``run_incremental`` return a result,
``stream`` / ``stream_incremental`` yield the same run's findings as they
are confirmed, and :class:`DetectionBudget` limits stop a run mid-search.
The generator kernels ``iter_dect`` / ``iter_inc_dect`` / ``iter_p_dect`` /
``iter_pinc_dect`` are what the session drives.
"""

from repro._lazy import lazy_exports
from repro.detect.base import DetectionResult, IncrementalDetectionResult, WorkerTrace
from repro.detect.dect import iter_dect
from repro.detect.incdect import iter_inc_dect
from repro.detect.observers import DetectionBudget, ViolationEvent, drain
from repro.detect.parallel.balancing import BalancingPolicy
from repro.detect.session import ENGINES, EXECUTION_MODES, DetectionOptions, Detector

# a serial run needs none of these: the kernels bring in the cluster
# simulator and the pool multiprocessing
__getattr__, __dir__ = lazy_exports(
    globals(),
    dict.fromkeys(("iter_p_dect", "iter_pinc_dect"), "repro.detect.parallel"),
)

__all__ = [
    "BalancingPolicy",
    "DetectionBudget",
    "DetectionOptions",
    "DetectionResult",
    "Detector",
    "ENGINES",
    "EXECUTION_MODES",
    "IncrementalDetectionResult",
    "ViolationEvent",
    "WorkerTrace",
    "drain",
    "iter_dect",
    "iter_inc_dect",
    "iter_p_dect",
    "iter_pinc_dect",
]
