"""Error-detection algorithms: batch (Dect, PDect) and incremental (IncDect, PIncDect).

The public entry point is the :class:`Detector` session
(:mod:`repro.detect.session`), which unifies the four kernels behind one
configuration surface and adds streaming sinks and termination budgets; the
module-level functions ``dect`` / ``inc_dect`` / ``p_dect`` / ``pinc_dect``
are kept as the compatibility layer with their original signatures.
"""

from repro._lazy import lazy_exports
from repro.detect.base import DetectionResult, IncrementalDetectionResult, WorkerTrace
from repro.detect.dect import dect, iter_dect
from repro.detect.incdect import inc_dect, iter_inc_dect
from repro.detect.observers import (
    CallbackSink,
    CollectingSink,
    DetectionBudget,
    FanOutSink,
    ViolationEvent,
    ViolationSink,
    drain,
)
from repro.detect.parallel.balancing import BalancingPolicy
from repro.detect.session import ENGINES, EXECUTION_MODES, DetectionOptions, Detector

# a serial run needs none of these: the kernels bring in the cluster
# simulator and the pool multiprocessing
__getattr__, __dir__ = lazy_exports(
    globals(),
    dict.fromkeys(
        ("iter_p_dect", "p_dect", "iter_pinc_dect", "pinc_dect"),
        "repro.detect.parallel",
    ),
)

__all__ = [
    "BalancingPolicy",
    "CallbackSink",
    "CollectingSink",
    "DetectionBudget",
    "DetectionOptions",
    "DetectionResult",
    "Detector",
    "ENGINES",
    "EXECUTION_MODES",
    "FanOutSink",
    "IncrementalDetectionResult",
    "ViolationEvent",
    "ViolationSink",
    "WorkerTrace",
    "dect",
    "drain",
    "inc_dect",
    "iter_dect",
    "iter_inc_dect",
    "iter_p_dect",
    "iter_pinc_dect",
    "p_dect",
    "pinc_dect",
]
