"""Parallel detection: the simulated cluster and the real process backend."""

from repro._lazy import lazy_exports
from repro.detect.base import EXECUTION_MODES
from repro.detect.parallel.balancing import (
    BalancingPolicy,
    plan_rebalancing,
    should_split_planned,
    skewness,
)
from repro.detect.parallel.workunits import WorkUnit

# the serial kernels import ``workunits`` from this package, so what only a
# parallel run uses is imported when it is asked for
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ClusterSimulator": "repro.detect.parallel.cluster",
        "ExecutionRuntime": "repro.detect.parallel.executor",
        "resolve_start_method": "repro.detect.parallel.executor",
        "iter_p_dect": "repro.detect.parallel.pdect",
        "iter_pinc_dect": "repro.detect.parallel.pincdect",
    },
)

__all__ = [
    "BalancingPolicy",
    "ClusterSimulator",
    "EXECUTION_MODES",
    "ExecutionRuntime",
    "WorkUnit",
    "iter_p_dect",
    "iter_pinc_dect",
    "plan_rebalancing",
    "resolve_start_method",
    "should_split_planned",
    "skewness",
]
