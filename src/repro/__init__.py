"""repro — a reproduction of "Catching Numeric Inconsistencies in Graphs" (SIGMOD 2018).

The package implements numeric graph dependencies (NGDs), their static
analyses, and the (incremental, parallel) error-detection algorithms of the
paper, together with the substrates they need: a property-graph store,
pattern matching by homomorphism, a cluster simulator, a rule miner, and
synthetic analogues of the evaluation datasets.

Typical usage — a :class:`Detector` session unifies the paper's four
algorithms (Dect / IncDect / PDect / PIncDect) behind one configuration
surface with streaming and early termination::

    from repro import Detector, DetectionOptions, Graph
    from repro.core import phi2

    graph = Graph()
    graph.add_node("bhonpur", "area")
    graph.add_node("f", "integer", {"val": 600})
    graph.add_node("m", "integer", {"val": 722})
    graph.add_node("t", "integer", {"val": 1572})
    graph.add_edge("bhonpur", "f", "femalePopulation")
    graph.add_edge("bhonpur", "m", "malePopulation")
    graph.add_edge("bhonpur", "t", "populationTotal")

    detector = Detector([phi2()], options=DetectionOptions(max_violations=10))
    for violation in detector.stream(graph):   # the Figure 1 population error
        print(violation)
    result = detector.run(graph)               # or batch: a DetectionResult

Rule sets are data: ``RuleSet.to_json`` / ``RuleSet.from_json`` round-trip
rules through the textual literal notation, and the ``repro-detect`` CLI
(``run`` / ``incremental`` / ``rules`` / ``serve`` subcommands) drives
everything from the shell.  Violations are data too —
``Violation.to_dict`` / ``ViolationSet.to_json`` /
``ViolationDelta.to_dict`` define the wire form shared by the CLI's JSON
output and the streaming detection server in :mod:`repro.service`
(``repro-detect serve``: a graph registry with versioned updates, NDJSON
violation streams with per-request budgets, and continuous incremental
sessions).  :class:`Detector` is the one way in: ``run`` /
``run_incremental`` return a result, ``stream`` / ``stream_incremental``
yield what the same run finds, as it finds it.
"""

import time as _time

#: ``perf_counter`` reading when the package began importing: where the
#: start-up gauges of ``serve`` and ``run --profile`` count from.
_import_started = _time.perf_counter()

from repro._lazy import lazy_exports
from repro.core import (
    NGD,
    RuleSet,
    Violation,
    ViolationDelta,
    ViolationSet,
    find_violations,
    graph_satisfies,
)
from repro.detect import (
    BalancingPolicy,
    DetectionBudget,
    DetectionOptions,
    Detector,
    ViolationEvent,
)
from repro.errors import ReproError
from repro.expr import (
    Comparison,
    Literal,
    LiteralSet,
    format_literal,
    format_literal_set,
    parse_expression,
    parse_literal,
    parse_literal_set,
)
from repro.graph import (
    BatchUpdate,
    Graph,
    Pattern,
    UpdateGenerator,
    apply_update,
)

__version__ = "1.2.0"

# no detection calls these: the static analyses bring scipy in
# (docs/ARCHITECTURE.md, "Start-up path")
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "implies": "repro.core",
        "is_satisfiable": "repro.core",
        "is_strongly_satisfiable": "repro.core",
    },
)

__all__ = [
    "BalancingPolicy",
    "BatchUpdate",
    "Comparison",
    "DetectionBudget",
    "DetectionOptions",
    "Detector",
    "Graph",
    "Literal",
    "LiteralSet",
    "NGD",
    "Pattern",
    "ReproError",
    "RuleSet",
    "UpdateGenerator",
    "Violation",
    "ViolationDelta",
    "ViolationEvent",
    "ViolationSet",
    "__version__",
    "apply_update",
    "find_violations",
    "format_literal",
    "format_literal_set",
    "graph_satisfies",
    "implies",
    "is_satisfiable",
    "is_strongly_satisfiable",
    "parse_expression",
    "parse_literal",
    "parse_literal_set",
]
