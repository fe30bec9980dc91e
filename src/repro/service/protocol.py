"""The service wire protocol: request schemas and NDJSON streaming records.

Detection responses are streamed as NDJSON (``application/x-ndjson``): one
JSON object per line, written and flushed the moment the detection kernel
yields the violation, so a slow search delivers its first findings while it
is still running.  A stream is a sequence of ``violation`` records followed
by exactly one terminal ``summary`` record::

    {"type": "violation", "introduced": true, "rule": "φ2",
     "variables": ["x", "y", "z", "w"], "nodes": ["Bhonpur", ...]}
    ...
    {"type": "summary", "algorithm": "Dect", "violation_count": 3,
     "stopped_early": false, "stop_reason": null, "cost": 841.0,
     "graph": "yago", "graph_version": 7, "wall_time": 0.012}

A failed stream ends with an ``error`` record instead of a summary, so a
client can always distinguish "completed" from "died mid-flight" even
though the HTTP status line was sent long before the failure.

Detection *requests* are one JSON object.  Rules come either inline
(``{"rules": <RuleSet.to_dict() document>}``) or by reference to a catalog
registered with the server (``{"catalog": "name"}``); budgets, engine,
processor count and execution mode ride along::

    {"catalog": "example", "engine": "auto", "processors": 1,
     "max_violations": 10, "max_cost": null, "execution": "simulated"}

``execution`` is ``"simulated"`` (default — the deterministic cluster
simulator) or ``"processes"`` (the real multi-process backend; the server
does actual parallel matching work on ``processors`` OS processes).

:func:`parse_detect_request` validates the document into a
:class:`DetectRequest`; resolution of catalog names against the server's
registry happens in :mod:`repro.service.jobs`.  :func:`admit_detect_request`
is the server's check on a *new* request: a ``processes`` request may ask for
at most as many workers as the server has CPUs (:func:`usable_cpus`), a
simulated one for at most :data:`MAX_SIMULATED_PROCESSORS`; a larger count is
refused with 400.  Recovery re-parses recorded requests without that check,
so state written on a larger machine still loads; the session manager clamps
every ``processes`` count, an omitted one included, to :func:`usable_cpus`.

Admission control
-----------------

At most ``serve --max-jobs N`` detection streams run at once, each on the
handler thread serving it, in a slot of the
:class:`~repro.service.jobs.DetectionJobPool`.  When every slot is busy a
new detect request is refused **before** any record is written, with
status ``429 Too Many Requests`` and the standard JSON error body::

    {"error": "detection job pool is saturated (8 jobs in flight); ..."}

A 429 is not a failure of the request itself — the client should retry
after a backoff.  Graph/session/catalog management endpoints and
continuous-session maintenance never consume pool slots, so a saturated
pool still accepts updates and serves state documents.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.ngd import RuleSet
from repro.core.violations import Violation
from repro.detect.base import DetectionResult, IncrementalDetectionResult
from repro.errors import ReproError, SerializationError, ServiceError

__all__ = [
    "MIME_NDJSON",
    "MIME_JSON",
    "DetectRequest",
    "parse_detect_request",
    "admit_detect_request",
    "usable_cpus",
    "violation_record",
    "summary_record",
    "error_record",
    "encode_record",
    "decode_record",
]

MIME_NDJSON = "application/x-ndjson"
MIME_JSON = "application/json"

#: Engines a detection request may ask for (``incremental`` is driven by the
#: updates endpoint + continuous sessions, not by one-shot detect requests).
REQUEST_ENGINES = ("auto", "batch", "parallel")

#: Execution modes a detection request may ask for (see module docstring).
REQUEST_EXECUTION_MODES = ("simulated", "processes")

#: The largest simulated cluster a request may ask for.  The paper's runs use
#: up to 20 processors; the simulator builds one worker record per processor,
#: so the count is capped well above that rather than left to the client.
MAX_SIMULATED_PROCESSORS = 1024


def usable_cpus() -> int:
    """Return how many CPUs this process may run on: the cap on a ``processes`` request."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity masks
        return os.cpu_count() or 1


@dataclass(frozen=True)
class DetectRequest:
    """One validated detection request (rules inline xor by catalog name)."""

    rules: Optional[RuleSet] = None
    catalog: Optional[str] = None
    engine: str = "auto"
    processors: Optional[int] = None
    max_violations: Optional[int] = None
    max_cost: Optional[float] = None
    execution: str = "simulated"
    #: per-request deadline in seconds; ``None`` means no deadline.  When it
    #: elapses before the first record the request fails with 503 +
    #: ``Retry-After``; once streaming has begun it becomes a terminal
    #: in-band ``error`` record.
    timeout_seconds: Optional[float] = None

    def to_document(self) -> dict:
        """Return the JSON request document this request parsed from.

        The round trip ``parse_detect_request(request.to_document())``
        reproduces the request exactly; the durability layer logs this
        form in session-open WAL records and checkpoints so recovery can
        rebuild a session's detector with identical configuration.
        """
        document: dict = {
            "engine": self.engine,
            "execution": self.execution,
        }
        if self.rules is not None:
            document["rules"] = self.rules.to_dict()
        if self.catalog is not None:
            document["catalog"] = self.catalog
        if self.processors is not None:
            document["processors"] = self.processors
        if self.max_violations is not None:
            document["max_violations"] = self.max_violations
        if self.max_cost is not None:
            document["max_cost"] = self.max_cost
        if self.timeout_seconds is not None:
            document["timeout_seconds"] = self.timeout_seconds
        return document


def _optional_positive_int(document: Mapping, key: str) -> Optional[int]:
    value = document.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ServiceError(f"{key!r} must be a positive integer, got {value!r}")
    return value


def _optional_positive_number(document: Mapping, key: str) -> Optional[float]:
    value = document.get(key)
    if value is None:
        return None
    # JSON NaN and 1e999 parse to nan and inf, which would never end a run;
    # an integer past the float range is refused with them
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not 0 < value <= sys.float_info.max
    ):
        raise ServiceError(f"{key!r} must be a finite positive number, got {value!r}")
    return float(value)


def parse_detect_request(document: object) -> DetectRequest:
    """Validate a request JSON document into a :class:`DetectRequest`.

    Raises :class:`~repro.errors.ServiceError` on shape errors: both or
    neither rule source, unknown engines, non-positive or non-finite budgets.  An inline
    rule document is parsed eagerly so a malformed rule fails the request
    up front, not mid-stream.  Other keys are ignored, among them the
    literal-pruning switch that requests carried before pruning became
    unconditional: recovery re-parses recorded requests with this function.
    """
    if document is None:
        document = {}
    if not isinstance(document, Mapping):
        raise ServiceError(f"detect request must be a JSON object, got {type(document).__name__}")
    inline = document.get("rules")
    catalog = document.get("catalog")
    if inline is not None and catalog is not None:
        raise ServiceError("detect request must name 'rules' inline or a 'catalog', not both")
    rules: Optional[RuleSet] = None
    if inline is not None:
        try:
            rules = RuleSet.from_dict(inline)
        except ReproError as exc:
            raise ServiceError(f"inline rule set is malformed: {exc}") from exc
    if catalog is not None and not isinstance(catalog, str):
        raise ServiceError(f"'catalog' must be a string, got {catalog!r}")
    engine = document.get("engine", "auto")
    if engine not in REQUEST_ENGINES:
        raise ServiceError(f"unknown engine {engine!r}; expected one of {REQUEST_ENGINES}")
    execution = document.get("execution", "simulated")
    if execution not in REQUEST_EXECUTION_MODES:
        raise ServiceError(
            f"unknown execution mode {execution!r}; expected one of {REQUEST_EXECUTION_MODES}"
        )
    return DetectRequest(
        rules=rules,
        catalog=catalog,
        engine=engine,
        processors=_optional_positive_int(document, "processors"),
        max_violations=_optional_positive_int(document, "max_violations"),
        max_cost=_optional_positive_number(document, "max_cost"),
        execution=execution,
        timeout_seconds=_optional_positive_number(document, "timeout_seconds"),
    )


def admit_detect_request(request: DetectRequest) -> DetectRequest:
    """Return ``request`` if the server can host its processor count.

    Raises :class:`~repro.errors.ServiceError` (400) before any worker
    starts when a ``processes`` request asks for more workers than
    :func:`usable_cpus`, or a simulated one for more than
    :data:`MAX_SIMULATED_PROCESSORS`.  Only new requests go through this
    check; recovery must load whatever an earlier server accepted.
    """
    if request.processors is None:
        return request
    if request.execution == "processes":
        limit, what = usable_cpus(), "the CPUs this server may use"
    else:
        limit, what = MAX_SIMULATED_PROCESSORS, "the simulated-cluster cap"
    if request.processors > limit:
        raise ServiceError(
            f"'processors' is {request.processors}, above {what} ({limit}) "
            f"for execution={request.execution!r}"
        )
    return request


# ------------------------------------------------------------------ records


def violation_record(violation: Violation, introduced: bool = True) -> dict:
    """Return the NDJSON record for one streamed violation."""
    return {"type": "violation", "introduced": introduced, **violation.to_dict()}


def summary_record(
    result: "DetectionResult | IncrementalDetectionResult",
    graph_name: str,
    graph_version: int,
) -> dict:
    """Return the terminal record of a stream: counts, budget outcome, cost.

    ``graph_version`` is the registry version the run was snapshotted at —
    the client's proof of which consistent graph state its stream reflects.
    """
    record = {
        "type": "summary",
        "algorithm": result.algorithm,
        "cost": result.cost,
        "wall_time": result.wall_time,
        "processors": result.processors,
        "stopped_early": result.stopped_early,
        "stop_reason": result.stop_reason,
        "graph": graph_name,
        "graph_version": graph_version,
        # True when the restart budget ran out or poison seeds were
        # quarantined and the run was completed on the parent's serial
        # path — the violations are still exact (see docs/ARCHITECTURE.md,
        # "Fault tolerance")
        "degraded": getattr(result, "degraded", False),
        # the run's observability trace (GET /debug/traces); null when the
        # result predates the traced session API
        "trace_id": getattr(result, "trace_id", None),
    }
    if isinstance(result, IncrementalDetectionResult):
        record["introduced_count"] = len(result.introduced())
        record["removed_count"] = len(result.removed())
        record["total_changes"] = result.total_changes()
    else:
        record["violation_count"] = result.violation_count()
    return record


def error_record(message: str, retryable: bool = False) -> dict:
    """Return the terminal record of a stream that failed mid-flight.

    ``retryable=True`` marks transient conditions (a per-request
    deadline) where an identical retry may succeed; if the
    failure surfaces before the first record was written the HTTP layer
    turns it into ``503`` + ``Retry-After`` instead of a ``400``.
    """
    record = {"type": "error", "error": message}
    if retryable:
        record["retryable"] = True
    return record


def encode_record(record: Mapping) -> bytes:
    """Encode one record as an NDJSON line (sorted keys, ``default=str``).

    ``default=str`` applies the :func:`~repro.core.violations.wire_node_id`
    convention to anything a record smuggled past it (the violation records
    are already wire-safe).
    """
    return (json.dumps(record, sort_keys=True, default=str) + "\n").encode("utf-8")


def decode_record(line: "bytes | str") -> dict:
    """Decode one NDJSON line back into a record dictionary."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed NDJSON record {line!r}: {exc}") from exc
    if not isinstance(record, dict) or "type" not in record:
        raise SerializationError(f"NDJSON record must be an object with a 'type': {line!r}")
    return record
