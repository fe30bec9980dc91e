"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses are raised close to
where the problem is detected; their messages carry enough context (node ids,
variable names, expression text) to diagnose problems without a debugger.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFound",
    "EdgeNotFound",
    "DuplicateNode",
    "PatternError",
    "UpdateError",
    "ExpressionError",
    "NonLinearExpressionError",
    "ParseError",
    "EvaluationError",
    "DependencyError",
    "ValidationError",
    "SatisfiabilityError",
    "DiscoveryError",
    "ClusterError",
    "ExecutionError",
    "SessionError",
    "SerializationError",
    "ServiceError",
    "NotFoundError",
    "ConflictError",
    "PoolSaturatedError",
    "DeadlineExceededError",
]


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class GraphError(ReproError):
    """Problems with graph construction or manipulation."""


class NodeNotFound(GraphError, KeyError):
    """A node id was referenced but is not present in the graph."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"node {node_id!r} is not in the graph")
        self.node_id = node_id


class EdgeNotFound(GraphError, KeyError):
    """An edge was referenced but is not present in the graph."""

    def __init__(self, source: object, target: object, label: object = None) -> None:
        suffix = f" with label {label!r}" if label is not None else ""
        super().__init__(f"edge ({source!r} -> {target!r}){suffix} is not in the graph")
        self.source = source
        self.target = target
        self.label = label


class DuplicateNode(GraphError, ValueError):
    """A node id was added twice with conflicting data."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"node {node_id!r} already exists with different data")
        self.node_id = node_id


class PatternError(ReproError):
    """Problems with graph-pattern construction (variables, labels, arity)."""


class UpdateError(ReproError):
    """A batch update cannot be applied to the graph it targets."""


class ExpressionError(ReproError):
    """Problems constructing arithmetic expressions or literals."""


class NonLinearExpressionError(ExpressionError):
    """A linear expression was required but a non-linear one was supplied.

    The paper restricts NGDs to degree-1 (linear) expressions; this error marks
    the decidability boundary of Theorem 3.
    """


class ParseError(ExpressionError):
    """The textual form of an expression, literal or NGD could not be parsed."""

    def __init__(self, text: str, position: int, reason: str) -> None:
        super().__init__(f"parse error at position {position} in {text!r}: {reason}")
        self.text = text
        self.position = position
        self.reason = reason


class EvaluationError(ExpressionError):
    """An expression could not be evaluated against a match (e.g. missing attribute)."""


class DependencyError(ReproError):
    """Problems with NGD construction (mismatched pattern variables, etc.)."""


class ValidationError(ReproError):
    """Problems raised while checking a graph against a set of NGDs."""


class SatisfiabilityError(ReproError):
    """The satisfiability/implication checker was given input it cannot decide.

    Raised when the bounded model search would exceed the configured limits;
    the checker is exact for inputs within those limits (satisfiability of
    NGDs is Σp2-complete, so a resource bound is unavoidable).
    """


class DiscoveryError(ReproError):
    """Problems in the levelwise NGD discovery process."""


class ClusterError(ReproError):
    """The simulated cluster was asked to do something inconsistent."""


class ExecutionError(ReproError):
    """The multi-process execution backend failed or was misconfigured.

    Raised for unknown execution modes and for a plan handed a rule it was
    not compiled for.  A dying worker raises nothing: its seeds are re-run.
    """


class SessionError(ReproError):
    """A :class:`~repro.detect.session.Detector` session was misconfigured or misused.

    Raised for unknown engine names and for operations the configured engine
    cannot perform (e.g. a full ``run`` on ``engine="incremental"``).
    """


class SerializationError(ReproError):
    """A wire document (violation, violation set, delta) has the wrong shape.

    Raised by the ``to_dict``/``from_dict`` round-trip helpers in
    :mod:`repro.core.violations` and by the service protocol when a JSON
    payload cannot be decoded into the object it claims to describe.
    """


class ServiceError(ReproError):
    """A request to the detection service cannot be honoured.

    Raised for malformed request documents and bad settings; the subclasses
    below mark the refusals that take another status.  The HTTP layer
    answers with the exception's ``status`` and the message in the JSON
    error body.
    """

    status = 400


class NotFoundError(ServiceError):
    """The request names a graph, session, catalog or route that does not exist."""

    status = 404


class ConflictError(ServiceError):
    """The request registers a graph, catalog or session under a name already taken."""

    status = 409


class PoolSaturatedError(ServiceError):
    """The service's detection job pool has no free slot for a new stream.

    Admission control, not failure: raised before the request's handler
    thread starts any detection work, it becomes ``429 Too Many Requests``
    with a JSON error record, and the client should retry after a backoff.
    See :class:`repro.service.jobs.DetectionJobPool`.
    """

    status = 429


class DeadlineExceededError(ServiceError):
    """A detection request's ``timeout_seconds`` deadline elapsed.

    Raised by the request's record stream once the kernel has stopped with
    ``stop_reason="deadline"``: before the first record the HTTP layer maps
    it to ``503 Service Unavailable`` with a ``Retry-After`` header; after
    streaming has begun it becomes a terminal in-band error record marked
    retryable (the status line is already committed).
    """

    status = 503
