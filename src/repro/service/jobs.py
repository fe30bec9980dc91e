"""Detection jobs and continuous incremental sessions.

Two execution shapes live here, both built on the
:class:`~repro.detect.session.Detector` session API:

* **One-shot streaming jobs** (:meth:`SessionManager.stream_detection`) —
  the manager snapshots ``(graph, version)`` from the registry and returns
  a generator; the HTTP handler thread holds a :class:`DetectionJobPool`
  slot while it iterates it, and each yielded record is one NDJSON line.
  Every request gets its *own* ``Detector`` with its own
  :class:`~repro.detect.observers.DetectionBudget`, which is the
  multi-tenant fairness mechanism: a tenant asking for ``max_cost=500``
  cannot make the server do more than 500 work units on its behalf, and
  one asking for ``timeout_seconds=2`` not more than two seconds of it, no
  matter what the graph looks like.

* **Continuous sessions** (:class:`ContinuousSession`) — a session pins a
  registered graph, runs one full batch detection at its base version, and
  from then on keeps its ``ViolationSet`` current by feeding every accepted
  update through ``Detector.run_incremental`` (the paper's IncDect regime).
  The per-version :class:`~repro.core.violations.ViolationDelta` is
  recorded, so a client can ask "what changed between versions 4 and 9"
  without replaying detection.  Session maintenance runs inside the graph
  lock (see :mod:`repro.service.registry`), so deltas are observed exactly
  once, in version order.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, Optional

from repro import obs
from repro.core.ngd import RuleSet
from repro.core.violations import ViolationDelta, ViolationSet
# the kernels a request may ask for are imported with the service, before the
# ready line, so that no request handler pays for an import
from repro.detect.parallel import iter_p_dect, iter_pinc_dect  # noqa: F401
from repro.detect.session import DEFAULT_PROCESSORS, DetectionOptions, Detector
from repro.errors import (
    ConflictError,
    DeadlineExceededError,
    NotFoundError,
    PoolSaturatedError,
    ServiceError,
)
from repro.service import protocol
from repro.service.protocol import DetectRequest, summary_record, violation_record
from repro.service.registry import GraphRegistry, UpdateOutcome, validate_resource_name

__all__ = ["ContinuousSession", "DetectionJobPool", "SessionManager"]

#: Default size of a service's detection job pool (``serve --max-jobs``).
DEFAULT_MAX_JOBS = 8


class ContinuousSession:
    """A long-lived incremental session over one registered graph.

    ``violations`` is kept equal to ``Vio(Σ, G_v)`` for the session's
    ``current_version`` ``v``; ``deltas[v]`` records the ΔVio that took the
    session from version ``v - 1`` to ``v``.

    Two bounded-resource mechanisms ride along:

    * **plan reuse** — the detector keeps the
      :class:`~repro.matching.plan.MatchPlan`\\ s it compiled at the base
      version, so per-update maintenance skips the statistics pass; an
      update that drifts ``|V| + |E|`` beyond the detector's
      :data:`~repro.detect.session.PLAN_DRIFT_TOLERANCE` recompiles them
      against the new snapshot (counted in ``plan_compilations``);
    * **delta-log compaction** — :meth:`compact` squashes deltas older than
      a retention window into one net delta
      (:meth:`~repro.core.violations.ViolationDelta.compose`), so
      long-running update loops hold a bounded number of per-version
      entries.
    """

    def __init__(
        self,
        session_id: str,
        graph_name: str,
        rules: RuleSet,
        detector: Detector,
        base_version: int,
        violations: ViolationSet,
        request_document: Optional[dict] = None,
    ) -> None:
        self.session_id = session_id
        self.graph_name = graph_name
        self.rules = rules
        self.detector = detector
        self.base_version = base_version
        self.current_version = base_version
        self.violations = violations
        self.deltas: dict[int, ViolationDelta] = {}
        self.compacted_through: Optional[int] = None
        self._squashed: Optional[ViolationDelta] = None
        self._lock = threading.Lock()
        #: The request document the session was opened with; the durability
        #: layer persists it so recovery can rebuild an identical detector.
        self.request_document = request_document

    @property
    def plan_compilations(self) -> int:
        return self.detector.plan_compilations

    def advance(self, version: int, delta: ViolationDelta) -> None:
        """Record ΔVio for ``version`` and roll the violation set forward."""
        with self._lock:
            self.violations = self.violations.apply_delta(delta)
            self.deltas[version] = delta
            self.current_version = version

    def compact(self, retain_versions: int) -> None:
        """Squash deltas older than the last ``retain_versions`` into one net delta."""
        with self._lock:
            cutoff = self.current_version - retain_versions
            stale = sorted(version for version in self.deltas if version <= cutoff)
            if not stale:
                return
            squashed = self._squashed if self._squashed is not None else ViolationDelta.empty()
            for version in stale:
                squashed = squashed.compose(self.deltas.pop(version))
            self._squashed = squashed
            self.compacted_through = stale[-1]

    def deltas_since(self, since: int) -> list[dict]:
        """Return ``[{"version", "introduced", "removed"}, ...]`` for versions > ``since``.

        When compaction has squashed part of the requested range, the first
        entry is the net squashed delta, flagged ``"squashed": true`` and
        spanning ``(base_version, compacted_through]``.  That record is only
        a valid catch-up from the session's *base version* — a client whose
        last synced version lies strictly inside the squashed window cannot
        be brought up to date from the net delta (intermediate
        remove/reintroduce pairs have cancelled out of it), so such a
        request is refused with :class:`ServiceError`; the client must
        resync from the full session state (``GET /sessions/{id}``).
        """
        with self._lock:
            records: list[dict] = []
            if (
                self._squashed is not None
                and self.compacted_through is not None
                and since < self.compacted_through
            ):
                if since > self.base_version:
                    raise ServiceError(
                        f"session {self.session_id!r} has squashed deltas through "
                        f"version {self.compacted_through}; a catch-up from version "
                        f"{since} is no longer reconstructible — resync from the "
                        "full session state (GET /sessions/{id}) or request "
                        f"since<={self.base_version}"
                    )
                records.append(
                    {
                        "version": self.compacted_through,
                        "squashed": True,
                        "squashed_from": self.base_version,
                        **self._squashed.to_dict(),
                    }
                )
            records.extend(
                {"version": version, **self.deltas[version].to_dict()}
                for version in sorted(self.deltas)
                if version > since
            )
            return records

    def durable_document(self) -> dict:
        """Return the session's full durable state (checkpoints + WAL open).

        Everything recovery needs to adopt an equivalent session without
        re-running the initial batch detection: the opening request, the
        current violation set, the per-version delta log (with the
        squashed prefix, if compaction ran), and the plan-reuse counters.
        Detectors and compiled plans are *not* serialized — they are
        rebuilt from the request document against the recovered graph.
        """
        with self._lock:
            document = {
                "session": self.session_id,
                "graph": self.graph_name,
                "base_version": self.base_version,
                "current_version": self.current_version,
                "request": self.request_document or {},
                "violations": self.violations.to_dict(),
                "deltas": {
                    str(version): self.deltas[version].to_dict()
                    for version in sorted(self.deltas)
                },
                "squashed": self._squashed.to_dict() if self._squashed is not None else None,
                "compacted_through": self.compacted_through,
                "plan_compilations": self.plan_compilations,
                "plan_size": self.detector.plan_size,
            }
            return document

    def restore_progress(
        self,
        current_version: int,
        deltas: "dict[int, ViolationDelta]",
        squashed: Optional[ViolationDelta],
        compacted_through: Optional[int],
        plan_compilations: int,
        plan_size: int,
    ) -> None:
        """Reapply recovered delta-log state (inverse of :meth:`durable_document`)."""
        with self._lock:
            self.current_version = current_version
            self.deltas = dict(deltas)
            self._squashed = squashed
            self.compacted_through = compacted_through
            self.detector.plan_compilations = plan_compilations
            self.detector.plan_size = plan_size

    def state_document(self) -> dict:
        """Return the JSON description served by ``GET /sessions/{id}``."""
        with self._lock:
            document = {
                "session": self.session_id,
                "graph": self.graph_name,
                "rules": self.rules.name,
                "rule_count": len(self.rules),
                "base_version": self.base_version,
                "current_version": self.current_version,
                "violation_count": len(self.violations),
                "plan_compilations": self.plan_compilations,
                **self.violations.to_dict(),
            }
            if self.compacted_through is not None:
                document["compacted_through"] = self.compacted_through
            return document


class DetectionJobPool:
    """Admission control for detection streams: at most ``max_jobs`` run at once.

    Each stream runs on the HTTP handler thread that serves it, inside
    :meth:`slot`; a request that finds every slot taken is refused up front
    (429 via :class:`~repro.errors.PoolSaturatedError`) instead of queueing
    matching work behind the others.  Continuous-session maintenance does
    not go through the pool: it runs under the graph lock in version order
    and must never be refused.
    """

    def __init__(self, max_jobs: int = DEFAULT_MAX_JOBS) -> None:
        if max_jobs < 1:
            raise ServiceError(f"max_jobs must be >= 1, got {max_jobs}")
        self.max_jobs = max_jobs
        self._slots = threading.BoundedSemaphore(max_jobs)
        self._active = 0
        self._lock = threading.Lock()
        self._job_ids = itertools.count(1)

    def active_jobs(self) -> int:
        """Return the number of jobs currently holding a slot."""
        with self._lock:
            return self._active

    @contextmanager
    def slot(self) -> Iterator[str]:
        """Hold one slot for the enclosed block and yield its job id.

        Raises :class:`PoolSaturatedError` without waiting when every slot
        is busy.  The slot is released when the block ends, however it ends.
        """
        if not self._slots.acquire(blocking=False):
            obs.counter_inc("repro_jobs_refused_total")
            raise PoolSaturatedError(
                f"detection job pool is saturated ({self.max_jobs} jobs in flight); "
                "retry after a backoff or raise serve --max-jobs"
            )
        with self._lock:
            self._active += 1
            job_id = f"job-{next(self._job_ids)}"
        obs.counter_inc("repro_jobs_total")
        obs.gauge_add("repro_jobs_active", None, 1)
        try:
            yield job_id
        finally:
            with self._lock:
                self._active -= 1
            obs.gauge_add("repro_jobs_active", None, -1)
            self._slots.release()


class SessionManager:
    """Runs detection jobs and owns the continuous sessions of a service.

    ``retain_versions`` bounds the per-session delta logs: after each
    advance, deltas older than the last K versions are squashed into one
    net delta.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        catalogs: Optional[dict[str, RuleSet]] = None,
        retain_versions: Optional[int] = None,
        job_pool: Optional[DetectionJobPool] = None,
    ) -> None:
        if retain_versions is not None and retain_versions < 1:
            raise ServiceError(f"retain_versions must be >= 1, got {retain_versions}")
        self.registry = registry
        self.retain_versions = retain_versions
        self.job_pool = job_pool if job_pool is not None else DetectionJobPool()
        self.catalogs: dict[str, RuleSet] = dict(catalogs or {})
        self._catalog_lock = threading.Lock()
        self._sessions: dict[str, ContinuousSession] = {}
        self._sessions_lock = threading.Lock()
        self._session_ids = itertools.count(1)
        #: Durability hook (duck-typed, see ``GraphRegistry.journal``):
        #: catalog registrations and session open/close are logged through
        #: it; attached after recovery so replayed state is not re-logged.
        self.journal = None
        registry.add_listener(self._on_update)

    # ------------------------------------------------------------- processes

    def process_count(self, processors: Optional[int]) -> int:
        """Return how many workers a ``processes`` request runs on here.

        An omitted count takes the detector's default, and every count is
        clamped to :func:`~repro.service.protocol.usable_cpus`: the server
        refuses a *new* request above it, but a session recorded by a
        server with more CPUs must still recover and run on this one.
        """
        return min(processors or DEFAULT_PROCESSORS, protocol.usable_cpus())

    def batch_detector(self, request: DetectRequest, rules: RuleSet) -> Detector:
        """Return the detector of one full detection: the request's engine, budget and deadline."""
        processes = request.execution == "processes"
        return Detector(
            rules,
            engine=request.engine,
            processors=self.process_count(request.processors) if processes else request.processors,
            options=DetectionOptions(
                max_violations=request.max_violations,
                max_cost=request.max_cost,
                execution=request.execution,
                timeout_seconds=request.timeout_seconds,
            ),
        )

    def maintenance_detector(self, request: DetectRequest, rules: RuleSet, graph) -> Detector:
        """Return a continuous session's per-update detector, its plans compiled against ``graph``.

        The incremental kernel, or the parallel one under
        ``execution="processes"``.  Live and recovered sessions are both
        built here, so a recovered session runs exactly as the live one did.
        """
        processes = request.execution == "processes"
        detector = Detector(
            rules,
            engine="auto" if processes else "incremental",
            processors=self.process_count(request.processors) if processes else None,
            options=DetectionOptions(execution=request.execution),
        )
        # the detector keeps these plans across versions until statistics drift
        detector.compile_plans(graph)
        return detector

    def shutdown(self) -> None:
        """Stop what the manager runs between requests, on the server's way down.

        Every ``processes`` run starts its own workers and stops them before
        it returns, so the manager holds no process or thread of its own.
        """

    # -------------------------------------------------------------- catalogs

    def register_catalog(self, name: str, rules: RuleSet) -> None:
        """Register a named rule catalog requests can reference."""
        validate_resource_name(name, "catalog")
        with self._catalog_lock:
            if name in self.catalogs:
                raise ConflictError(f"rule catalog {name!r} is already registered")
            self.catalogs[name] = rules
        if self.journal is not None:
            self.journal.record_catalog_registered(name, rules)

    def catalog(self, name: str) -> RuleSet:
        """Return a registered catalog or raise :class:`NotFoundError`."""
        with self._catalog_lock:
            try:
                return self.catalogs[name]
            except KeyError:
                raise NotFoundError(f"no rule catalog registered under {name!r}") from None

    def describe_catalogs(self) -> list[dict]:
        """Return ``{"name", "rules", "diameter"}`` for every catalog."""
        with self._catalog_lock:
            names = sorted(self.catalogs)
            return [
                {
                    "name": name,
                    "rules": len(self.catalogs[name]),
                    "diameter": self.catalogs[name].diameter(),
                }
                for name in names
            ]

    def resolve_rules(self, request: DetectRequest) -> RuleSet:
        """Return the rule set a request asks for (inline beats catalog)."""
        if request.rules is not None:
            return request.rules
        if request.catalog is not None:
            return self.catalog(request.catalog)
        raise ServiceError("detect request must carry inline 'rules' or name a 'catalog'")

    # -------------------------------------------------------- one-shot jobs

    def stream_detection(self, graph_name: str, request: DetectRequest) -> tuple[Iterator[dict], str]:
        """Return the NDJSON records of one budgeted detection request, and its trace id.

        Request validation — rule resolution and the graph snapshot —
        happens here, eagerly, so a bad name raises before any HTTP status
        is committed; the detection runs as the caller iterates the
        generator, on the caller's thread.  The snapshot freezes ``(graph,
        version)``: concurrent updates bump the registry but never affect
        this stream.  The final record is the summary carrying
        ``graph_version`` and the budget outcome; a run the request's
        ``timeout_seconds`` stopped raises :class:`DeadlineExceededError`
        instead.  The trace id is fixed up front, so the handler can send
        it as ``X-Repro-Trace`` before the first record.
        """
        rules = self.resolve_rules(request)
        graph, version = self.registry.get(graph_name).snapshot()
        detector = self.batch_detector(request, rules)
        trace_id = obs.new_id()

        def generate() -> Iterator[dict]:
            with obs.span(
                "service.detect",
                trace_id=trace_id,
                graph=graph_name,
                graph_version=version,
                execution=request.execution,
            ):
                # the detector's root span parents under service.detect
                # via this thread's contextvar, joining this trace
                for violation in detector.stream(graph):
                    yield violation_record(violation, introduced=True)
            result = detector.last_result
            if result.stop_reason == "deadline":
                raise DeadlineExceededError(
                    f"detection request exceeded its timeout_seconds={request.timeout_seconds} deadline"
                )
            yield summary_record(result, graph_name, version)

        return generate(), trace_id

    # ---------------------------------------------------------------- sessions

    def create_session(self, graph_name: str, request: DetectRequest) -> ContinuousSession:
        """Open a continuous session: full run now, incremental forever after.

        Budgets are refused: a truncated run (full or incremental) would
        leave the maintained violation set a strict subset of the truth,
        and every later delta would compound the error.  For the same
        reason the base run ignores ``timeout_seconds``.

        The initial batch run executes while *holding the graph lock*, so
        no update can slip between "snapshot the base version" and "start
        observing deltas"; updates queued behind the lock are applied (and
        fed to the new session) as soon as registration completes.
        """
        if request.max_violations is not None or request.max_cost is not None:
            raise ServiceError(
                "continuous sessions cannot run under a budget: a truncated "
                "violation set cannot be kept consistent by later deltas"
            )
        rules = self.resolve_rules(request)
        registered = self.registry.get(graph_name)
        with registered.lock:
            graph, version = registered.snapshot()
            base = self.batch_detector(replace(request, timeout_seconds=None), rules)
            violations = base.run(graph).violations
            session = ContinuousSession(
                session_id=f"s{next(self._session_ids)}",
                graph_name=graph_name,
                rules=rules,
                detector=self.maintenance_detector(request, rules, graph),
                base_version=version,
                violations=violations,
                request_document=request.to_document(),
            )
            with self._sessions_lock:
                self._sessions[session.session_id] = session
            # logged inside the graph lock: no update can interleave
            # between the base snapshot and the open record, so replay
            # sees exactly the version order the live sessions saw
            if self.journal is not None:
                self.journal.record_session_opened(session)
            return session

    def adopt_session(self, session: ContinuousSession) -> ContinuousSession:
        """Install a recovered session and advance the id counter past it.

        Recovery-only: never journals.  The id counter is bumped so newly
        created sessions cannot collide with recovered ids.
        """
        with self._sessions_lock:
            if session.session_id in self._sessions:
                raise ConflictError(f"session {session.session_id!r} is already registered")
            self._sessions[session.session_id] = session
            numeric = session.session_id.lstrip("s")
            if numeric.isdigit():
                floor = int(numeric) + 1
                probe = next(self._session_ids)
                self._session_ids = itertools.count(max(probe, floor))
            return session

    def sessions_for(self, graph_name: str) -> list[ContinuousSession]:
        """Return the live sessions pinned to ``graph_name`` (id-sorted)."""
        with self._sessions_lock:
            return sorted(
                (s for s in self._sessions.values() if s.graph_name == graph_name),
                key=lambda s: s.session_id,
            )

    def session(self, session_id: str) -> ContinuousSession:
        """Return a live session or raise :class:`NotFoundError`."""
        with self._sessions_lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise NotFoundError(f"no session {session_id!r}") from None

    def close_session(self, session_id: str) -> None:
        """Drop a session (its recorded deltas go with it)."""
        with self._sessions_lock:
            if self._sessions.pop(session_id, None) is None:
                raise NotFoundError(f"no session {session_id!r}")
        if self.journal is not None:
            self.journal.record_session_closed(session_id)

    def describe_sessions(self) -> list[dict]:
        """Return a compact listing of every live session."""
        with self._sessions_lock:
            sessions = sorted(self._sessions.values(), key=lambda s: s.session_id)
        return [
            {
                "session": s.session_id,
                "graph": s.graph_name,
                "current_version": s.current_version,
                "violation_count": len(s.violations),
            }
            for s in sessions
        ]

    def session_count(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    # ------------------------------------------------------- update fan-out

    def _on_update(self, outcome: UpdateOutcome) -> None:
        """Registry listener: advance every session of the updated graph.

        Runs inside the graph's lock (see the registry), so sessions see
        versions strictly in order.  ``graph_after`` is handed to the
        incremental kernel directly — ``G ⊕ ΔG`` is already materialised by
        the registry, exactly the "storage layer maintains the updated
        graph" assumption the paper makes.
        """
        with self._sessions_lock:
            sessions = [s for s in self._sessions.values() if s.graph_name == outcome.name]
        for session in sessions:
            if session.current_version >= outcome.version:
                # already past this version — happens only during WAL
                # replay, when a session recovered from a checkpoint taken
                # after the update observes the update's record again;
                # re-applying would corrupt the violation set
                continue
            result = session.detector.run_incremental(
                outcome.graph_before,
                outcome.delta,
                graph_after=outcome.graph_after,
            )
            session.advance(outcome.version, result.delta)
            if self.retain_versions is not None:
                session.compact(self.retain_versions)
