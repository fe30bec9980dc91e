"""The HTTP detection server (stdlib ``http.server.ThreadingHTTPServer``).

Endpoints (all request/response bodies are JSON; detection streams are
NDJSON, flushed per record).  This table mirrors :data:`ROUTES`, the one
declaration dispatch, the ``route`` metric label and the 404 are read from:

========  ================================  =====================================
Method    Path                              Meaning
========  ================================  =====================================
GET       /health                           liveness + graph/session counts
GET       /graphs                           list registered graphs
POST      /graphs/{name}                    register a graph (body: graph doc)
GET       /graphs/{name}                    name, version, node/edge counts
POST      /graphs/{name}/updates            apply a BatchUpdate, bump version
POST      /graphs/{name}/detect             stream one budgeted detection (NDJSON)
POST      /graphs/{name}/sessions           open a continuous session
GET       /sessions                         list live sessions
GET       /sessions/{name}                  current ViolationSet + version
GET       /sessions/{name}/deltas?since=V   per-version ViolationDeltas after V
DELETE    /sessions/{name}                  close a session
GET       /rules                            list rule catalogs
POST      /rules/{name}                     register a catalog (RuleSet document)
POST      /admin/checkpoint                 force a durability checkpoint
GET       /metrics                          Prometheus text exposition
GET       /debug/traces?limit=N             recent completed spans (JSON)
========  ================================  =====================================

Durability: constructing the service with ``data_dir`` makes it crash-safe
— state is recovered from the directory's checkpoint + WAL before the
socket binds, every accepted mutation is WAL-logged before its response,
and a checkpoint runs every ``checkpoint_every`` accepted updates (or on
demand via ``POST /admin/checkpoint``).  See :mod:`repro.storage.manager`.

Error mapping: malformed requests and unknown names raise
:class:`~repro.errors.ReproError` subclasses, which become a JSON body
``{"error": message}`` whose status is the exception's type: a
:class:`~repro.errors.ServiceError` carries its own ``status`` (404
``NotFoundError``, 409 ``ConflictError``, 429 ``PoolSaturatedError`` — see
below — 503 ``DeadlineExceededError``, 400 otherwise), any other
``ReproError`` is a 400.  A failure *after* a stream has started cannot
change the status line any more, so the stream is terminated with an
``error`` record instead (see :mod:`repro.service.protocol`).

Each detection stream runs on the HTTP handler thread that serves it: the
handler takes a slot of the bounded :class:`~repro.service.jobs.
DetectionJobPool` (``max_jobs`` slots, ``serve --max-jobs N``), iterates
the detection generator and writes each record as the kernel yields it, so
a client that reads slowly slows only its own kernel.  A saturated pool
refuses the request up front with ``429 Too Many Requests`` — admission
control, not failure; management endpoints and continuous-session
maintenance never occupy slots.  A request's ``timeout_seconds`` is a
deadline inside the kernel's budget: the run stops within one search step
of it, and its slot is free by the time the 503 (or the in-band error
record) is sent.

Responses use HTTP/1.0 framing (connection closes at end of body), which is
what lets detection streams run without a Content-Length: the client reads
NDJSON lines until EOF.  :class:`DetectionService` wraps server + registry +
session manager into one object with ``start()`` / ``stop()`` and context-
manager support; ``port=0`` binds an ephemeral port, reported via ``url``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro import obs
from repro.core.ngd import RuleSet
from repro.errors import DeadlineExceededError, NotFoundError, ReproError, ServiceError
from repro.graph.io import graph_from_dict, update_from_list
from repro.service.jobs import DEFAULT_MAX_JOBS, DetectionJobPool, SessionManager
from repro.service.protocol import (
    MIME_JSON,
    MIME_NDJSON,
    admit_detect_request,
    encode_record,
    error_record,
    parse_detect_request,
)
from repro.service.registry import GraphRegistry

__all__ = ["DetectionService"]

#: Refuse request bodies beyond this size (a malformed client should not be
#: able to balloon server memory; 64 MiB comfortably fits every test graph).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds the serving thread waits for a connection before it looks for a
#: stop request again; ``stop()`` waits out at most one such wait
#: (``socketserver``'s own default is 0.5 s).
STOP_POLL_S = 0.02

#: ``/health``'s ``fault_tolerance`` keys and the supervision counters they total.
FAULT_TOLERANCE_COUNTERS = {
    "worker_restarts": "repro_worker_restarts_total",
    "units_retried": "repro_units_retried_total",
    "degraded_runs": "repro_degraded_runs_total",
}


def _fault_tolerance(snapshot: dict) -> dict:
    """Total each supervision counter of one registry snapshot over its label sets."""
    totals = dict.fromkeys(FAULT_TOLERANCE_COUNTERS, 0)
    keys = {family: key for key, family in FAULT_TOLERANCE_COUNTERS.items()}
    for name, _, value in snapshot["counters"]:
        if name in keys:
            totals[keys[name]] += int(value)
    return totals


class _ServiceHandler(BaseHTTPRequestHandler):
    """Serves one HTTP request from :data:`ROUTES` on the service's state.

    One instance per request (http.server semantics); the shared state lives
    on ``self.server.service``.  Request handling must stay re-entrant: the
    ThreadingHTTPServer runs each connection on its own thread.
    """

    server_version = "repro-detect"
    # HTTP/1.0: responses are framed by connection close, enabling unbounded
    # NDJSON streams without chunked-encoding bookkeeping.
    protocol_version = "HTTP/1.0"

    # ------------------------------------------------------------- plumbing

    @property
    def service(self) -> "DetectionService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        # BaseHTTPRequestHandler's per-request noise is replaced by the
        # service's structured access log (one line per request, from _dispatch)
        pass

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._last_status = code
        super().send_response(code, message)

    def _read_json_body(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # drain what the client declared before erroring, else it is
            # still blocked sending the body when we close the socket and
            # sees ECONNRESET instead of the JSON error explaining the limit
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 1 << 20))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise ServiceError(f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} byte limit")
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    def _send_json(
        self,
        document: object,
        status: int = 200,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(document, sort_keys=True, default=str) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", MIME_JSON)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, exc: ReproError) -> None:
        # the status is the exception's type; a deadline is transient, so a
        # retry (ideally with a larger timeout_seconds) may succeed
        status = exc.status if isinstance(exc, ServiceError) else 400
        headers = {"Retry-After": "1"} if isinstance(exc, DeadlineExceededError) else None
        self._send_json({"error": str(exc)}, status=status, headers=headers)

    def _path_parts(self) -> tuple[list[str], dict[str, str]]:
        path, _, query = self.path.partition("?")
        parts = [part for part in path.split("/") if part]
        params: dict[str, str] = {}
        for pair in query.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                params[key] = value
        return parts, params

    # ------------------------------------------------------------- dispatch

    def _dispatch(self) -> None:
        """Serve one request from :data:`ROUTES`; time it, count it, log it.

        The matched template is the ``route`` label of the HTTP metrics, so
        the label set stays bounded however many names tenants create;
        every unmatched request is ``/unknown`` and answered 404.  A POST
        body is read before routing, so invalid JSON is a 400 on any path.
        """
        self._last_status = 0
        self._trace_id: Optional[str] = None
        self._job_id: Optional[str] = None
        started = time.monotonic()
        parts, params = self._path_parts()
        route, handler, name = _match(self.command, parts)
        try:
            body = self._read_json_body() if self.command == "POST" else None
            if handler is None:
                raise NotFoundError(f"no resource at {self.path!r}")
            handler(self, name, params, body)
        except ReproError as exc:
            self._send_error_json(exc)
        except Exception as exc:  # noqa: BLE001 - a crashed handler drops the connection
            # _stream_detect never lets non-socket errors escape once the
            # 200 is committed, so replying here is always still possible
            self._send_json({"error": f"internal error: {exc!r}"}, status=500)
        finally:
            duration = time.monotonic() - started
            obs.counter_inc(
                "repro_http_requests_total",
                {"method": self.command, "route": route, "status": str(self._last_status)},
            )
            obs.histogram_observe("repro_http_request_seconds", {"route": route}, duration)
            self.service.log_access(
                method=self.command,
                path=self.path,
                status=self._last_status,
                duration=duration,
                trace_id=self._trace_id,
                job_id=self._job_id,
            )

    do_GET = do_POST = do_DELETE = _dispatch

    # ------------------------------------------------------------- handlers

    def _session_deltas(self, name: str, params: dict[str, str], body: object) -> None:
        session = self.service.manager.session(name)
        raw = params.get("since", "0")
        try:
            since = int(raw)
        except ValueError:
            raise ServiceError(f"'since' must be an integer version, got {raw!r}") from None
        self._send_json(
            {
                "session": session.session_id,
                "since": since,
                "current_version": session.current_version,
                "deltas": session.deltas_since(since),
            }
        )

    def _close_session(self, name: str, params: dict[str, str], body: object) -> None:
        self.service.manager.close_session(name)
        self._send_json({"closed": name})

    def _register_graph(self, name: str, params: dict[str, str], body: object) -> None:
        graph = _decode(
            body, dict, graph_from_dict, "graph registration body must be a graph JSON document", "graph"
        )
        registered = self.service.registry.register(name, graph)
        self._send_json(registered.info(), status=201)

    def _apply_update(self, name: str, params: dict[str, str], body: object) -> None:
        delta = _decode(
            body, list, update_from_list, "update body must be a list of unit-update objects", "update"
        )
        outcome = self.service.registry.apply_update(name, delta)
        # the update (and its session deltas) is WAL-logged by the time
        # apply_update returns; the periodic checkpoint runs here, after
        # the graph lock is released, so it never extends the lock hold
        persistence = self.service.persistence
        if persistence is not None:
            persistence.maybe_checkpoint()
        self._send_json(
            {
                "graph": outcome.name,
                "version": outcome.version,
                "applied": len(outcome.delta),
                "sessions_advanced": sum(
                    1
                    for s in self.service.manager.describe_sessions()
                    if s["graph"] == name and s["current_version"] == outcome.version
                ),
            }
        )

    def _create_session(self, name: str, params: dict[str, str], body: object) -> None:
        request = admit_detect_request(parse_detect_request(body))
        session = self.service.manager.create_session(name, request)
        self._send_json(session.state_document(), status=201)

    def _register_catalog(self, name: str, params: dict[str, str], body: object) -> None:
        rules = _decode(
            body, dict, RuleSet.from_dict, "catalog body must be a RuleSet JSON document", "rule-set"
        )
        self.service.manager.register_catalog(name, rules)
        self._send_json({"catalog": name, "rules": len(rules)}, status=201)

    def _send_metrics(self, *_: object) -> None:
        """``GET /metrics``: the process-wide registry in Prometheus text form."""
        text = obs.exposition().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(text)))
        self.end_headers()
        self.wfile.write(text)

    def _send_traces(self, name: Optional[str], params: dict[str, str], body: object) -> None:
        """``GET /debug/traces?limit=N``: recent completed spans, newest last."""
        raw = params.get("limit", "200")
        try:
            limit = int(raw)
        except ValueError:
            raise ServiceError(f"'limit' must be an integer, got {raw!r}") from None
        if limit < 1:
            raise ServiceError(f"'limit' must be >= 1, got {limit}")
        spans = obs.traces(limit)
        self._send_json({"count": len(spans), "spans": spans})

    def _force_checkpoint(self, *_: object) -> None:
        persistence = self.service.persistence
        if persistence is None:
            raise NotFoundError("no durability layer: the service was started without --data-dir")
        self._send_json(persistence.checkpoint())

    def _stream_detect(self, name: str, params: dict[str, str], body: object) -> None:
        """Run one detection on this thread, writing each record as the kernel yields it.

        The rules and the graph snapshot are resolved before admission, so
        an unknown name is a 404 even on a full pool.  The first record is
        pulled before the 200 is committed: a deadline passing before it is
        a 503, any other failure to start a 400.  Past it, a failure ends
        the stream with an in-band ``error`` record.  Closing the generator
        — at the end, on an error or on a failed write — stops the run
        before the slot is released.
        """
        request = admit_detect_request(parse_detect_request(body))
        manager = self.service.manager
        records, self._trace_id = manager.stream_detection(name, request)
        with manager.job_pool.slot() as job_id:
            self._job_id = job_id
            try:
                try:
                    record = next(records, None)
                except DeadlineExceededError:
                    raise
                except Exception as exc:  # noqa: BLE001 - the status line is still ours to set
                    raise ServiceError(f"detection failed to start: {exc!r}") from exc
                self.send_response(200)
                self.send_header("Content-Type", MIME_NDJSON)
                self.send_header("X-Repro-Trace", self._trace_id)
                self.end_headers()
                while record is not None:
                    self.wfile.write(encode_record(record))
                    self.wfile.flush()
                    try:
                        record = next(records, None)
                    except Exception as exc:  # noqa: BLE001 - headers are sent: report in-band
                        record = error_record(f"{exc!r}", retryable=isinstance(exc, DeadlineExceededError))
            except OSError:
                pass  # the client hung up mid-stream; nothing left to tell it
            finally:
                records.close()


def _decode(
    body: object, shape: type, decode: Callable[[object], object], wrong_shape: str, what: str
) -> object:
    """Decode a JSON request body into ``decode``'s object, or raise ServiceError.

    The io decoders raise builtin exceptions on malformed-but-JSON shapes
    (a nodes entry missing its label, a non-list edges value); they become
    the documented 400 body instead of a 500.
    """
    if not isinstance(body, shape):
        raise ServiceError(wrong_shape)
    try:
        return decode(body)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ServiceError(f"{what} document is malformed: {exc!r}") from exc


def _reply(document: Callable[["DetectionService", Optional[str]], object]) -> Callable[..., None]:
    """A route handler that sends ``document(service, name)`` as a 200 JSON body."""
    return lambda handler, name, params, body: handler._send_json(document(handler.service, name))


#: The HTTP surface, declared once: ``(method, path template, handler)``.
#: ``{name}`` matches one path segment and is handed to the handler as
#: ``name``.  Dispatch, the ``route`` metric label and the 404 for an
#: unmatched request all come from this table (:meth:`_ServiceHandler._dispatch`).
ROUTES = (
    ("GET", "/health", _reply(lambda service, name: service.health())),
    ("GET", "/graphs", _reply(lambda service, name: {"graphs": service.registry.describe()})),
    ("POST", "/graphs/{name}", _ServiceHandler._register_graph),
    ("GET", "/graphs/{name}", _reply(lambda service, name: service.registry.get(name).info())),
    ("POST", "/graphs/{name}/updates", _ServiceHandler._apply_update),
    ("POST", "/graphs/{name}/detect", _ServiceHandler._stream_detect),
    ("POST", "/graphs/{name}/sessions", _ServiceHandler._create_session),
    ("GET", "/sessions", _reply(lambda service, name: {"sessions": service.manager.describe_sessions()})),
    ("GET", "/sessions/{name}", _reply(lambda service, name: service.manager.session(name).state_document())),
    ("GET", "/sessions/{name}/deltas", _ServiceHandler._session_deltas),
    ("DELETE", "/sessions/{name}", _ServiceHandler._close_session),
    ("GET", "/rules", _reply(lambda service, name: {"catalogs": service.manager.describe_catalogs()})),
    ("POST", "/rules/{name}", _ServiceHandler._register_catalog),
    ("POST", "/admin/checkpoint", _ServiceHandler._force_checkpoint),
    ("GET", "/metrics", _ServiceHandler._send_metrics),
    ("GET", "/debug/traces", _ServiceHandler._send_traces),
)


def _match(method: str, parts: list[str]) -> tuple[str, Optional[Callable[..., None]], Optional[str]]:
    """Return ``(template, handler, name)`` of the route serving a request.

    An unmatched request gets ``("/unknown", None, None)``.
    """
    for route_method, template, handler in ROUTES:
        segments = template.split("/")[1:]
        if route_method != method or len(segments) != len(parts):
            continue
        name = None
        for segment, part in zip(segments, parts):
            if segment == "{name}":
                name = part
            elif segment != part:
                break
        else:
            return template, handler, name
    return "/unknown", None, None


class DetectionService:
    """Registry + session manager + threaded HTTP server, as one object.

    ::

        service = DetectionService(port=0)
        service.registry.register("g", graph)
        service.manager.register_catalog("example", example_rules())
        with service:                      # start() / stop()
            client = ServiceClient(service.url)
            ...

    ``stop()`` shuts the listener down and joins the serving thread; in-
    flight request threads are daemonic, so shutdown does not hang on a
    slow stream.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[GraphRegistry] = None,
        retain_versions: Optional[int] = None,
        max_jobs: int = DEFAULT_MAX_JOBS,
        data_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        access_log: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else GraphRegistry()
        self.manager = SessionManager(
            self.registry,
            retain_versions=retain_versions,
            job_pool=DetectionJobPool(max_jobs=max_jobs),
        )
        #: one structured line per request on stderr (``serve`` turns this
        #: on unless --quiet)
        self.access_log = access_log
        self._started_at = time.time()
        #: the start-up phases, once :meth:`record_startup` has named them
        self.startup: Optional[dict] = None
        self._modules_at_ready: frozenset[str] = frozenset()
        self.persistence = None
        if data_dir is not None:
            # recovery runs before the socket binds: by the time any client
            # can connect, the registry and sessions are back to the exact
            # acknowledged state, and the journal hooks are attached
            from repro.storage.manager import DEFAULT_CHECKPOINT_EVERY, PersistenceManager

            self.persistence = PersistenceManager(
                data_dir,
                self.registry,
                self.manager,
                checkpoint_every=(
                    checkpoint_every if checkpoint_every is not None else DEFAULT_CHECKPOINT_EVERY
                ),
            )
            self.persistence.recover()
        elif checkpoint_every is not None:
            raise ServiceError("checkpoint_every requires data_dir")
        self._httpd = ThreadingHTTPServer((host, port), _ServiceHandler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -------------------------------------------------------------- lifecycle

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — the port is concrete even for port=0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "DetectionService":
        """Serve requests on a background thread; returns self."""
        if self._thread is not None:
            raise ServiceError("service is already running")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(STOP_POLL_S,),
            name=f"repro-service:{self.address[1]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting connections and join the serving thread."""
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        self._thread = None
        self.manager.shutdown()
        if self.persistence is not None:
            self.persistence.close()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "DetectionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -------------------------------------------------------------- reporting

    def record_startup(self, import_s: float, ready_s: float) -> None:
        """Name the start-up phases (``serve`` calls this just before its ready line).

        ``import_s`` — importing the package, the CLI and the service;
        ``recover_s`` — checkpoint load + WAL replay, with the count of
        ``replayed_records``; ``ready_s`` — from the start of the import to
        the ready line.  Gauges ``repro_service_startup_seconds{phase=…}``
        on the registry and the ``startup`` block of ``GET /health``, which
        also lists every ``repro`` module imported *after* this call — a
        lazy import that landed inside a request.
        """
        recovered = self.persistence.recovered if self.persistence is not None else {}
        self.startup = {
            "import_s": round(import_s, 6),
            "recover_s": recovered.get("seconds", 0.0),
            "replayed_records": recovered.get("replayed", 0),
            "ready_s": round(ready_s, 6),
        }
        for phase in ("import", "recover", "ready"):
            obs.gauge_set("repro_service_startup_seconds", {"phase": phase}, self.startup[f"{phase}_s"])
        self._modules_at_ready = frozenset(sys.modules)

    def log_access(
        self,
        method: str,
        path: str,
        status: int,
        duration: float,
        trace_id: Optional[str] = None,
        job_id: Optional[str] = None,
    ) -> None:
        """Write one structured access-log line to stderr (if enabled)."""
        if not self.access_log:
            return
        fields = [
            f"method={method}",
            f"path={path}",
            f"status={status}",
            f"duration_ms={duration * 1000.0:.2f}",
        ]
        if trace_id is not None:
            fields.append(f"trace={trace_id}")
        if job_id is not None:
            fields.append(f"job={job_id}")
        print(" ".join(fields), file=sys.stderr, flush=True)

    def health(self) -> dict:
        """The ``GET /health`` document.

        Beyond liveness it carries an operational snapshot: process uptime,
        the job pool's occupancy, the supervision counters, and (with a
        durability layer) the WAL LSN and the age of the last checkpoint.
        """
        pool = self.manager.job_pool
        document = {
            "status": "ok",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "graphs": len(self.registry),
            "sessions": self.manager.session_count(),
            "jobs": {"active": pool.active_jobs(), "max": pool.max_jobs},
            "fault_tolerance": _fault_tolerance(obs.snapshot()),
        }
        if self.persistence is not None:
            document["persistence"] = self.persistence.info()
        if self.startup is not None:
            document["startup"] = {
                **self.startup,
                "imported_after_ready": sorted(
                    name
                    for name in list(sys.modules)
                    if name.startswith("repro") and name not in self._modules_at_ready
                ),
            }
        return document
