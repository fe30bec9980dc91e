"""A stdlib (``http.client``) client for the detection service.

One :class:`ServiceClient` per server URL; every call opens its own
connection (the server speaks HTTP/1.0, one request per connection), so a
single client instance may be shared freely between threads — the
concurrency tests hammer one client from N threads.  Every call goes
through one request loop (``ServiceClient._request``): it sends, retries
what may be retried, and turns any status >= 400 into one
:class:`~repro.errors.ServiceError` reading ``"{method} {path} failed with
{status}: {error}"``.

The streaming call is a generator::

    client = ServiceClient("http://127.0.0.1:8731")
    for record in client.stream_detect("yago", catalog="example", max_violations=5):
        if record["type"] == "violation":
            print(record["rule"], record["nodes"])
        elif record["type"] == "summary":
            print("version", record["graph_version"], record["stop_reason"])

:meth:`ServiceClient.detect` is the buffered convenience on top: it drains
the stream into ``(violations, summary)`` with the violations already
rebuilt as :class:`~repro.core.violations.Violation` objects.

Timeouts and retries
--------------------

``timeout`` bounds TCP connection establishment and each socket read
after the connection is up (a streaming detect can legitimately idle
between records while the kernel searches, so it defaults to a minute).

``retries=N`` opts into automatic retry with exponential backoff + jitter —
**for idempotent GET requests only** (``health``, ``metrics``,
``list_rules``, ``list_graphs``, ``list_sessions``, and the other read-only
lookups).  POST requests are *never* retried by the client: a detect stream
re-run repeats real matching work, an update POST re-applied is a double
mutation.  Transient conditions on those paths are surfaced instead — a
429/503 raises :class:`~repro.errors.ServiceError` with the status in the
message, and the caller decides whether re-issuing is safe.
"""

from __future__ import annotations

import json
import random
import time
from typing import Iterator, Optional
from urllib.parse import urlsplit

from http.client import HTTPConnection, HTTPResponse

from repro.core.ngd import RuleSet
from repro.core.violations import Violation
from repro.errors import ServiceError
from repro.graph.graph import Graph
from repro.graph.io import graph_to_dict, update_to_list
from repro.graph.updates import BatchUpdate
from repro.service.protocol import DetectRequest, decode_record
from repro.service.registry import validate_resource_name

__all__ = ["ServiceClient", "DetectReply"]


class DetectReply:
    """The buffered form of one detection stream: violations + summary."""

    def __init__(self, violations: list[Violation], summary: dict) -> None:
        self.violations = violations
        self.summary = summary

    @property
    def graph_version(self) -> int:
        return self.summary["graph_version"]

    @property
    def stopped_early(self) -> bool:
        return bool(self.summary.get("stopped_early"))

    def __len__(self) -> int:
        return len(self.violations)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DetectReply({len(self.violations)} violations @ v{self.summary.get('graph_version')})"


class ServiceClient:
    """Talks the service wire protocol; raises :class:`ServiceError` on 4xx/5xx.

    ``timeout`` bounds the connect and every read; ``retries`` opts into
    backoff-retry on transient failures **for idempotent GETs only** — see
    the module docstring for the idempotency rule.
    """

    #: statuses worth retrying on an idempotent request (the server uses
    #: 429 for pool saturation and 503 + Retry-After for transient faults)
    RETRYABLE_STATUSES = (429, 502, 503, 504)

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = 0,
        retry_backoff: float = 0.1,
    ) -> None:
        parsed = urlsplit(base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServiceError(f"service URL must be http://host:port, got {base_url!r}")
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff

    # -------------------------------------------------------------- plumbing

    def _request(self, method: str, path: str, body: Optional[object] = None) -> HTTPResponse:
        """Send one request and return its open response; the one request loop.

        Only idempotent GETs are retried, on :attr:`RETRYABLE_STATUSES` or an
        ``OSError``: re-sending a POST would repeat a mutation or re-run real
        detection work (module docstring).  Any status >= 400 raises one
        :class:`ServiceError` naming the request, the status and the server's
        ``error`` text; a connection failure keeps its ``OSError`` type, so
        callers can tell "server gone" from a protocol-level error.
        """
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body, default=str).encode("utf-8")
            headers["Content-Type"] = "application/json"
        attempts = 1 + (self.retries if method == "GET" else 0)
        failure: Exception
        for attempt in range(attempts):
            if attempt:
                # exponential backoff with full jitter: 0..backoff*2^(n-1)
                time.sleep(random.uniform(0, self.retry_backoff * (2 ** (attempt - 1))))
            # the HTTPConnection timeout bounds connect() and every socket read
            connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
            except OSError as exc:
                failure = exc
                continue
            if response.status < 400:
                return response
            with response:
                raw = response.read().decode("utf-8", "replace")
            try:
                error = json.loads(raw).get("error", raw)
            except (json.JSONDecodeError, AttributeError):
                error = raw
            failure = ServiceError(f"{method} {path} failed with {response.status}: {error}")
            if response.status not in self.RETRYABLE_STATUSES:
                break
        raise failure

    def _read(self, method: str, path: str, body: Optional[object] = None) -> bytes:
        with self._request(method, path, body) as response:
            return response.read()

    def _json(self, method: str, path: str, body: Optional[object] = None) -> dict:
        raw = self._read(method, path, body)
        return json.loads(raw.decode("utf-8")) if raw else {}

    # ---------------------------------------------------------------- basics

    def health(self) -> dict:
        return self._json("GET", "/health")

    def metrics(self) -> str:
        """Return the raw Prometheus text exposition of ``GET /metrics``."""
        return self._read("GET", "/metrics").decode("utf-8")

    def list_graphs(self) -> list[dict]:
        return self._json("GET", "/graphs")["graphs"]

    def register_graph(self, name: str, graph: Graph) -> dict:
        """Upload a graph (``graph_to_dict`` wire form) and register it."""
        validate_resource_name(name, "graph")
        return self._json("POST", f"/graphs/{name}", graph_to_dict(graph))

    def graph_info(self, name: str) -> dict:
        return self._json("GET", f"/graphs/{name}")

    def post_update(self, name: str, delta: BatchUpdate) -> dict:
        """Apply ΔG to a registered graph; returns the new version."""
        return self._json("POST", f"/graphs/{name}/updates", update_to_list(delta))

    def register_rules(self, name: str, rules: RuleSet) -> dict:
        validate_resource_name(name, "catalog")
        return self._json("POST", f"/rules/{name}", rules.to_dict())

    def list_rules(self) -> list[dict]:
        return self._json("GET", "/rules")["catalogs"]

    def checkpoint(self) -> dict:
        """Force a durability checkpoint (server must run with --data-dir)."""
        return self._json("POST", "/admin/checkpoint")

    # ------------------------------------------------------------- detection

    def stream_detect(
        self,
        graph: str,
        rules: Optional[RuleSet] = None,
        catalog: Optional[str] = None,
        engine: str = "auto",
        processors: Optional[int] = None,
        max_violations: Optional[int] = None,
        max_cost: Optional[float] = None,
        execution: str = "simulated",
        timeout_seconds: Optional[float] = None,
    ) -> Iterator[dict]:
        """Yield the NDJSON records of one detection request as they arrive.

        Raises :class:`ServiceError` if the request is rejected up front
        (4xx/5xx before the stream starts — including 429 when the server's
        detection job pool is saturated and 503 + Retry-After for transient
        faults, which callers should treat as retry-after-backoff) or if
        the stream terminates with an ``error`` record instead of a
        summary.  Detect streams are never retried automatically — see the
        module docstring.

        ``timeout_seconds`` is the *server-side* per-request deadline; the
        server aborts the job when it elapses (503 before any record, an
        in-band error record after).
        """
        body = DetectRequest(
            rules=rules,
            catalog=catalog,
            engine=engine,
            processors=processors,
            max_violations=max_violations,
            max_cost=max_cost,
            execution=execution,
            timeout_seconds=timeout_seconds,
        ).to_document()
        with self._request("POST", f"/graphs/{graph}/detect", body) as response:
            finished = False
            for line in response:
                line = line.strip()
                if not line:
                    continue
                record = decode_record(line)
                if record["type"] == "error":
                    raise ServiceError(f"detection stream failed: {record['error']}")
                yield record
                if record["type"] == "summary":
                    finished = True
            if not finished:
                raise ServiceError("detection stream ended without a summary record")

    def detect(self, graph: str, **kwargs) -> DetectReply:
        """Run one detection request to completion; buffered convenience."""
        violations: list[Violation] = []
        summary: Optional[dict] = None
        for record in self.stream_detect(graph, **kwargs):
            if record["type"] == "violation":
                violations.append(Violation.from_dict(record))
            else:
                summary = record
        assert summary is not None  # stream_detect guarantees a summary
        return DetectReply(violations, summary)

    # -------------------------------------------------------------- sessions

    def create_session(
        self,
        graph: str,
        rules: Optional[RuleSet] = None,
        catalog: Optional[str] = None,
        engine: str = "auto",
        processors: Optional[int] = None,
    ) -> dict:
        """Open a continuous session; returns its initial state document."""
        body = DetectRequest(rules=rules, catalog=catalog, engine=engine, processors=processors).to_document()
        return self._json("POST", f"/graphs/{graph}/sessions", body)

    def list_sessions(self) -> list[dict]:
        return self._json("GET", "/sessions")["sessions"]

    def session_state(self, session_id: str) -> dict:
        return self._json("GET", f"/sessions/{session_id}")

    def session_deltas(self, session_id: str, since: int = 0) -> dict:
        return self._json("GET", f"/sessions/{session_id}/deltas?since={since}")

    def close_session(self, session_id: str) -> dict:
        return self._json("DELETE", f"/sessions/{session_id}")
