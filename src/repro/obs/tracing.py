"""Lightweight span tracing with a ring-buffer flight recorder.

A :class:`Span` is a named interval with a ``trace_id`` shared by every
span of one logical operation (a detection run, an HTTP request), its own
``span_id``, an optional ``parent_id``, a wall-clock start, a monotonic
duration, and a free-form attribute dict.  The current span propagates
through a :mod:`contextvars` variable so nested instrumentation picks up
its parent automatically; code that crosses generator or process
boundaries can pass the parent explicitly instead.

Completed spans land in the :class:`FlightRecorder` — a bounded deque, so
the service can expose recent traces (``GET /debug/traces``) without
unbounded memory.  Worker processes record into their own recorder and
ship completed spans back as plain dicts (:meth:`Span.to_dict`), which
the parent replays into its recorder.

Like the metrics registry, tracing is observe-only and must never perturb
detection output.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "FlightRecorder", "current_span_var", "new_id"]


#: The generator behind :func:`new_id`: seeded from the OS once per process,
#: and again in every forked child, so that ids cost no system call.
_ids = random.Random()
os.register_at_fork(after_in_child=_ids.seed)


def new_id() -> str:
    """A 16-hex-char random identifier (cheap, collision-safe enough)."""
    return f"{_ids.getrandbits(64):016x}"


class Span:
    """One timed interval of a trace."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_time",
        "_start_mono",
        "duration",
        "attributes",
    )

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        attributes: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id or new_id()
        self.span_id = new_id()
        self.parent_id = parent_id
        self.start_time = time.time()
        self._start_mono = time.monotonic()
        self.duration: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes or {})

    def set(self, **attributes: object) -> None:
        self.attributes.update(attributes)

    def add(self, key: str, amount: float) -> None:
        self.attributes[key] = self.attributes.get(key, 0) + amount  # type: ignore[operator]

    def finish(self) -> float:
        if self.duration is None:
            self.duration = time.monotonic() - self._start_mono
        return self.duration

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Span({self.name!r}, trace={self.trace_id}, dur={self.duration})"


current_span_var: ContextVar[Optional[Span]] = ContextVar("repro_current_span", default=None)


class FlightRecorder:
    """Bounded buffer of completed spans (most recent ``capacity``)."""

    def __init__(self, capacity: int = 2048) -> None:
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=capacity)

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span.to_dict())

    def record_many(self, spans: list) -> None:
        """Record completed spans under one lock, each turned into a dict by its
        ``to_dict()`` only when it is read."""
        with self._lock:
            self._spans.extend(spans)

    def record_dict(self, payload: dict) -> None:
        """Replay a completed span shipped from another process."""
        if payload:
            with self._lock:
                self._spans.append(dict(payload))

    def snapshot(self, limit: Optional[int] = None) -> List[dict]:
        """Most recent spans, newest last."""
        with self._lock:
            spans = list(self._spans)
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return [span if type(span) is dict else span.to_dict() for span in spans]

    def trace(self, trace_id: str) -> List[dict]:
        """Every recorded span of one trace, in recording order."""
        return [span for span in self.snapshot() if span.get("trace_id") == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


@contextlib.contextmanager
def span_scope(
    recorder: FlightRecorder,
    name: str,
    parent: Optional[Span] = None,
    trace_id: Optional[str] = None,
    **attributes: object,
) -> Iterator[Span]:
    """Open a span, make it current, record it on exit.

    The parent defaults to the contextvar's current span; pass ``parent``
    (or a bare ``trace_id``) explicitly when crossing a generator or
    process boundary where the context variable is not reliable.
    """
    if parent is None:
        parent = current_span_var.get()
    if parent is not None:
        span = Span(name, trace_id=parent.trace_id, parent_id=parent.span_id, attributes=attributes)
    else:
        span = Span(name, trace_id=trace_id, attributes=attributes)
    token = current_span_var.set(span)
    try:
        yield span
    finally:
        current_span_var.reset(token)
        span.finish()
        recorder.record(span)


def format_span_tree(spans: List[dict], trace_id: Optional[str] = None) -> str:
    """Render recorded spans of one trace as an indented tree (``--profile``)."""
    if trace_id is not None:
        spans = [span for span in spans if span.get("trace_id") == trace_id]
    if not spans:
        return "(no spans recorded)"
    by_parent: Dict[Optional[str], List[dict]] = {}
    ids = {span.get("span_id") for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in ids:
            parent = None  # orphan (e.g. parent evicted from the ring) -> root
        by_parent.setdefault(parent, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: s.get("start_time") or 0.0)
    lines: List[str] = []

    def walk(parent: Optional[str], depth: int) -> None:
        for span in by_parent.get(parent, []):
            duration = span.get("duration")
            timing = f"{duration * 1000:.2f}ms" if isinstance(duration, (int, float)) else "?"
            attrs = span.get("attributes") or {}
            detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
            line = f"{'  ' * depth}- {span.get('name')} [{timing}]"
            if detail:
                line += f" {detail}"
            lines.append(line)
            walk(span.get("span_id"), depth + 1)

    walk(None, 0)
    return "\n".join(lines)
