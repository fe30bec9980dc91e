"""Observability facade: one import surface for metrics + tracing.

Usage from instrumentation sites::

    from repro import obs

    obs.counter_inc("repro_wal_appends_total")
    obs.histogram_observe("repro_wal_fsync_seconds", value=elapsed)
    with obs.span("detect.run", algorithm="dect") as root:
        ...
        root.set(violations=len(found))

Everything routes through module-level singletons so the whole process
shares one registry and one flight recorder, and both always record.
:func:`configure` swaps in a fresh, empty pair; tests and executor worker
processes call it to start counting from zero.

Hard rule for every instrumentation site: **observe, never steer.**  No
metric or span may influence detection order, planning, or output; the
kernels' violations must equal the naive reference detector's (enforced by
``tests/test_observability.py``).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, List, Mapping, Optional

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, render_prometheus
from repro.obs.tracing import (
    FlightRecorder,
    Span,
    current_span_var,
    format_span_tree,
    new_id,
    span_scope,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "MetricsRegistry",
    "Span",
    "absorb_shipped",
    "configure",
    "drain_for_shipping",
    "counter_inc",
    "current_span",
    "exposition",
    "format_span_tree",
    "gauge_add",
    "gauge_set",
    "histogram_observe",
    "metrics",
    "new_id",
    "recorder",
    "render_prometheus",
    "snapshot",
    "span",
    "traces",
]

_lock = threading.Lock()
_registry = MetricsRegistry()
_recorder = FlightRecorder()


def configure() -> None:
    """Swap in a fresh registry and recorder, so counting starts from zero.

    ``fork`` children inherit the parent's samples and spans; an executor
    worker calls this first, so every count it later ships is a *delta*
    attributable to that worker alone.
    """
    global _registry, _recorder
    with _lock:
        _registry = MetricsRegistry()
        _recorder = FlightRecorder()


def metrics() -> MetricsRegistry:
    """The process-wide registry."""
    return _registry


def recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _recorder


# ------------------------------------------------------------------- metrics


def counter_inc(
    name: str, labels: Optional[Mapping[str, object]] = None, amount: float = 1.0
) -> None:
    _registry.counter_inc(name, labels, amount)


def gauge_set(name: str, labels: Optional[Mapping[str, object]] = None, value: float = 0.0) -> None:
    _registry.gauge_set(name, labels, value)


def gauge_add(name: str, labels: Optional[Mapping[str, object]] = None, amount: float = 1.0) -> None:
    _registry.gauge_add(name, labels, amount)


def histogram_observe(
    name: str, labels: Optional[Mapping[str, object]] = None, value: float = 0.0
) -> None:
    _registry.histogram_observe(name, labels, value)


def snapshot() -> dict:
    return _registry.snapshot()


def drain_for_shipping() -> Optional[dict]:
    """Worker-side: snapshot metrics + completed spans, then reset both.

    Returns a plain picklable dict (``{"metrics": ..., "spans": [...]}``)
    for piggybacking on an executor worker report, or None when nothing
    accumulated.  Because the registry is reset after every drain,
    consecutive payloads are disjoint deltas — the parent can absorb each
    one additively.
    """
    payload = {"metrics": _registry.dump(), "spans": _recorder.snapshot()}
    metrics_payload = payload["metrics"]
    if (
        not metrics_payload["counters"]
        and not metrics_payload["gauges"]
        and not metrics_payload["histograms"]
        and not payload["spans"]
    ):
        return None
    configure()
    return payload


def absorb_shipped(payload: Optional[dict], extra_labels: Optional[Mapping[str, object]] = None) -> None:
    """Parent-side: merge one :func:`drain_for_shipping` payload."""
    if not payload:
        return
    _registry.absorb(payload.get("metrics"), extra_labels)
    for span in payload.get("spans") or ():
        _recorder.record_dict(span)


def exposition() -> str:
    return _registry.exposition()


# ------------------------------------------------------------------- tracing


@contextlib.contextmanager
def span(
    name: str,
    parent: Optional[Span] = None,
    trace_id: Optional[str] = None,
    **attributes: object,
) -> Iterator[Span]:
    """Open a span as a context manager; it is recorded when the block exits."""
    with span_scope(_recorder, name, parent=parent, trace_id=trace_id, **attributes) as opened:
        yield opened


def current_span() -> Optional[Span]:
    return current_span_var.get()


def traces(limit: Optional[int] = None) -> List[dict]:
    return _recorder.snapshot(limit)
