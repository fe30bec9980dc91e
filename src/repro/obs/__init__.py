"""Observability facade: one import surface for metrics + tracing.

Usage from instrumentation sites::

    from repro import obs

    obs.counter_inc("repro_wal_appends_total")
    obs.histogram_observe("repro_wal_fsync_seconds", value=elapsed)
    with obs.span("detect.run", algorithm="dect") as root:
        ...
        root.set(violations=len(found))

Everything routes through module-level singletons so the whole process
shares one registry and one flight recorder.  The kill switch is the
``REPRO_OBS`` environment variable: any of ``off``/``0``/``false``/
``disabled`` swaps in no-op stubs (:class:`~repro.obs.metrics.NullRegistry`
and a null span scope) at :func:`configure` time.  ``configure()`` is
called lazily on first use and explicitly by tests and worker bootstrap;
it re-reads the environment, so flipping ``REPRO_OBS`` mid-process takes
effect on the next ``configure()`` — not retroactively.

Hard rule for every instrumentation site: **observe, never steer.**  The
detection kernels must produce byte-identical ``ViolationSet``s whether
observability is on or off (enforced by ``tests/test_observability.py``).
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Iterator, List, Mapping, Optional, Union

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    render_prometheus,
)
from repro.obs.tracing import (
    NULL_SPAN,
    FlightRecorder,
    NullSpan,
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
    "NullRegistry",
    "NullSpan",
    "Span",
    "absorb",
    "absorb_shipped",
    "configure",
    "drain_for_shipping",
    "counter_inc",
    "current_span",
    "dump",
    "enabled",
    "exposition",
    "format_span_tree",
    "gauge_add",
    "gauge_set",
    "histogram_observe",
    "metrics",
    "new_id",
    "recorder",
    "render_prometheus",
    "reset_for_worker",
    "snapshot",
    "span",
    "traces",
]

_OFF_VALUES = {"off", "0", "false", "no", "disabled"}

_lock = threading.Lock()
_configured = False
_enabled = True
_registry: Union[MetricsRegistry, NullRegistry] = NullRegistry()
_recorder = FlightRecorder()


def configure(enabled: Optional[bool] = None) -> bool:
    """(Re)resolve the enabled flag and rebuild the singletons.

    With ``enabled=None`` the flag comes from ``REPRO_OBS`` (default on).
    Always swaps in a *fresh* registry and recorder so tests and worker
    processes start from zero.
    """
    global _configured, _enabled, _registry, _recorder
    with _lock:
        if enabled is None:
            enabled = os.environ.get("REPRO_OBS", "on").strip().lower() not in _OFF_VALUES
        _enabled = bool(enabled)
        _registry = MetricsRegistry() if _enabled else NullRegistry()
        _recorder = FlightRecorder()
        _configured = True
    return _enabled


def _ensure_configured() -> None:
    if not _configured:
        configure()


def enabled() -> bool:
    _ensure_configured()
    return _enabled


def metrics() -> Union[MetricsRegistry, NullRegistry]:
    """The process-wide registry (null object when disabled)."""
    _ensure_configured()
    return _registry


def recorder() -> FlightRecorder:
    """The process-wide flight recorder (records only when enabled)."""
    _ensure_configured()
    return _recorder


def reset_for_worker() -> None:
    """Bootstrap inside an executor worker process.

    ``fork`` children inherit the parent's shards and recorder contents;
    rebuilding both means every count the worker later ships is a *delta*
    attributable to that worker alone.  Re-reads ``REPRO_OBS`` so spawn
    children (fresh interpreter, env inherited) resolve the same flag.
    """
    configure()


# ------------------------------------------------------------------- metrics


def counter_inc(
    name: str, labels: Optional[Mapping[str, object]] = None, amount: float = 1.0
) -> None:
    _ensure_configured()
    _registry.counter_inc(name, labels, amount)


def gauge_set(name: str, labels: Optional[Mapping[str, object]] = None, value: float = 0.0) -> None:
    _ensure_configured()
    _registry.gauge_set(name, labels, value)


def gauge_add(name: str, labels: Optional[Mapping[str, object]] = None, amount: float = 1.0) -> None:
    _ensure_configured()
    _registry.gauge_add(name, labels, amount)


def histogram_observe(
    name: str, labels: Optional[Mapping[str, object]] = None, value: float = 0.0
) -> None:
    _ensure_configured()
    _registry.histogram_observe(name, labels, value)


def snapshot() -> dict:
    _ensure_configured()
    return _registry.snapshot()


def dump() -> Optional[dict]:
    """Worker wire form: the snapshot, or None when disabled/empty."""
    _ensure_configured()
    if not _enabled:
        return None
    payload = _registry.dump()
    if not payload["counters"] and not payload["gauges"] and not payload["histograms"]:
        return None
    return payload


def absorb(payload: Optional[dict], extra_labels: Optional[Mapping[str, object]] = None) -> None:
    _ensure_configured()
    _registry.absorb(payload, extra_labels)


def drain_for_shipping() -> Optional[dict]:
    """Worker-side: snapshot metrics + completed spans, then reset both.

    Returns a plain picklable dict (``{"metrics": ..., "spans": [...]}``)
    for piggybacking on an executor worker report, or None when
    disabled or nothing accumulated.  Because the registry is reset after
    every drain, consecutive payloads are disjoint deltas — the parent can
    absorb each one additively.
    """
    _ensure_configured()
    if not _enabled:
        return None
    payload = {"metrics": _registry.dump(), "spans": _recorder.snapshot()}
    metrics_payload = payload["metrics"]
    if (
        not metrics_payload["counters"]
        and not metrics_payload["gauges"]
        and not metrics_payload["histograms"]
        and not payload["spans"]
    ):
        return None
    configure(_enabled)
    return payload


def absorb_shipped(payload: Optional[dict], extra_labels: Optional[Mapping[str, object]] = None) -> None:
    """Parent-side: merge one :func:`drain_for_shipping` payload."""
    if not payload:
        return
    _ensure_configured()
    if not _enabled:
        return
    _registry.absorb(payload.get("metrics"), extra_labels)
    for span in payload.get("spans") or ():
        _recorder.record_dict(span)


def exposition() -> str:
    _ensure_configured()
    return _registry.exposition()


# ------------------------------------------------------------------- tracing


@contextlib.contextmanager
def span(
    name: str,
    parent: Optional[Span] = None,
    trace_id: Optional[str] = None,
    **attributes: object,
) -> Iterator[Union[Span, NullSpan]]:
    """Open a span as a context manager; no-op when disabled."""
    _ensure_configured()
    if not _enabled:
        yield NULL_SPAN
        return
    with span_scope(_recorder, name, parent=parent, trace_id=trace_id, **attributes) as opened:
        yield opened


def current_span() -> Optional[Span]:
    _ensure_configured()
    if not _enabled:
        return None
    return current_span_var.get()


def traces(limit: Optional[int] = None) -> List[dict]:
    _ensure_configured()
    return _recorder.snapshot(limit)
