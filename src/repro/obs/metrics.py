"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the write side of the observability subsystem
(:mod:`repro.obs`).  Every sample lives in one map per kind, guarded by the
registry lock: a write takes the lock once, and a snapshot copies the maps
under it, so a reader's cost follows the number of label sets, not the
number of threads that ever wrote.  No caller writes per candidate: the
match executor's hot loop counts into ``MatchStatistics.extra`` and the
session flushes that once per run.

Histograms use fixed bucket boundaries declared up front (per family); a
cell list holds the per-bucket counts plus sum and count, so the observe
path is two index operations.

Cross-process flow: executor worker processes start a *fresh* registry
(:func:`repro.obs.configure`), accumulate deltas locally, and ship
``registry.dump()`` — a plain JSON-serializable dict — back in the
reports they already send.  The parent merges with
``registry.absorb(dump, extra_labels={"worker": wid})`` so per-worker
attribution survives both ``fork`` and ``spawn`` start methods.

Everything here is observe-only: no metric ever influences detection
order, planning, or output.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "render_prometheus",
]

# Latency-oriented defaults (seconds): spans fsync (~100us) through slow
# multi-second detection runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, object]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Counters, gauges, and fixed-bucket histograms with label sets."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # family name -> (kind, help, buckets-or-None)
        self._families: Dict[str, Tuple[str, str, Optional[Tuple[float, ...]]]] = {}
        # (name, label_items) -> float
        self._counters: Dict[Tuple[str, LabelItems], float] = {}
        self._gauges: Dict[Tuple[str, LabelItems], float] = {}
        # (name, label_items) -> [bucket_counts..., sum, count]
        self._histograms: Dict[Tuple[str, LabelItems], List[float]] = {}

    # ------------------------------------------------------------- metadata

    def describe(
        self,
        name: str,
        kind: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        """Register family metadata (idempotent; first description wins)."""
        with self._lock:
            if name not in self._families:
                bucket_tuple = tuple(buckets) if buckets is not None else (
                    DEFAULT_BUCKETS if kind == "histogram" else None
                )
                self._families[name] = (kind, help_text, bucket_tuple)

    def _family(self, name: str, kind: str) -> Tuple[str, str, Optional[Tuple[float, ...]]]:
        family = self._families.get(name)
        if family is None:
            self.describe(name, kind)
            family = self._families[name]
        return family

    # ---------------------------------------------------------------- writes

    def counter_inc(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
        amount: float = 1.0,
    ) -> None:
        if name not in self._families:
            self._family(name, "counter")
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def counter_add_many(self, samples: Iterable[Tuple[Tuple[str, LabelItems], float]]) -> None:
        """Add ``((name, label items), amount)`` samples under one lock.

        The label items must be in the form :func:`_label_key` builds
        (sorted ``(str, str)`` pairs): a caller that keeps its keys skips
        that per-sample work.
        """
        samples = list(samples)
        for key, _ in samples:
            if key[0] not in self._families:
                self._family(key[0], "counter")
        with self._lock:
            counters = self._counters
            for key, amount in samples:
                counters[key] = counters.get(key, 0.0) + amount

    def gauge_set(
        self, name: str, labels: Optional[Mapping[str, object]] = None, value: float = 0.0
    ) -> None:
        if name not in self._families:
            self._family(name, "gauge")
        with self._lock:
            self._gauges[(name, _label_key(labels))] = float(value)

    def gauge_add(
        self, name: str, labels: Optional[Mapping[str, object]] = None, amount: float = 1.0
    ) -> None:
        if name not in self._families:
            self._family(name, "gauge")
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = self._gauges.get(key, 0.0) + amount

    def histogram_observe(
        self, name: str, labels: Optional[Mapping[str, object]] = None, value: float = 0.0
    ) -> None:
        kind, _, buckets = self._family(name, "histogram")
        if kind != "histogram" or buckets is None:
            return
        key = (name, _label_key(labels))
        with self._lock:
            cells = self._histograms.get(key)
            if cells is None:
                # bucket counts + [sum, count] appended at the end
                cells = self._histograms[key] = [0.0] * (len(buckets) + 2)
            for index, bound in enumerate(buckets):
                if value <= bound:
                    cells[index] += 1.0
                    break
            cells[-2] += value
            cells[-1] += 1.0

    # ----------------------------------------------------------------- reads

    def snapshot(self) -> dict:
        """Copy every sample into one plain dict (also the wire ``dump``).

        Shape::

            {"families": {name: {"kind": ..., "help": ..., "buckets": [...]}},
             "counters": [[name, [[k, v]...], value], ...],
             "gauges":   [[name, [[k, v]...], value], ...],
             "histograms": [[name, [[k, v]...], [bucket_counts..., sum, count]], ...]}
        """
        with self._lock:
            families = {
                name: {"kind": kind, "help": help_text, "buckets": list(buckets) if buckets else None}
                for name, (kind, help_text, buckets) in self._families.items()
            }
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = [(key, list(cells)) for key, cells in self._histograms.items()]
        return {
            "families": families,
            "counters": [[name, [list(kv) for kv in key], value] for (name, key), value in counters],
            "gauges": [[name, [list(kv) for kv in key], value] for (name, key), value in gauges],
            "histograms": [[name, [list(kv) for kv in key], cells] for (name, key), cells in histograms],
        }

    dump = snapshot  # the worker->parent wire form is just the snapshot

    def absorb(self, dump: Optional[dict], extra_labels: Optional[Mapping[str, object]] = None) -> None:
        """Merge a worker's ``dump()`` into this registry.

        ``extra_labels`` (e.g. ``{"worker": 3}``) are appended to every
        sample's label set so per-worker attribution survives the merge.
        Gauges are summed (worker gauges are deltas by construction).
        """
        if not dump:
            return
        extra = list(_label_key(extra_labels))

        def keyed(name: str, key_items) -> Tuple[str, LabelItems]:
            return (name, tuple(sorted(tuple(map(str, kv)) for kv in key_items) + extra))

        for name, meta in dump.get("families", {}).items():
            self.describe(name, meta.get("kind", "counter"), meta.get("help", ""), meta.get("buckets"))
        with self._lock:
            for name, key_items, value in dump.get("counters", []):
                key = keyed(name, key_items)
                self._counters[key] = self._counters.get(key, 0.0) + value
            for name, key_items, value in dump.get("gauges", []):
                key = keyed(name, key_items)
                self._gauges[key] = self._gauges.get(key, 0.0) + value
            for name, key_items, cells in dump.get("histograms", []):
                key = keyed(name, key_items)
                merged = self._histograms.get(key)
                if merged is None:
                    self._histograms[key] = list(cells)
                else:
                    for index, cell in enumerate(cells):
                        merged[index] += cell

    def value(self, name: str, labels: Optional[Mapping[str, object]] = None) -> float:
        """Read one counter/gauge value (tests)."""
        key = (name, _label_key(labels))
        with self._lock:
            return self._counters.get(key, self._gauges.get(key, 0.0))

    def total(self, name: str) -> float:
        """Sum a counter family across every label set."""
        with self._lock:
            return sum(value for (metric_name, _), value in self._counters.items() if metric_name == name)

    def exposition(self) -> str:
        return render_prometheus(self.snapshot())


# ------------------------------------------------------------------ exposition


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(items: Iterable[Sequence[str]]) -> str:
    rendered = ",".join(f'{key}="{_escape_label_value(str(value))}"' for key, value in items)
    return "{" + rendered + "}" if rendered else ""


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text format."""
    families = snapshot.get("families", {})
    by_family: Dict[str, List[str]] = {}

    def add(name: str, line: str) -> None:
        by_family.setdefault(name, []).append(line)

    for name, key_items, value in sorted(snapshot.get("counters", [])):
        add(name, f"{name}{_format_labels(key_items)} {_format_value(value)}")
    for name, key_items, value in sorted(snapshot.get("gauges", [])):
        add(name, f"{name}{_format_labels(key_items)} {_format_value(value)}")
    for name, key_items, cells in sorted(snapshot.get("histograms", [])):
        meta = families.get(name) or {}
        buckets = meta.get("buckets") or list(DEFAULT_BUCKETS)
        cumulative = 0.0
        for index, bound in enumerate(buckets):
            cumulative += cells[index] if index < len(cells) - 2 else 0.0
            items = list(key_items) + [["le", repr(float(bound))]]
            add(name, f"{name}_bucket{_format_labels(items)} {_format_value(cumulative)}")
        total_count = cells[-1]
        items = list(key_items) + [["le", "+Inf"]]
        add(name, f"{name}_bucket{_format_labels(items)} {_format_value(total_count)}")
        add(name, f"{name}_sum{_format_labels(key_items)} {_format_value(cells[-2])}")
        add(name, f"{name}_count{_format_labels(key_items)} {_format_value(total_count)}")

    lines: List[str] = []
    for name in sorted(set(by_family) | set(families)):
        meta = families.get(name) or {}
        help_text = meta.get("help") or name.replace("_", " ")
        kind = meta.get("kind", "untyped")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(by_family.get(name, []))
    return "\n".join(lines) + "\n"
