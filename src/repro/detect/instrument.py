"""Per-rule attribution, shared by the four detection kernels.

All four kernels (Dect, IncDect, PDect, PIncDect) attribute their work the
same way, through one :class:`RuleAttribution` per run: snapshot the run's
:class:`~repro.matching.candidates.MatchStatistics` before a stretch of one
rule's work, add the difference after it, count the rule's violations, and
flush once when the run ends — per-rule counters, plus one ``detect.rule``
span per rule whose attributes carry the exact counter deltas.  Summing the
rule spans of one trace therefore reproduces the run's ``MatchStatistics``
— the invariant ``repro-detect run --profile`` and the observability tests
rely on.

The per-rule work is plain list arithmetic; the flush builds the counters'
label keys itself, takes the recorder lock once and draws span ids without
a system call.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro import obs
from repro.matching.candidates import REJECT_COUNT_PREFIX, STEP_COUNT_PREFIX, MatchStatistics
from repro.obs.tracing import new_id

__all__ = [
    "stats_snapshot",
    "flush_step_counts",
    "RuleAttribution",
]

STAT_FIELDS = (
    "candidates_examined",
    "expansions",
    "edge_checks",
    "literal_evaluations",
    "matches_emitted",
)


def stats_snapshot(stats: MatchStatistics) -> Tuple[int, int, int, int, int]:
    return (
        stats.candidates_examined,
        stats.expansions,
        stats.edge_checks,
        stats.literal_evaluations,
        stats.matches_emitted,
    )


#: count key prefix of ``stats.extra`` -> (counter family, name of its third label)
_STEP_FAMILIES = {
    STEP_COUNT_PREFIX: ("repro_match_candidates_examined", "strategy"),
    REJECT_COUNT_PREFIX: ("repro_match_candidates_rejected_total", "reason"),
}
#: count key of ``stats.extra`` -> the registry key of its counter (built once per key)
_STEP_KEYS: dict[str, tuple] = {}


def flush_step_counts(stats: MatchStatistics) -> None:
    """Emit the run's per-step candidate counters: scanned by strategy, rejected by reason.

    The generated steps accumulate scan counts under
    :data:`~repro.matching.candidates.STEP_COUNT_PREFIX` keys and rejection
    counts under :data:`~repro.matching.candidates.REJECT_COUNT_PREFIX` keys
    in ``stats.extra`` (plain dict arithmetic — registry label handling is
    too slow for the per-expansion hot path); the session calls this once per
    completed run.  ``extra`` merges additively across threads and worker
    processes, so one flush covers every execution mode.
    """
    samples = []
    for key, count in stats.extra.items():
        if not count:
            continue
        counter = _STEP_KEYS.get(key)
        if counter is None:
            head, separator, rest = key.partition("\x1f")
            family = _STEP_FAMILIES.get(head + separator)
            if family is None:
                continue
            rule_name, step, last = rest.split("\x1f")
            labels = (("rule", rule_name), ("step", step), (family[1], last))
            counter = _STEP_KEYS[key] = (family[0], labels)
        samples.append((counter, count))
    obs.metrics().counter_add_many(samples)


#: rule name -> the registry keys of its three counters (built once per name)
_RULE_KEYS: dict[str, tuple] = {}
_RULE_COUNTERS = ("repro_detect_candidates_total", "repro_detect_matches_total", "repro_detect_violations_total")


def _rule_keys(rule_name: str) -> tuple:
    keys = _RULE_KEYS.get(rule_name)
    if keys is None:
        labels = (("rule", rule_name),)
        keys = _RULE_KEYS[rule_name] = tuple((family, labels) for family in _RULE_COUNTERS)
    return keys


class _RuleSpan:
    """A ``detect.rule`` span as a flush records it: its dict form is built when it is read."""

    __slots__ = ("trace_id", "parent_id", "algorithm", "row", "start_time", "_span_id")

    def __init__(self, trace_parent: obs.Span, algorithm: str, row: list, start_time: float) -> None:
        self.trace_id = trace_parent.trace_id
        self.parent_id = trace_parent.span_id
        self.algorithm, self.row, self.start_time = algorithm, row, start_time
        self._span_id: Optional[str] = None

    def to_dict(self) -> dict:
        if self._span_id is None:
            self._span_id = new_id()
        row = self.row
        attributes = {"rule": row[9], "algorithm": self.algorithm}
        if row[6] is not None:
            attributes["cost"] = round(row[6], 6)
        attributes["violations"] = row[5]
        attributes.update(zip(STAT_FIELDS, row))
        return {
            "trace_id": self.trace_id,
            "span_id": self._span_id,
            "parent_id": self.parent_id,
            "name": "detect.rule",
            "start_time": self.start_time if row[7] is None else row[7],
            "duration": row[8],
            "attributes": attributes,
        }


class RuleAttribution:
    """The per-rule rows of one kernel run, emitted once when the run ends.

    A row holds a rule's five statistic deltas, its violations, and — for the
    serial kernels, which run each rule once in one stretch and hand over a
    whole row (:meth:`record`) — its cost and its time.  A simulated parallel
    run (:class:`~repro.detect.parallel.cluster.SimulatedRun`) pops work
    units of every rule in completion order, so its rows add up per unit
    (:meth:`before` / :meth:`after`, :meth:`violation`) and their spans carry
    no cost; a process run (:class:`~repro.detect.parallel.executor.
    ProcessRun`) counts its violations only.  Every run flushes in a
    ``finally``, so a consumer that stops early still gets the rows of the
    work done.  The executor's workers emit counters only, once per
    shipment, and the row set is reusable after each :meth:`emit`.
    """

    __slots__ = ("algorithm", "_rows")

    def __init__(self, algorithm: str) -> None:
        self.algorithm = algorithm
        # rule name (added up per unit) or record number (one per stretch) ->
        # [5 stat deltas, violations, cost or None, start time or None, duration, rule name]
        self._rows: dict[object, list] = {}

    def _row(self, rule_name: str) -> list:
        row = self._rows.get(rule_name)
        if row is None:
            row = self._rows[rule_name] = [0, 0, 0, 0, 0, 0, None, None, 0.0, rule_name]
        return row

    def before(self, stats: MatchStatistics) -> Tuple[int, int, int, int, int]:
        return stats_snapshot(stats)

    def after(self, rule_name: str, before: Tuple[int, int, int, int, int], stats: MatchStatistics) -> None:
        after = stats_snapshot(stats)
        row = self._row(rule_name)
        for index in range(5):
            row[index] += after[index] - before[index]

    def violation(self, rule_name: str, count: int = 1) -> None:
        self._row(rule_name)[5] += count

    def record(self, rule_name: str, before, stats: MatchStatistics, violations: int,
               cost: float, start_time: float, duration: float) -> None:  # fmt: skip
        """Record the whole row of a rule run in one stretch since ``before`` (one span each)."""
        after = stats_snapshot(stats)
        self._rows[len(self._rows)] = [
            after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3],
            after[4] - before[4], violations, cost, start_time, duration, rule_name,
        ]  # fmt: skip

    def emit(self, trace_parent: Optional[obs.Span] = None) -> None:
        """Flush the rows to the registry, and as ``detect.rule`` spans under ``trace_parent``."""
        if not self._rows:
            return
        samples = []
        spans = []
        now = time.time()
        for row in self._rows.values():
            candidates, matches, violations = _rule_keys(row[9])
            samples += ((candidates, row[0]), (matches, row[4]), (violations, row[5]))
            if trace_parent is not None:
                spans.append(_RuleSpan(trace_parent, self.algorithm, row, now))
        obs.metrics().counter_add_many(samples)
        if spans:
            obs.recorder().record_many(spans)
        self._rows = {}
