"""The operation counters every search bills its work to.

Backtracking subgraph matchers (the ``Matchn`` framework of Section 6.2)
compute, for each pattern node ``u``, a candidate set ``C(u)`` of data nodes
that could match ``u``, then verify and expand.  :class:`MatchStatistics`
counts that work in the units the cost model charges; the generated steps
of :mod:`repro.matching.compiled` bill it as they run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "STEP_COUNT_PREFIX",
    "REJECT_COUNT_PREFIX",
    "REJECT_REASONS",
    "MatchStatistics",
]

#: ``MatchStatistics.extra`` key prefix for per-(rule, step, strategy)
#: candidate-scan counts.  The generated steps are far too hot for per-call
#: registry traffic, so each adds plain-dict deltas under
#: ``"step_candidates\x1f<rule>\x1f<step>\x1f<strategy>"`` keys and the
#: detection session flushes them to ``repro_match_candidates_examined`` once
#: per run (:func:`repro.detect.instrument.flush_step_counts`).  ``extra``
#: merges additively across worker processes, so the flush sees the whole
#: run in every execution mode.
STEP_COUNT_PREFIX = "step_candidates\x1f"
#: ``MatchStatistics.extra`` key prefix for per-(rule, step, reason) counts of
#: examined candidates a step rejected, keyed and flushed like the scan counts
#: (to ``repro_match_candidates_rejected_total``).  A candidate is rejected
#: for its ``label``, for a ``unary`` premise literal, or for a pattern
#: ``edge`` it lacks (the degree signature of a scan, another anchor, a
#: self-loop); a step keeps examined − rejected.
REJECT_COUNT_PREFIX = "step_rejected\x1f"
REJECT_REASONS = ("label", "unary", "edge")


@dataclass
class MatchStatistics:
    """Operation counters shared by the matchers.

    The simulated cluster charges these counters to per-worker clocks, so the
    parallel benchmarks measure algorithmic work rather than Python overhead.
    """

    candidates_examined: int = 0
    expansions: int = 0
    edge_checks: int = 0
    literal_evaluations: int = 0
    matches_emitted: int = 0
    extra: dict[str, int] = field(default_factory=dict)

    def total_operations(self) -> int:
        """Return the total work units accounted so far."""
        return (
            self.candidates_examined
            + self.expansions
            + self.edge_checks
            + self.literal_evaluations
            + self.matches_emitted
        )

    def merge(self, other: "MatchStatistics") -> None:
        """Accumulate another counter into this one."""
        self.candidates_examined += other.candidates_examined
        self.expansions += other.expansions
        self.edge_checks += other.edge_checks
        self.literal_evaluations += other.literal_evaluations
        self.matches_emitted += other.matches_emitted
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value
