"""The operation counters every search bills its work to.

Backtracking subgraph matchers (the ``Matchn`` framework of Section 6.2)
compute, for each pattern node ``u``, a candidate set ``C(u)`` of data nodes
that could match ``u``, then verify and expand.  :class:`MatchStatistics`
counts that work in the units the cost model charges; the candidate
strategies themselves are compiled per plan step
(:func:`repro.matching.plan.step_candidates`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "STEP_COUNT_PREFIX",
    "MatchStatistics",
]

#: ``MatchStatistics.extra`` key prefix for per-(rule, step, strategy)
#: candidate-scan counts.  The match executor's candidate loop is far too hot
#: for per-call registry traffic (label dicts + sorted key construction), so
#: ``step_candidates`` accumulates plain-dict deltas under
#: ``"step_candidates\x1f<rule>\x1f<step>\x1f<strategy>"`` keys and the
#: detection session flushes them to ``repro_match_candidates_examined`` once
#: per run (:func:`repro.detect.instrument.flush_step_counts`).  ``extra``
#: merges additively across worker processes, so the flush sees
#: the whole run in every execution mode.
STEP_COUNT_PREFIX = "step_candidates\x1f"


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
