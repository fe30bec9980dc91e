"""Adaptive replanning: observe candidate cardinalities, re-order plan suffixes.

Compiled :class:`~repro.matching.plan.MatchPlan`\\ s pick their variable order
from *estimates* — label cardinalities and anchored co-occurrence fans.  Real
candidate sets can drift far from those estimates (correlated attributes,
selective premise literals the cost model cannot see).  This module closes
the loop at execution time:

* :class:`AdaptiveController` — one per plan per run — records the observed
  candidate count every time a plan step executes
  (:func:`~repro.matching.plan.step_candidates`).  Once a step has enough
  samples and its observed mean drifts past the threshold (a multiplicative
  ratio, default 2x either way), the controller re-orders the *unbound
  suffix* of the executing order via :meth:`MatchPlan.revised_order`,
  substituting observed means for the drifted estimates.  The bound prefix
  is untouched, so in-flight partial matches stay valid; suffix re-ordering
  never changes *which* matches an exhaustive search finds, only how many
  candidates it examines on the way.

* :class:`CardinalityHistory` — observed means folded across runs, keyed by
  ``(rule name, graph signature)``.  Persisted next to plan documents
  (``save_plans(..., history=...)``) and replayed into the next
  :func:`~repro.matching.plan.compile_plans` call as a prior, so a second
  run starts from what the first one measured.

Both layers are pure cost-model inputs: they affect candidate *order* and
operation counts, never the violation set.  The process-wide switch is
``REPRO_ADAPTIVE_REPLAN`` (default on, meaningful only while the planner
itself is active); ``REPRO_ADAPTIVE_DRIFT`` tunes the drift ratio.
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.matching.plan import GraphStatistics, MatchPlan, PlanStep

__all__ = [
    "ADAPTIVE_ENV",
    "DRIFT_ENV",
    "MIN_SAMPLES",
    "adaptive_enabled",
    "drift_threshold",
    "AdaptiveController",
    "CardinalityHistory",
    "resolve_adaptive",
    "history_from_document",
]

#: Environment switch for adaptive replanning; any of ``off``/``0``/``false``/
#: ``no`` (case-insensitive) pins every run to its compiled static order.
ADAPTIVE_ENV = "REPRO_ADAPTIVE_REPLAN"

#: Multiplicative drift ratio: a step has drifted when ``observed mean /
#: estimate`` leaves ``[1/t, t]``.  Must be > 1.
DRIFT_ENV = "REPRO_ADAPTIVE_DRIFT"

#: Observations of one (variable, strategy) required before its mean is
#: trusted — keeps tiny graphs (and unit-test fixtures) on their static
#: plans, where replanning could never pay for itself anyway.
MIN_SAMPLES = 8

_DEFAULT_DRIFT = 2.0


def adaptive_enabled() -> bool:
    """Return True unless ``REPRO_ADAPTIVE_REPLAN`` disables replanning."""
    return os.environ.get(ADAPTIVE_ENV, "on").strip().lower() not in ("off", "0", "false", "no")


def drift_threshold() -> float:
    """Return the drift ratio (``REPRO_ADAPTIVE_DRIFT``, default 2.0)."""
    raw = os.environ.get(DRIFT_ENV)
    if raw is None:
        return _DEFAULT_DRIFT
    try:
        value = float(raw)
    except ValueError:
        return _DEFAULT_DRIFT
    return value if value > 1.0 else _DEFAULT_DRIFT


class AdaptiveController:
    """Per-plan, per-run observation and suffix-replanning state.

    Controllers are cheap and single-threaded by design: each executor
    (a serial kernel, or one worker process) builds its own for the run.
    ``observe`` is on the hot path — a dict update and one ratio compare.
    """

    __slots__ = ("plan", "threshold", "replans", "_cells", "_low", "_drifted", "_revisions")

    def __init__(self, plan: "MatchPlan", threshold: Optional[float] = None) -> None:
        self.plan = plan
        self.threshold = threshold if threshold is not None else drift_threshold()
        self._low = 1.0 / self.threshold
        self.replans = 0
        # (variable, strategy) -> [samples, total, estimate]; the estimate a key is
        # judged against is that of the step observed when the key became trusted
        self._cells: dict[tuple[str, str], list] = {}
        self._drifted: set[tuple[str, str]] = set()
        self._revisions: dict[tuple[tuple[str, ...], int], tuple[str, ...]] = {}

    # ------------------------------------------------------------ observation

    def observe(self, step: "PlanStep", count: int) -> None:
        """Record one executed step's observed candidate count."""
        key = step.key
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = [0, 0.0, None]
        samples = cell[0] = cell[0] + 1
        total = cell[1] = cell[1] + count
        if samples < MIN_SAMPLES:
            return
        estimate = cell[2]
        if estimate is None:
            estimate = cell[2] = max(step.estimated_candidates, 1.0)
        ratio = max(total / samples, 1.0) / estimate
        if ratio > self.threshold or ratio < self._low:
            self._drifted.add(key)
        else:
            self._drifted.discard(key)

    def observed_means(self) -> dict[tuple[str, str], float]:
        """Return every trusted mean (``>= MIN_SAMPLES`` observations)."""
        return {
            key: total / samples
            for key, (samples, total, _) in self._cells.items()
            if samples >= MIN_SAMPLES
        }

    # ------------------------------------------------------------- replanning

    def order_for(self, order: tuple[str, ...], depth: int) -> tuple[str, ...]:
        """Return the order a unit bound to ``depth`` variables should follow.

        Returns ``order`` unchanged until some unbound step has drifted;
        then the suffix is re-greedily ordered over the observed means
        (memoised per ``(order, depth)`` — the revision freezes the first
        time it is computed, so sibling units agree within a run).
        """
        if not self._drifted or len(order) - depth < 2:
            return order
        key = (order, depth)
        cached = self._revisions.get(key)
        if cached is not None:
            return cached
        schedule = self.plan.schedule_for(order)
        if not any(step.key in self._drifted for step in schedule[depth:]):
            return order
        blended: dict[tuple[str, str], float] = dict(self.plan.observed or {})
        blended.update(self.observed_means())
        revised = self.plan.revised_order(order, depth, blended)
        self._revisions[key] = revised
        if revised != order:
            self.replans += 1
        return revised

    # -------------------------------------------------------------- reporting

    def snapshot(self) -> dict[tuple[str, str], tuple[int, float]]:
        """Return ``{(variable, strategy): (samples, total)}`` for history folding."""
        return {key: (samples, total) for key, (samples, total, _) in self._cells.items()}


class CardinalityHistory:
    """Observed candidate cardinalities folded across runs.

    Entries are keyed by rule name and graph signature (node/edge counts):
    the same rule over a similar-sized graph very likely has similar true
    cardinalities, so :meth:`priors_for` serves the nearest signature within
    a relative window.  The JSON document form is embedded in plan documents
    under the top-level ``"history"`` key (:func:`~repro.matching.plan.
    plans_to_document`).
    """

    FORMAT = "repro-cardinality-history"

    #: A stored signature serves as prior only within this relative size
    #: window — statistics from a graph 10x larger would mislead more than
    #: the static model.
    SIGNATURE_TOLERANCE = 0.25

    def __init__(self) -> None:
        # {rule_name: {(node_count, edge_count): {(variable, strategy): [samples, total]}}}
        self._entries: dict[str, dict[tuple[int, int], dict[tuple[str, str], list]]] = {}

    def __bool__(self) -> bool:
        return bool(self._entries)

    @staticmethod
    def _signature(stats: "GraphStatistics") -> tuple[int, int]:
        return (stats.node_count, stats.edge_count)

    # ----------------------------------------------------------------- folding

    def fold(self, rule_name: str, stats: "GraphStatistics", snapshot: Mapping) -> None:
        """Merge one controller :meth:`~AdaptiveController.snapshot` into the history."""
        if not snapshot:
            return
        signature = self._signature(stats)
        steps = self._entries.setdefault(rule_name, {}).setdefault(signature, {})
        for key, (samples, total) in snapshot.items():
            cell = steps.setdefault(key, [0, 0.0])
            cell[0] += int(samples)
            cell[1] += float(total)

    def fold_controllers(self, controllers: Sequence[Optional[AdaptiveController]]) -> None:
        """Fold every controller of a finished run (None entries skipped)."""
        for controller in controllers:
            if controller is None:
                continue
            self.fold(
                controller.plan.rule.name,
                controller.plan.statistics,
                controller.snapshot(),
            )

    # ------------------------------------------------------------------ priors

    def priors_for(
        self, rule_name: str, stats: "GraphStatistics"
    ) -> Optional[dict[tuple[str, str], float]]:
        """Return observed-mean priors for compiling ``rule_name`` over ``stats``.

        Picks the recorded signature closest to the graph's (relative node
        then edge distance) within :attr:`SIGNATURE_TOLERANCE`; only steps
        with at least :data:`MIN_SAMPLES` observations contribute.
        """
        by_signature = self._entries.get(rule_name)
        if not by_signature:
            return None
        node_count, edge_count = self._signature(stats)

        def distance(signature: tuple[int, int]) -> tuple[float, float]:
            nodes, edges = signature
            return (
                abs(nodes - node_count) / max(node_count, 1),
                abs(edges - edge_count) / max(edge_count, 1),
            )

        best = min(sorted(by_signature), key=distance)
        node_distance, edge_distance = distance(best)
        if node_distance > self.SIGNATURE_TOLERANCE or edge_distance > self.SIGNATURE_TOLERANCE:
            return None
        priors = {
            key: total / samples
            for key, (samples, total) in by_signature[best].items()
            if samples >= MIN_SAMPLES
        }
        return priors or None

    # ------------------------------------------------------------- persistence

    def to_document(self) -> dict:
        """Return the JSON form embedded in plan documents."""
        rules = {}
        for rule_name, by_signature in sorted(self._entries.items()):
            entries = []
            for (nodes, edges), steps in sorted(by_signature.items()):
                entries.append(
                    {
                        "node_count": nodes,
                        "edge_count": edges,
                        "steps": [
                            [variable, strategy, samples, total]
                            for (variable, strategy), (samples, total) in sorted(steps.items())
                        ],
                    }
                )
            rules[rule_name] = entries
        return {"format": self.FORMAT, "rules": rules}

    @classmethod
    def from_document(cls, document: Mapping) -> "CardinalityHistory":
        """Rebuild a history from :meth:`to_document` output."""
        from repro.errors import SerializationError

        if not isinstance(document, Mapping) or document.get("format") != cls.FORMAT:
            raise SerializationError(
                "not a cardinality-history document (missing "
                f"{cls.FORMAT!r} format tag)"
            )
        history = cls()
        for rule_name, entries in document.get("rules", {}).items():
            by_signature = history._entries.setdefault(str(rule_name), {})
            for entry in entries:
                signature = (int(entry["node_count"]), int(entry["edge_count"]))
                steps = by_signature.setdefault(signature, {})
                for variable, strategy, samples, total in entry.get("steps", []):
                    steps[(str(variable), str(strategy))] = [int(samples), float(total)]
        return history

    def save(self, path) -> None:
        """Write the history to ``path`` as JSON."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_document(), handle, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "CardinalityHistory":
        """Load a history previously written by :meth:`save`."""
        import json

        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_document(json.load(handle))


def history_from_document(document: Mapping) -> Optional[CardinalityHistory]:
    """Extract the embedded history of a plan document, if any.

    Lives here rather than in :mod:`repro.matching.plan` so the plan module
    never imports the adaptive layer.
    """
    embedded = document.get("history") if isinstance(document, Mapping) else None
    if embedded is None:
        return None
    return CardinalityHistory.from_document(embedded)


def resolve_adaptive(plans, adaptive=None) -> Optional[tuple[Optional[AdaptiveController], ...]]:
    """Resolve the adaptive controllers a detection kernel should drive.

    ``plans`` is the kernel's *resolved* plan sequence (may be None — the
    static pipeline never observes).  ``adaptive`` follows the session
    convention: ``None`` defers to :func:`adaptive_enabled`, a bool forces,
    and a prebuilt controller sequence (the session's, so it can harvest
    observations afterwards) passes through — its controllers must be
    parallel to ``plans``.
    """
    if not plans:
        return None
    if adaptive is None:
        adaptive = adaptive_enabled()
    if adaptive is False:
        return None
    if adaptive is True:
        threshold = drift_threshold()
        return tuple(AdaptiveController(plan, threshold) for plan in plans)
    controllers = tuple(adaptive)
    if len(controllers) != len(tuple(plans)):
        from repro.errors import SessionError

        raise SessionError(
            f"{len(controllers)} adaptive controllers supplied for "
            f"{len(tuple(plans))} plans"
        )
    return controllers
