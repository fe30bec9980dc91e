"""Batch validation: ``G ⊨ Σ`` and ``Vio(Σ, G)``.

Section 5.1: the *error detection problem* takes a set Σ of NGDs and a graph
``G`` and returns ``Vio(Σ, G)``, the set of all violating matches; its
decision version (the *validation problem*, ``Vio(Σ, G) = ∅``?) is
coNP-complete, the same as for GFDs — arithmetic adds only per-match constant
work (Corollary 4).

These functions are the problem statements over the batch kernel
(:func:`~repro.detect.dect.iter_dect`, Dect); ``repro.detect`` wraps the same
kernel in sessions with the paper's algorithm names.  The kernel is imported
when first called, so importing :mod:`repro.core` stays free of it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ngd import NGD, RuleSet
from repro.core.violations import ViolationSet
from repro.graph.graph import Graph
from repro.matching.candidates import MatchStatistics

__all__ = [
    "violations_of_rule",
    "find_violations",
    "graph_satisfies",
    "satisfies_rule",
]


def violations_of_rule(
    graph: Graph,
    rule: NGD,
    use_literal_pruning: bool = True,
    stats: Optional[MatchStatistics] = None,
) -> ViolationSet:
    """Return all violations of a single NGD in ``graph``."""
    return find_violations(graph, [rule], use_literal_pruning, stats)


def find_violations(
    graph: Graph,
    rules: RuleSet | list[NGD],
    use_literal_pruning: bool = True,
    stats: Optional[MatchStatistics] = None,
) -> ViolationSet:
    """Return ``Vio(Σ, G)``: every violation of every rule in Σ."""
    from repro.detect.dect import iter_dect
    from repro.detect.observers import drain

    result = drain(iter_dect(graph, rules, use_literal_pruning))
    if stats is not None:
        stats.merge(result.stats)
    return result.violations


def satisfies_rule(graph: Graph, rule: NGD, use_literal_pruning: bool = True) -> bool:
    """Return True when ``G ⊨ φ`` (no match of the pattern violates X → Y)."""
    return graph_satisfies(graph, [rule], use_literal_pruning)


def graph_satisfies(graph: Graph, rules: RuleSet | list[NGD], use_literal_pruning: bool = True) -> bool:
    """Return True when ``G ⊨ Σ`` (the validation problem); stops at the first violation."""
    from repro.detect.dect import iter_dect

    return next(iter_dect(graph, rules, use_literal_pruning), None) is None
