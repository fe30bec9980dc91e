"""Levelwise NGD discovery.

The paper obtains its benchmark rules by "extending the algorithm of [22] to
discover NGDs from the graphs", interleaving *vertical* levelwise expansion
(growing frequent patterns) with *horizontal* levelwise expansion (mining
literals for X → Y).  This module implements a compact version of that
process:

1. **Pattern mining** — frequent single-edge patterns are seeded from the
   graph's edge signatures; each level extends a frequent pattern by one
   edge anchored at an existing variable, keeping patterns whose (sampled)
   match count meets the support threshold and whose diameter stays within
   the requested bound.
2. **Literal mining** — for each frequent pattern, matches are sampled and
   their numeric attributes collected; candidate literals (order comparisons
   between variables, bounds against observed constants, and two-variable
   sums) are scored by *confidence* (the fraction of sampled matches that
   satisfy them); literals above the confidence threshold become conclusions,
   optionally guarded by a high-support premise literal.

The discovered rules are returned as a :class:`RuleSet` ready to be fed to
the detection algorithms; with ``confidence < 1.0`` they are deliberately
allowed to have (a few) violations in the graph they were mined from, just
like real-world data quality rules.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.ngd import NGD, RuleSet
from repro.errors import DiscoveryError
from repro.expr.expressions import const, var
from repro.expr.literals import Comparison, Literal, LiteralSet
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.matching.matchn import HomomorphismMatcher
from repro.matching.plan import GraphStatistics

__all__ = ["DiscoveryConfig", "discover_ngds", "mine_frequent_patterns"]


@dataclass(frozen=True)
class DiscoveryConfig:
    """Tuning knobs for the miner."""

    max_pattern_edges: int = 3
    max_diameter: int = 4
    min_support: int = 5
    match_sample: int = 200
    min_confidence: float = 0.95
    max_rules: int = 100
    max_literals: int = 2
    seed: int = 0


def _edge_signatures(graph: Graph, min_support: int) -> list[tuple[str, str, str, int]]:
    """Return frequent (source label, edge label, target label) signatures with counts."""
    counts: Counter[tuple[str, str, str]] = Counter()
    for edge in graph.edges():
        signature = (graph.node(edge.source).label, edge.label, graph.node(edge.target).label)
        counts[signature] += 1
    return [
        (source, label, target, count)
        for (source, label, target), count in counts.most_common()
        if count >= min_support
    ]


def _count_matches(graph: Graph, pattern: Pattern, cap: int, statistics: GraphStatistics) -> int:
    """Count matches of ``pattern`` in ``graph``, stopping at ``cap``."""
    matcher = HomomorphismMatcher(graph, pattern, statistics=statistics)
    count = 0
    for _ in matcher.matches():
        count += 1
        if count >= cap:
            break
    return count


def mine_frequent_patterns(
    graph: Graph, config: DiscoveryConfig, statistics: Optional[GraphStatistics] = None
) -> list[Pattern]:
    """Vertical levelwise expansion: grow frequent connected patterns edge by edge.

    ``statistics`` is ``graph``'s plan statistics, computed here when not given.
    """
    if statistics is None:
        statistics = GraphStatistics.from_graph(graph)
    signatures = _edge_signatures(graph, config.min_support)
    if not signatures:
        raise DiscoveryError("the graph has no edge signature meeting the support threshold")

    level: list[Pattern] = []
    counter = itertools.count()
    for source_label, edge_label, target_label, _ in signatures:
        index = next(counter)
        pattern = Pattern.from_edges(
            f"mined_{index}",
            nodes=[("x0", source_label), ("x1", target_label)],
            edges=[("x0", "x1", edge_label)],
        )
        level.append(pattern)

    frequent: list[Pattern] = list(level)
    for _ in range(config.max_pattern_edges - 1):
        next_level: list[Pattern] = []
        for pattern in level:
            for extended in _extensions(pattern, signatures, counter):
                if extended.diameter() > config.max_diameter:
                    continue
                if _count_matches(graph, extended, config.min_support, statistics) >= config.min_support:
                    next_level.append(extended)
        if not next_level:
            break
        frequent.extend(next_level)
        level = next_level
        if len(frequent) >= 4 * config.max_rules:
            break
    return frequent


def _extensions(
    pattern: Pattern, signatures: list[tuple[str, str, str, int]], counter: Iterator[int]
) -> Iterator[Pattern]:
    """Yield patterns extending ``pattern`` with one new edge to a fresh variable."""
    for variable in pattern.variables:
        anchor_label = pattern.node(variable).label
        for source_label, edge_label, target_label, _ in signatures:
            if source_label == anchor_label:
                fresh = f"x{pattern.node_count()}"
                extended = _clone_with(pattern, next(counter))
                extended.add_node(fresh, target_label)
                extended.add_edge(variable, fresh, edge_label)
                yield extended
            if target_label == anchor_label:
                fresh = f"x{pattern.node_count()}"
                extended = _clone_with(pattern, next(counter))
                extended.add_node(fresh, source_label)
                extended.add_edge(fresh, variable, edge_label)
                yield extended


def _clone_with(pattern: Pattern, index: int) -> Pattern:
    clone = Pattern(f"mined_{index}")
    for variable in pattern.variables:
        clone.add_node(variable, pattern.node(variable).label)
    for edge in pattern.edges():
        clone.add_edge(edge.source, edge.target, edge.label)
    return clone


def _sample_assignments(
    graph: Graph, pattern: Pattern, sample: int, statistics: GraphStatistics
) -> list[dict[tuple[str, str], object]]:
    """Collect numeric attribute assignments from up to ``sample`` matches."""
    matcher = HomomorphismMatcher(graph, pattern, statistics=statistics)
    assignments: list[dict[tuple[str, str], object]] = []
    for match in matcher.matches():
        assignment: dict[tuple[str, str], object] = {}
        for variable, node_id in match.items():
            node = graph.node(node_id)
            for attribute, value in node.attributes.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    assignment[(variable, attribute)] = value
        assignments.append(assignment)
        if len(assignments) >= sample:
            break
    return assignments


def _candidate_literals(
    assignments: list[dict[tuple[str, str], object]], rng: random.Random
) -> list[Literal]:
    """Propose literals over the attributes observed in the sampled matches."""
    if not assignments:
        return []
    keys = sorted(set().union(*[set(a.keys()) for a in assignments]))
    literals: list[Literal] = []
    for key in keys:
        values = [a[key] for a in assignments if key in a]
        if not values:
            continue
        variable, attribute = key
        literals.append(Literal(var(variable, attribute), Comparison.GE, const(int(min(values)))))
        literals.append(Literal(var(variable, attribute), Comparison.LE, const(int(max(values)))))
    for left, right in itertools.combinations(keys, 2):
        lv, la = left
        rv, ra = right
        literals.append(Literal(var(lv, la), Comparison.LE, var(rv, ra)))
        literals.append(Literal(var(lv, la) + var(rv, ra), Comparison.GE, const(0)))
    rng.shuffle(literals)
    return literals


def _confidence(literal: Literal, assignments: list[dict[tuple[str, str], object]]) -> float:
    satisfied = sum(1 for assignment in assignments if literal.holds_for(assignment))
    return satisfied / len(assignments) if assignments else 0.0


def discover_ngds(graph: Graph, config: Optional[DiscoveryConfig] = None) -> RuleSet:
    """Mine a rule set of NGDs from ``graph`` (vertical + horizontal levelwise expansion)."""
    config = config or DiscoveryConfig()
    rng = random.Random(config.seed)
    # one statistics pass serves the plan of every pattern matched below
    statistics = GraphStatistics.from_graph(graph)
    patterns = mine_frequent_patterns(graph, config, statistics)
    rules: list[NGD] = []
    for pattern in patterns:
        if len(rules) >= config.max_rules:
            break
        assignments = _sample_assignments(graph, pattern, config.match_sample, statistics)
        if not assignments:
            continue
        candidates = _candidate_literals(assignments, rng)
        conclusions = [
            literal
            for literal in candidates
            if _confidence(literal, assignments) >= config.min_confidence
        ][: config.max_literals]
        if not conclusions:
            continue
        premise_pool = [
            literal
            for literal in candidates
            if literal not in conclusions and _confidence(literal, assignments) >= 0.99
        ]
        premise = LiteralSet(premise_pool[:1]) if premise_pool and rng.random() < 0.5 else LiteralSet()
        rules.append(
            NGD(
                pattern,
                premise=premise,
                conclusion=LiteralSet(conclusions),
                name=f"discovered_{len(rules)}",
            )
        )
    return RuleSet(rules, name=f"discovered({graph.name})")
