"""Benchmark rule sets Σ.

Section 7 mines 100 "meaningful and diverse" NGDs per graph, with pattern
diameters 1–6 and 1–4 literals, and sweeps ‖Σ‖ (Figures 4(f)–(g)) and dΣ
(Figure 4(h)).  This module builds such rule sets directly against the
synthetic knowledge graphs of :mod:`repro.datasets.kb`:

* the graphs are introspected for their entity types, value relations and
  link relations, so every generated pattern is guaranteed to occur;
* rules are instantiated from a library of templates of increasing diameter
  (value stars, link paths of length 1–3 with value comparisons across the
  path), with literal counts between 1 and 4;
* the template asserting the planted invariant ``rel_0.val ≤ rel_1.val``
  catches the planted errors, so violation counts are non-trivial, while the
  remaining templates are (mostly) satisfied and contribute matching work —
  the same mix the paper's discovered rules exhibit.

The rule miner in :mod:`repro.discovery` produces comparable rule sets by
actually mining the graph; the template construction here is deterministic
and orders of magnitude faster, which matters for benchmark setup.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.core.ngd import NGD, RuleSet
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern

__all__ = ["benchmark_rules", "rules_with_diameter", "graph_schema"]


def graph_schema(graph: Graph) -> dict[str, list[str]]:
    """Return the entity types, value relations and link relations present in a graph.

    Entity types are node labels that have outgoing edges to ``integer``
    nodes; value relations are the labels of those edges; link relations are
    edge labels connecting two entity-typed nodes.
    """
    entity_types: Counter[str] = Counter()
    value_relations: Counter[str] = Counter()
    link_relations: Counter[str] = Counter()
    for edge in graph.edges():
        source_label = graph.node(edge.source).label
        target_label = graph.node(edge.target).label
        if target_label == "integer" and source_label != "integer":
            entity_types[source_label] += 1
            value_relations[edge.label] += 1
        elif source_label != "integer" and target_label != "integer":
            link_relations[edge.label] += 1
    return {
        "entity_types": [label for label, _ in entity_types.most_common()],
        "value_relations": [label for label, _ in value_relations.most_common()],
        "link_relations": [label for label, _ in link_relations.most_common()],
    }


def _value_star(entity_type: str, relations: list[str], arms: int, name: str) -> Pattern:
    """A pattern: one entity of ``entity_type`` with ``arms`` value nodes (diameter 2)."""
    nodes = [("x", entity_type)] + [(f"a{i}", "integer") for i in range(arms)]
    edges = [("x", f"a{i}", relations[i % len(relations)]) for i in range(arms)]
    return Pattern(name, nodes=nodes, edges=edges)


def _link_path(
    entity_types: list[str],
    link_relations: list[str],
    value_relations: list[str],
    hops: int,
    name: str,
) -> Pattern:
    """A pattern: a path of ``hops`` link edges, with a value node at each end.

    Diameter = hops + 2 (value node – entity … entity – value node).
    """
    nodes = [(f"x{i}", entity_types[i % len(entity_types)]) for i in range(hops + 1)]
    nodes += [("a", "integer"), ("b", "integer")]
    edges = [
        (f"x{i}", f"x{i + 1}", link_relations[i % len(link_relations)]) for i in range(hops)
    ]
    edges += [
        ("x0", "a", value_relations[0]),
        (f"x{hops}", "b", value_relations[1 % len(value_relations)]),
    ]
    return Pattern(name, nodes=nodes, edges=edges)


def _template_rules(schema: dict[str, list[str]], seed: int) -> list[NGD]:
    """Instantiate the full template library against a graph schema (diameters 1–6)."""
    rng = random.Random(seed)
    entity_types = schema["entity_types"] or ["type_0"]
    value_relations = schema["value_relations"] or ["rel_0", "rel_1"]
    link_relations = schema["link_relations"] or ["link_0"]
    rules: list[NGD] = []
    counter = 0

    def next_name(diameter: int) -> str:
        nonlocal counter
        counter += 1
        return f"bench_d{diameter}_{counter}"

    for entity_type in entity_types:
        # diameter 1: a single value edge, sanity literal (no violations, pure matching work)
        pattern = Pattern(
            f"Q_{entity_type}_single",
            nodes=[("x", entity_type), ("a", "integer")],
            edges=[("x", "a", value_relations[0])],
        )
        rules.append(NGD.from_text(pattern, "", "a.val >= 0", name=next_name(1)))

        # diameter 2: the planted invariant rel_0.val <= rel_1.val (catches errors)
        star = _value_star(entity_type, value_relations, 2, f"Q_{entity_type}_star2")
        rules.append(NGD.from_text(star, "", "a0.val <= a1.val", name=next_name(2)))

        # diameter 2, conditional variant with 2 premise literals
        star_b = _value_star(entity_type, value_relations, 2, f"Q_{entity_type}_star2b")
        threshold = rng.randrange(100, 900)
        rules.append(
            NGD.from_text(
                star_b,
                f"a0.val >= 0, a0.val > {threshold}",
                "a1.val >= a0.val",
                name=next_name(2),
            )
        )

        # diameter 2 with 3 value arms and an additive literal
        if len(value_relations) >= 3:
            star3 = _value_star(entity_type, value_relations, 3, f"Q_{entity_type}_star3")
            rules.append(
                NGD.from_text(
                    star3,
                    "",
                    "a0.val + a1.val + a2.val >= 0, a0.val <= a1.val",
                    name=next_name(2),
                )
            )

        # diameters 3-6: link paths with cross-entity comparisons
        for hops in (1, 2, 3, 4):
            diameter = hops + 2
            path = _link_path(
                [entity_type] + entity_types,
                link_relations,
                value_relations,
                hops,
                f"Q_{entity_type}_path{hops}",
            )
            bound = rng.randrange(2000, 4500)
            premise = f"a.val >= {rng.randrange(0, 400)}"
            conclusion = f"a.val + b.val <= {bound}, b.val >= 0"
            rules.append(NGD.from_text(path, premise, conclusion, name=next_name(diameter)))

    return rules


def benchmark_rules(
    graph: Graph,
    count: int = 50,
    max_diameter: int = 5,
    seed: int = 0,
) -> RuleSet:
    """Return a benchmark rule set of ``count`` NGDs with diameters ≤ ``max_diameter``."""
    schema = graph_schema(graph)
    rules = [rule for rule in _template_rules(schema, seed) if rule.diameter() <= max_diameter]
    if not rules:
        raise ValueError("no benchmark rules could be generated for this graph")
    # cycle deterministically if more rules are requested than templates instantiated
    selected = [rules[i % len(rules)] for i in range(count)]
    renamed = [
        NGD(rule.pattern, rule.premise, rule.conclusion, name=f"{rule.name}_{i}")
        for i, rule in enumerate(selected)
    ]
    return RuleSet(renamed, name=f"Σ({graph.name},{count},d{max_diameter})")


def rules_with_diameter(graph: Graph, diameter: int, count: int = 50, seed: int = 0) -> RuleSet:
    """Return a rule set whose maximum pattern diameter is exactly ``diameter`` (Figure 4(h) sweep).

    The sets are built cumulatively: the pool contains every template of
    diameter ≤ ``diameter`` ordered by increasing diameter, and the selection
    cycles through it (always including at least one rule of the exact target
    diameter).  A sweep over growing dΣ therefore keeps the shallow rules and
    swaps progressively more of the repeats for deeper — more expensive —
    patterns, which is the monotone workload growth Figure 4(h) plots.
    """
    schema = graph_schema(graph)
    all_rules = sorted(_template_rules(schema, seed), key=lambda rule: rule.diameter())
    at_diameter = [rule for rule in all_rules if rule.diameter() == diameter]
    pool = [rule for rule in all_rules if rule.diameter() <= diameter]
    if not at_diameter:
        raise ValueError(f"no benchmark template has diameter {diameter}")
    selected = [at_diameter[0]] + [pool[i % len(pool)] for i in range(count - 1)]
    renamed = [
        NGD(rule.pattern, rule.premise, rule.conclusion, name=f"{rule.name}_d{diameter}_{i}")
        for i, rule in enumerate(selected)
    ]
    return RuleSet(renamed, name=f"Σ({graph.name},dΣ={diameter})")
