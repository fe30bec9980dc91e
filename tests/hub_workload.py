"""A workload whose statistics mislead the planner: correlated hubs.

Every root fans out to ``wide`` ``b``-nodes (edge ``e2``), of which only one
in ``survivor_stride`` satisfies the premise literal, and to ``narrow``
``a``-nodes (edge ``e1``) that all survive.  Statistics order the
cheap-looking ``a`` step before the near-empty ``b`` step, so the compiled
order does measurably more work than the best one: a run that follows its
plan as compiled shows it in its counts.
"""

from __future__ import annotations

from repro.core.ngd import NGD, RuleSet
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern


def correlated_hub_graph(roots: int, wide: int, narrow: int, survivor_stride: int) -> Graph:
    graph = Graph("kb-hubs")
    for index in range(roots):
        root = f"r{index}"
        graph.add_node(root, "root", {})
        for j in range(wide):
            node = f"b{index}_{j}"
            survives = (index * wide + j) % survivor_stride == 0
            graph.add_node(node, "b", {"val": 1 if survives else 0})
            graph.add_edge(root, node, "e2")
        for j in range(narrow):
            node = f"a{index}_{j}"
            graph.add_node(node, "a", {"val": j})
            graph.add_edge(root, node, "e1")
    return graph


def hub_rules() -> RuleSet:
    """One rule over the hub star: ``x -e1-> y``, ``x -e2-> z``, ``z.val = 1 → y.val < 0``."""
    pattern = Pattern(
        "Qst",
        nodes=[("x", "root"), ("y", "a"), ("z", "b")],
        edges=[("x", "y", "e1"), ("x", "z", "e2")],
    )
    rule = NGD.from_text(pattern, premise="z.val = 1", conclusion="y.val < 0", name="st1")
    return RuleSet([rule], name="hub-rules")
