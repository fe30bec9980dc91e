"""An independent detector: the paper's definition of ``Vio(Σ, G)``, run naively.

It reads the graph *document* into plain dictionaries, enumerates the
homomorphisms of each pattern by backtracking over the variables in their
declaration order, and keeps a match when it satisfies the premise and not
the conclusion.  It shares no planner, compiled schedule, store or work unit
with the code under test; the one thing it borrows is the interpreted
``holds_for`` of a parsed literal, so that both sides agree on what
``a.val + b.val <= 3000`` means.

Every result the benchmark times is reduced to :func:`canonical` form and
compared to this detector's by digest.
"""

from __future__ import annotations

import json

from inputs import digest
from repro.core.ngd import RuleSet

WILDCARD = "_"


def canonical(violations) -> list:
    """Return violation documents (``{"rule", "nodes", ...}``) as a sorted list."""
    return sorted([entry["rule"], *entry["nodes"]] for entry in violations)


def violations_digest(violations) -> str:
    """Return the digest every output is compared by."""
    return digest(canonical(violations))


def detect(graph: dict, rules: dict) -> list[dict]:
    """Return ``Vio(Σ, G)`` as violation documents, for a graph and a rule document."""
    labels = {node["id"]: node["label"] for node in graph["nodes"]}
    attributes = {node["id"]: node.get("attributes", {}) for node in graph["nodes"]}
    by_label: dict[str, list] = {}
    for node_id, label in labels.items():
        by_label.setdefault(label, []).append(node_id)
    successors: dict[tuple, list] = {}
    predecessors: dict[tuple, list] = {}
    present = set()
    for edge in graph["edges"]:
        successors.setdefault((edge["source"], edge["label"]), []).append(edge["target"])
        predecessors.setdefault((edge["target"], edge["label"]), []).append(edge["source"])
        present.add((edge["source"], edge["target"], edge["label"]))

    found = []
    parsed = RuleSet.from_json(json.dumps(rules))
    for rule, document in zip(parsed, rules["rules"]):
        # the pattern is read from the document, not from the parsed object
        wanted = dict(map(tuple, document["pattern"]["nodes"]))
        variables = list(wanted)
        edges = [tuple(edge) for edge in document["pattern"]["edges"]]

        def candidates(variable: str, bound: dict):
            # follow a pattern edge from an already bound variable when one
            # exists; otherwise every node carrying the label is a candidate
            for source, target, label in edges:
                if target == variable and source in bound:
                    return successors.get((bound[source], label), ())
                if source == variable and target in bound:
                    return predecessors.get((bound[target], label), ())
            if wanted[variable] == WILDCARD:
                return labels
            return by_label.get(wanted[variable], ())

        def consistent(variable: str, node, bound: dict) -> bool:
            if wanted[variable] != WILDCARD and labels[node] != wanted[variable]:
                return False
            trial = {**bound, variable: node}
            return all(
                (trial[source], trial[target], label) in present
                for source, target, label in edges
                if source in trial and target in trial
            )

        def extend(depth: int, bound: dict) -> None:
            if depth == len(variables):
                assignment = {
                    (variable, key): value
                    for variable, node in bound.items()
                    for key, value in attributes[node].items()
                }
                if rule.premise.satisfied_by(assignment) and not rule.conclusion.satisfied_by(assignment):
                    found.append(
                        {"rule": rule.name, "variables": variables, "nodes": [bound[v] for v in variables]}
                    )
                return
            variable = variables[depth]
            for node in candidates(variable, bound):
                if consistent(variable, node, bound):
                    extend(depth + 1, {**bound, variable: node})

        extend(0, {})
    return found
