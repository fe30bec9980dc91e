"""``Vio(Σ, G)`` by the paper's definitions, executed naively.

The specification the detection kernels are tested against: small enough to
read in one sitting, sharing nothing with the planner, the compiled
schedules or the search core.  A match is a homomorphism ``h`` of the
pattern into the graph (Section 2); ``h ⊨ X`` when every attribute a literal
of ``X`` mentions exists on its node and every comparison evaluates to true
(Section 3); a violation is a match with ``h ⊨ X`` and ``h ⊭ Y``.
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.graph.graph import WILDCARD


def matches(graph, pattern):
    """Yield every homomorphism of ``pattern`` into ``graph`` as ``{variable: node id}``.

    Variables are bound in pattern order, each to every node its label
    admits; a pattern edge is checked once both its ends are bound, so a
    prefix that already misses an edge is not extended.
    """
    variables = pattern.variables
    pools = [
        [node.id for node in graph.nodes() if pattern.node(variable).label in (WILDCARD, node.label)]
        for variable in variables
    ]
    position = {variable: index for index, variable in enumerate(variables)}
    closing = [[] for _ in variables]
    for edge in pattern.edges():
        closing[max(position[edge.source], position[edge.target])].append(edge)

    def extend(h, index):
        if index == len(variables):
            yield dict(h)
            return
        for node in pools[index]:
            h[variables[index]] = node
            if all(graph.has_edge(h[edge.source], h[edge.target], edge.label) for edge in closing[index]):
                yield from extend(h, index + 1)
        h.pop(variables[index], None)

    yield from extend({}, 0)


def satisfies(graph, h, literals) -> bool:
    """Return ``h ⊨ literals``; a missing attribute or an ill-typed comparison is "does not hold"."""
    for literal in literals:
        assignment = {
            (variable, attribute): graph.node(h[variable]).attributes[attribute]
            for variable, attribute in literal.variables()
            if attribute in graph.node(h[variable]).attributes
        }
        try:
            if not literal.evaluate(assignment):
                return False
        except (EvaluationError, TypeError):
            return False
    return True


def violations(graph, rules) -> set[tuple]:
    """Return ``Vio(Σ, G)`` as ``{(rule name, h(x̄))}``."""
    return {
        (rule.name, tuple(h[variable] for variable in rule.pattern.variables))
        for rule in rules
        for h in matches(graph, rule.pattern)
        if satisfies(graph, h, rule.premise) and not satisfies(graph, h, rule.conclusion)
    }
