"""The generalized subset-sum encoding behind the Σp2 lower bound.

Theorem 1's hardness proof reduces the *generalized subset sum problem*
(GSSP) to NGD satisfiability: given integer vectors ``u1``, ``u2`` and an
integer ``w``, decide whether ``∃ v1 ∀ v2 : u1·v1 + u2·v2 ≠ w`` with ``v1``,
``v2`` Boolean vectors.

This module provides both sides of that reduction in executable form:

* :func:`gssp_holds` — a brute-force decision procedure for GSSP (exponential,
  used on small instances only);
* :func:`gssp_to_ngds` — the encoding of a GSSP instance as a set of NGDs
  whose satisfiability matches the GSSP answer, following the structure of
  the proof (one pattern whose A-attributed nodes carry the existential
  choices, wildcard nodes carrying the universal choices, and an arithmetic
  literal checking the linear form against ``w``).

They are used by the test-suite both to sanity-check the satisfiability
checker on adversarial inputs and to document the reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.ngd import NGD, RuleSet
from repro.expr.expressions import Expression, const, var
from repro.expr.literals import Comparison, Literal, LiteralSet
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern

__all__ = ["GSSPInstance", "gssp_holds", "gssp_to_ngds", "gssp_witness_graph"]


@dataclass(frozen=True)
class GSSPInstance:
    """A generalized subset-sum instance (u1, u2, w)."""

    u1: tuple[int, ...]
    u2: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        if not self.u1 and not self.u2:
            raise ValueError("a GSSP instance needs at least one coefficient")


def gssp_holds(instance: GSSPInstance) -> bool:
    """Brute-force ``∃ v1 ∀ v2 : u1·v1 + u2·v2 ≠ w`` (exponential; small instances only)."""
    for v1 in itertools.product((0, 1), repeat=len(instance.u1)):
        partial = sum(coefficient * choice for coefficient, choice in zip(instance.u1, v1))
        if all(
            partial + sum(c * choice for c, choice in zip(instance.u2, v2)) != instance.target
            for v2 in itertools.product((0, 1), repeat=len(instance.u2))
        ):
            return True
    return False


def gssp_to_ngds(instance: GSSPInstance) -> RuleSet:
    """Encode a GSSP instance as NGDs, following the structure of Theorem 1's reduction.

    The encoding, evaluated over the witness graphs built by
    :func:`gssp_witness_graph` (which carry *both* the 0- and the 1-valued
    node for every universal position):

    * ``boolean_choices`` forces the ``A`` attribute of every existential node
      ``e_i`` to be Boolean — the ∃ choice;
    * ``universal_values`` keeps the ``B`` attributes of the universal nodes
      Boolean;
    * ``gssp_check`` uses one pattern variable per universal position that can
      match either the 0-node or the 1-node of that position, so its literal
      ``u1·A + u2·B ≠ w`` must hold for **every** combination of universal
      values — the ∀ quantifier of GSSP.

    A witness graph for an existential choice ``v1`` then satisfies the rule
    set iff ``v1`` wins the GSSP game, which is what the tests exercise.
    """
    m, n = len(instance.u1), len(instance.u2)
    existential_nodes = [(f"e{i}", "choice") for i in range(m)]
    universal_zero = [(f"z{j}", f"u{j}") for j in range(n)]
    universal_one = [(f"o{j}", f"u{j}") for j in range(n)]

    base_pattern = Pattern("Q_gssp", nodes=existential_nodes + universal_zero + universal_one)

    boolean_literals = []
    for i in range(m):
        boolean_literals.append(Literal(var(f"e{i}", "A") * (var(f"e{i}", "A") - const(1)), Comparison.EQ, const(0)))
    # A·(A-1) = 0 is quadratic; the linear encoding uses 0 ≤ A ≤ 1 instead, which the
    # bounded integer domain turns into the same Boolean choice.
    linear_boolean = LiteralSet(
        [Literal(var(f"e{i}", "A"), Comparison.GE, const(0)) for i in range(m)]
        + [Literal(var(f"e{i}", "A"), Comparison.LE, const(1)) for i in range(m)]
    )
    del boolean_literals

    universal_fixing = LiteralSet(
        [Literal(var(f"z{j}", "B"), Comparison.GE, const(0)) for j in range(n)]
        + [Literal(var(f"z{j}", "B"), Comparison.LE, const(1)) for j in range(n)]
        + [Literal(var(f"o{j}", "B"), Comparison.GE, const(0)) for j in range(n)]
        + [Literal(var(f"o{j}", "B"), Comparison.LE, const(1)) for j in range(n)]
    )

    # wildcard pattern matching one node per universal position — either the 0-node or the 1-node
    wildcard_nodes = [(f"w{j}", f"u{j}") for j in range(n)]
    check_pattern = Pattern(
        "Q_gssp_check", nodes=existential_nodes + wildcard_nodes
    )
    linear_form: Expression = const(0)
    for i, coefficient in enumerate(instance.u1):
        linear_form = linear_form + const(coefficient) * var(f"e{i}", "A")
    for j, coefficient in enumerate(instance.u2):
        linear_form = linear_form + const(coefficient) * var(f"w{j}", "B")
    check_literal = Literal(linear_form, Comparison.NE, const(instance.target))

    rules = [
        NGD(base_pattern, conclusion=linear_boolean, name="boolean_choices"),
        NGD(base_pattern, conclusion=universal_fixing, name="universal_values"),
        NGD(check_pattern, conclusion=LiteralSet.of(check_literal), name="gssp_check"),
    ]
    return RuleSet(rules, name=f"gssp({instance.u1},{instance.u2},{instance.target})")


def gssp_witness_graph(instance: GSSPInstance, v1: tuple[int, ...]) -> Graph:
    """Materialise the model corresponding to an existential choice ``v1``.

    Useful in tests: when :func:`gssp_holds` says a witness ``v1`` exists,
    the graph built here satisfies the encoded NGDs; when GSSP fails, every
    such graph violates the ``gssp_check`` rule for some wildcard match.
    """
    graph = Graph("gssp-witness")
    for i, choice in enumerate(v1):
        graph.add_node(f"e{i}", "choice", {"A": int(choice)})
    for j in range(len(instance.u2)):
        graph.add_node(f"z{j}", f"u{j}", {"B": 0})
        graph.add_node(f"o{j}", f"u{j}", {"B": 1})
    return graph
