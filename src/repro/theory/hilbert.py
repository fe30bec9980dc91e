"""Diophantine encodings and the undecidability boundary (Theorem 3).

Theorem 3 shows that extending NGDs with non-linear arithmetic (degree ≥ 2)
makes satisfiability and implication undecidable, by reduction from Hilbert's
10th problem: deciding whether a polynomial Diophantine equation has an
integer solution.

This module provides the executable side of that boundary:

* :class:`DiophantineEquation` — a sparse polynomial equation ``Σ a_i · Π x_j^{e_ij} = 0``;
* :func:`diophantine_to_ngd` — the encoding of an equation as a *non-linear*
  NGD (one pattern node per variable, the polynomial written with the
  extended ``e × e`` grammar).  Constructing it succeeds only with
  ``allow_nonlinear=True``, and feeding it to the satisfiability checker
  raises :class:`~repro.errors.SatisfiabilityError` — which is precisely the
  behaviour the undecidability result mandates for an honest implementation;
* :func:`has_small_solution` — a bounded brute-force search used by tests to
  show that *particular* small equations do or do not have solutions, while
  the general problem remains out of reach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.ngd import NGD
from repro.expr.expressions import Expression, const, var
from repro.expr.literals import Comparison, Literal, LiteralSet
from repro.graph.pattern import Pattern

__all__ = ["DiophantineEquation", "diophantine_to_ngd", "has_small_solution"]


@dataclass(frozen=True)
class DiophantineEquation:
    """``Σ_i coefficient_i · Π_j x_j^{exponents_i[j]} = 0`` over integer variables x_0..x_{m-1}."""

    num_variables: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        for coefficient, exponents in self.terms:
            if len(exponents) != self.num_variables:
                raise ValueError("every term needs one exponent per variable")
            if any(exponent < 0 for exponent in exponents):
                raise ValueError("exponents must be non-negative")

    def evaluate(self, values: tuple[int, ...]) -> int:
        """Evaluate the polynomial at integer point ``values``."""
        total = 0
        for coefficient, exponents in self.terms:
            product = coefficient
            for value, exponent in zip(values, exponents):
                product *= value**exponent
            total += product
        return total

    def degree(self) -> int:
        """Return the total degree of the polynomial."""
        return max((sum(exponents) for _, exponents in self.terms), default=0)


def has_small_solution(equation: DiophantineEquation, bound: int = 10) -> bool:
    """Brute-force search for an integer solution with every |x_j| ≤ ``bound``."""
    domain = range(-bound, bound + 1)
    return any(
        equation.evaluate(point) == 0
        for point in itertools.product(domain, repeat=equation.num_variables)
    )


def diophantine_to_ngd(equation: DiophantineEquation) -> NGD:
    """Encode a Diophantine equation as a non-linear NGD.

    The pattern has one node per variable (labelled ``var``); the conclusion
    asserts the polynomial equals zero, written with the extended (non-linear)
    expression grammar.  The resulting rule is accepted for *validation* — a
    concrete graph either satisfies the equation or not — but is rejected by
    the satisfiability/implication checkers, reflecting Theorem 3.
    """
    nodes = [(f"x{j}", "var") for j in range(equation.num_variables)]
    pattern = Pattern("Q_diophantine", nodes=nodes)

    polynomial: Expression = const(0)
    for coefficient, exponents in equation.terms:
        term: Expression = const(coefficient)
        for j, exponent in enumerate(exponents):
            for _ in range(exponent):
                term = term * var(f"x{j}", "val")
        polynomial = polynomial + term

    literal = Literal(polynomial, Comparison.EQ, const(0))
    return NGD(
        pattern,
        conclusion=LiteralSet.of(literal),
        name="diophantine",
        allow_nonlinear=True,
    )
