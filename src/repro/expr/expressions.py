"""Arithmetic expressions over pattern variables.

The paper defines linear arithmetic expressions of a pattern ``Q[x̄]``::

    e ::= t | |e| | e + e | e - e | c × e | e ÷ c

where ``t`` is a term and ``c`` an integer constant.  The *degree* of an
expression is the sum of the exponents of its variables; NGDs require degree
at most 1 (linear).  Theorem 3 shows that allowing the general products
``e × e`` and quotients ``e ÷ e`` (degree ≥ 2) makes satisfiability and
implication undecidable, so the library keeps both:

* :class:`Expression` subclasses cover the *general* grammar;
* :meth:`Expression.degree` / :meth:`Expression.is_linear` report where an
  expression falls;
* NGD construction (``repro.core.ngd``) rejects non-linear expressions unless
  the caller explicitly opts into the extended (undecidable) class.

Evaluation is exact: integer arithmetic stays in ``int`` and division produces
:class:`fractions.Fraction`, so equality literals never suffer float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Mapping

from repro.errors import EvaluationError, ExpressionError
from repro.expr.terms import AttributeTerm, Constant, Term, as_term

__all__ = [
    "Expression",
    "TermExpression",
    "Add",
    "Subtract",
    "Multiply",
    "Divide",
    "AbsoluteValue",
    "Negate",
    "as_expression",
    "Assignment",
]

#: An assignment maps ``(variable, attribute)`` pairs to numeric values.
Assignment = Mapping[tuple[str, str], Real]


class Expression:
    """Base class of all arithmetic expressions."""

    def variables(self) -> frozenset[tuple[str, str]]:
        """Return every ``(variable, attribute)`` pair the expression references."""
        raise NotImplementedError

    def pattern_variables(self) -> frozenset[str]:
        """Return the pattern variables (without attributes) the expression references."""
        return frozenset(variable for variable, _ in self.variables())

    def degree(self) -> int:
        """Return the polynomial degree of the expression."""
        raise NotImplementedError

    def is_linear(self) -> bool:
        """Return True when the expression has degree at most 1."""
        return self.degree() <= 1

    def evaluate(self, assignment: Assignment) -> Real:
        """Evaluate the expression under ``assignment``.

        Raises :class:`EvaluationError` when a referenced attribute is missing
        from the assignment or a division by zero occurs.
        """
        raise NotImplementedError

    def uses_absolute_value(self) -> bool:
        """Return True when the expression contains the ``|·|`` operator."""
        return False

    def linear_coefficients(self) -> tuple[dict[tuple[str, str], Fraction], Fraction]:
        """Return ``(coefficients, constant)`` such that e = Σ c_i·x_i.A_i + constant.

        Only defined for linear expressions without absolute values; used by
        the satisfiability checker to hand constraints to the LP solver.
        Raises :class:`ExpressionError` otherwise.
        """
        raise NotImplementedError

    # ----------------------------------------------------------- operators

    def __add__(self, other: object) -> "Add":
        return Add(self, as_expression(other))

    def __radd__(self, other: object) -> "Add":
        return Add(as_expression(other), self)

    def __sub__(self, other: object) -> "Subtract":
        return Subtract(self, as_expression(other))

    def __rsub__(self, other: object) -> "Subtract":
        return Subtract(as_expression(other), self)

    def __mul__(self, other: object) -> "Multiply":
        return Multiply(self, as_expression(other))

    def __rmul__(self, other: object) -> "Multiply":
        return Multiply(as_expression(other), self)

    def __truediv__(self, other: object) -> "Divide":
        return Divide(self, as_expression(other))

    def __neg__(self) -> "Negate":
        return Negate(self)

    def __abs__(self) -> "AbsoluteValue":
        return AbsoluteValue(self)


@dataclass(frozen=True)
class TermExpression(Expression):
    """An expression consisting of a single term (constant or ``x.A``)."""

    term: Term

    def variables(self) -> frozenset[tuple[str, str]]:
        return self.term.variables()

    def degree(self) -> int:
        return self.term.degree()

    def evaluate(self, assignment: Assignment) -> Real:
        if isinstance(self.term, Constant):
            return self.term.value
        key = (self.term.variable, self.term.attribute)
        if key not in assignment:
            raise EvaluationError(f"no value for {self.term} in the assignment")
        return assignment[key]

    def linear_coefficients(self) -> tuple[dict[tuple[str, str], Fraction], Fraction]:
        if isinstance(self.term, Constant):
            return {}, Fraction(self.term.value)
        return {(self.term.variable, self.term.attribute): Fraction(1)}, Fraction(0)

    def __str__(self) -> str:
        return str(self.term)


@dataclass(frozen=True)
class _Binary(Expression):
    """Common storage for binary arithmetic operators."""

    left: Expression
    right: Expression

    def variables(self) -> frozenset[tuple[str, str]]:
        return self.left.variables() | self.right.variables()

    def uses_absolute_value(self) -> bool:
        return self.left.uses_absolute_value() or self.right.uses_absolute_value()


class Add(_Binary):
    """``left + right``."""

    def degree(self) -> int:
        return max(self.left.degree(), self.right.degree())

    def evaluate(self, assignment: Assignment) -> Real:
        return self.left.evaluate(assignment) + self.right.evaluate(assignment)

    def linear_coefficients(self) -> tuple[dict[tuple[str, str], Fraction], Fraction]:
        return _combine_linear(self.left, self.right, sign=Fraction(1))

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


class Subtract(_Binary):
    """``left - right``."""

    def degree(self) -> int:
        return max(self.left.degree(), self.right.degree())

    def evaluate(self, assignment: Assignment) -> Real:
        return self.left.evaluate(assignment) - self.right.evaluate(assignment)

    def linear_coefficients(self) -> tuple[dict[tuple[str, str], Fraction], Fraction]:
        return _combine_linear(self.left, self.right, sign=Fraction(-1))

    def __str__(self) -> str:
        return f"({self.left} - {self.right})"


class Multiply(_Binary):
    """``left × right``.

    Linear only when at least one side is a constant expression (degree 0);
    the general product pushes the expression into the non-linear class.
    """

    def degree(self) -> int:
        return self.left.degree() + self.right.degree()

    def evaluate(self, assignment: Assignment) -> Real:
        return self.left.evaluate(assignment) * self.right.evaluate(assignment)

    def linear_coefficients(self) -> tuple[dict[tuple[str, str], Fraction], Fraction]:
        left_degree = self.left.degree()
        right_degree = self.right.degree()
        if left_degree > 0 and right_degree > 0:
            raise ExpressionError(f"{self} is not linear; cannot extract coefficients")
        if self.uses_absolute_value():
            raise ExpressionError(f"{self} contains |·|; coefficients are not defined")
        if left_degree == 0:
            scalar = Fraction(self.left.evaluate({}))
            coefficients, constant = self.right.linear_coefficients()
        else:
            scalar = Fraction(self.right.evaluate({}))
            coefficients, constant = self.left.linear_coefficients()
        return {key: value * scalar for key, value in coefficients.items()}, constant * scalar

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


class Divide(_Binary):
    """``left ÷ right``.

    Linear only when the divisor is a constant expression; division by a
    variable expression has degree ``left.degree() + right.degree()`` by
    convention (it is certainly not linear), mirroring the paper's grammar
    where only ``e ÷ c`` is allowed in the linear fragment.
    """

    def degree(self) -> int:
        if self.right.degree() == 0:
            return self.left.degree()
        return self.left.degree() + self.right.degree()

    def evaluate(self, assignment: Assignment) -> Real:
        numerator = self.left.evaluate(assignment)
        denominator = self.right.evaluate(assignment)
        if denominator == 0:
            raise EvaluationError(f"division by zero while evaluating {self}")
        return Fraction(numerator) / Fraction(denominator)

    def linear_coefficients(self) -> tuple[dict[tuple[str, str], Fraction], Fraction]:
        if self.right.degree() != 0:
            raise ExpressionError(f"{self} is not linear; cannot extract coefficients")
        if self.uses_absolute_value():
            raise ExpressionError(f"{self} contains |·|; coefficients are not defined")
        divisor = Fraction(self.right.evaluate({}))
        if divisor == 0:
            raise ExpressionError(f"{self} divides by the constant zero")
        coefficients, constant = self.left.linear_coefficients()
        return {key: value / divisor for key, value in coefficients.items()}, constant / divisor

    def __str__(self) -> str:
        return f"({self.left} / {self.right})"


@dataclass(frozen=True)
class AbsoluteValue(Expression):
    """``|operand|`` — allowed in the linear fragment (degree unchanged)."""

    operand: Expression

    def variables(self) -> frozenset[tuple[str, str]]:
        return self.operand.variables()

    def degree(self) -> int:
        return self.operand.degree()

    def evaluate(self, assignment: Assignment) -> Real:
        return abs(self.operand.evaluate(assignment))

    def uses_absolute_value(self) -> bool:
        return True

    def linear_coefficients(self) -> tuple[dict[tuple[str, str], Fraction], Fraction]:
        raise ExpressionError(f"{self} contains |·|; coefficients are not defined")

    def __str__(self) -> str:
        return f"|{self.operand}|"


@dataclass(frozen=True)
class Negate(Expression):
    """``-operand`` (sugar for ``0 - operand``; kept as a node for readable output)."""

    operand: Expression

    def variables(self) -> frozenset[tuple[str, str]]:
        return self.operand.variables()

    def degree(self) -> int:
        return self.operand.degree()

    def evaluate(self, assignment: Assignment) -> Real:
        return -self.operand.evaluate(assignment)

    def uses_absolute_value(self) -> bool:
        return self.operand.uses_absolute_value()

    def linear_coefficients(self) -> tuple[dict[tuple[str, str], Fraction], Fraction]:
        coefficients, constant = self.operand.linear_coefficients()
        return {key: -value for key, value in coefficients.items()}, -constant

    def __str__(self) -> str:
        return f"(-{self.operand})"


def _combine_linear(
    left: Expression, right: Expression, sign: Fraction
) -> tuple[dict[tuple[str, str], Fraction], Fraction]:
    """Combine linear coefficient maps of ``left`` and ``sign * right``."""
    if left.uses_absolute_value() or right.uses_absolute_value():
        raise ExpressionError("expressions containing |·| have no coefficient form")
    left_coefficients, left_constant = left.linear_coefficients()
    right_coefficients, right_constant = right.linear_coefficients()
    combined = dict(left_coefficients)
    for key, value in right_coefficients.items():
        combined[key] = combined.get(key, Fraction(0)) + sign * value
    return combined, left_constant + sign * right_constant


def as_expression(value: object) -> Expression:
    """Coerce ``value`` into an :class:`Expression`.

    Accepts expressions, terms, numbers, and ``"x.A"`` strings.
    """
    if isinstance(value, Expression):
        return value
    if isinstance(value, (Constant, AttributeTerm)):
        return TermExpression(value)
    return TermExpression(as_term(value))


# Convenience constructors mirroring the paper's notation -----------------


def var(variable: str, attribute: str = "val") -> TermExpression:
    """Return the expression ``variable.attribute`` (defaults to the ``val`` attribute)."""
    return TermExpression(AttributeTerm(variable, attribute))


def const(value: Real) -> TermExpression:
    """Return the constant expression ``value``."""
    return TermExpression(Constant(value))


__all__ += ["var", "const"]
