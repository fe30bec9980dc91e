"""Comparison literals ``e1 ⊗ e2``.

A literal of a pattern ``Q[x̄]`` is ``e1 ⊗ e2`` where ``e1``, ``e2`` are
arithmetic expressions and ``⊗`` is one of the built-in comparison predicates
``=, ≠, <, ≤, >, ≥`` (paper, Section 3).  A match ``h(x̄)`` satisfies the
literal when (a) every referenced attribute exists on the matched node and
(b) the comparison holds under standard arithmetic semantics.

This module also provides :class:`LiteralSet` (a conjunction of literals, the
``X`` and ``Y`` of an NGD) and helpers to normalise literals into the
``Σ c_i·x_i ≤ b`` form the satisfiability checker feeds to the LP solver.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Optional

from repro.errors import EvaluationError, ExpressionError
from repro.expr.expressions import Assignment, Expression, as_expression
from repro.expr.terms import Constant

__all__ = ["Comparison", "COMPARISON_OPS", "Literal", "LiteralSet", "LinearConstraint"]


class Comparison(enum.Enum):
    """The built-in comparison predicates of NGDs."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def negate(self) -> "Comparison":
        """Return the complementary predicate (used when searching for violations)."""
        complements = {
            Comparison.EQ: Comparison.NE,
            Comparison.NE: Comparison.EQ,
            Comparison.LT: Comparison.GE,
            Comparison.LE: Comparison.GT,
            Comparison.GT: Comparison.LE,
            Comparison.GE: Comparison.LT,
        }
        return complements[self]

    def flip(self) -> "Comparison":
        """Return the predicate with operands swapped (``a < b`` ⇔ ``b > a``)."""
        flips = {
            Comparison.EQ: Comparison.EQ,
            Comparison.NE: Comparison.NE,
            Comparison.LT: Comparison.GT,
            Comparison.LE: Comparison.GE,
            Comparison.GT: Comparison.LT,
            Comparison.GE: Comparison.LE,
        }
        return flips[self]

    def holds(self, left: object, right: object) -> bool:
        """Return the truth of ``left ⊗ right`` under standard semantics."""
        return COMPARISON_OPS[self](left, right)

    @classmethod
    def from_symbol(cls, symbol: str) -> "Comparison":
        """Parse a predicate symbol (accepts ASCII and the Unicode variants ≠ ≤ ≥ ==)."""
        aliases = {
            "=": cls.EQ,
            "==": cls.EQ,
            "!=": cls.NE,
            "<>": cls.NE,
            "≠": cls.NE,
            "<": cls.LT,
            "<=": cls.LE,
            "≤": cls.LE,
            ">": cls.GT,
            ">=": cls.GE,
            "≥": cls.GE,
        }
        try:
            return aliases[symbol]
        except KeyError:
            raise ExpressionError(f"unknown comparison predicate {symbol!r}") from None


#: The comparison predicates as plain callables (``operator`` module
#: dispatch).  One table serves :meth:`Comparison.holds`, the LP
#: normalisation callers, and the compiled evaluator
#: (:mod:`repro.matching.compiled`), which folds constant literals with
#: it.
COMPARISON_OPS = {
    Comparison.EQ: operator.eq,
    Comparison.NE: operator.ne,
    Comparison.LT: operator.lt,
    Comparison.LE: operator.le,
    Comparison.GT: operator.gt,
    Comparison.GE: operator.ge,
}


@dataclass(frozen=True)
class LinearConstraint:
    """A literal normalised to ``Σ coefficients·vars (⊗) bound``.

    Used by the satisfiability/implication checkers: every linear literal
    without absolute values can be brought to this form with ``⊗`` one of
    ``<=``, ``<``, ``=`` or ``!=`` (``>=``/``>`` are flipped during
    normalisation).
    """

    coefficients: tuple[tuple[tuple[str, str], Fraction], ...]
    comparison: Comparison
    bound: Fraction

    def variables(self) -> frozenset[tuple[str, str]]:
        """Return the ``(variable, attribute)`` pairs with non-zero coefficients."""
        return frozenset(key for key, value in self.coefficients if value != 0)


@dataclass(frozen=True)
class Literal:
    """A comparison literal ``left ⊗ right``."""

    left: Expression
    comparison: Comparison
    right: Expression

    @classmethod
    def build(cls, left: object, comparison: object, right: object) -> "Literal":
        """Construct a literal coercing operands to expressions and the predicate to a symbol."""
        predicate = comparison if isinstance(comparison, Comparison) else Comparison.from_symbol(str(comparison))
        return cls(as_expression(left), predicate, as_expression(right))

    # ------------------------------------------------------------- structure

    def variables(self) -> frozenset[tuple[str, str]]:
        """Return all ``(variable, attribute)`` pairs referenced by either side.

        Memoised: the matchers consult this once per candidate in their
        innermost loops, and the expression trees are immutable.
        """
        cached = self.__dict__.get("_variables")
        if cached is None:
            cached = self.left.variables() | self.right.variables()
            object.__setattr__(self, "_variables", cached)
        return cached

    def pattern_variables(self) -> frozenset[str]:
        """Return the pattern variables referenced by either side (memoised)."""
        cached = self.__dict__.get("_pattern_variables")
        if cached is None:
            cached = self.left.pattern_variables() | self.right.pattern_variables()
            object.__setattr__(self, "_pattern_variables", cached)
        return cached

    def degree(self) -> int:
        """Return the maximum degree of the two sides."""
        return max(self.left.degree(), self.right.degree())

    def is_linear(self) -> bool:
        """Return True when both sides are linear (degree ≤ 1)."""
        return self.degree() <= 1

    def uses_absolute_value(self) -> bool:
        """Return True when either side contains ``|·|``."""
        return self.left.uses_absolute_value() or self.right.uses_absolute_value()

    def is_gfd_literal(self) -> bool:
        """Return True for literals in the GFD fragment: ``x.A = c`` or ``x.A = y.B``.

        GFDs are the special case of NGDs whose literals are bare terms
        connected by equality (paper, Section 3).
        """
        from repro.expr.expressions import TermExpression

        both_terms = isinstance(self.left, TermExpression) and isinstance(self.right, TermExpression)
        return both_terms and self.comparison is Comparison.EQ

    def negated(self) -> "Literal":
        """Return the literal with the complementary predicate."""
        return Literal(self.left, self.comparison.negate(), self.right)

    # ------------------------------------------------------------ evaluation

    def evaluate(self, assignment: Assignment) -> bool:
        """Return the truth of the literal under ``assignment``.

        Raises :class:`EvaluationError` when a referenced attribute has no
        value — matching code treats that as "the match does not satisfy the
        literal" per the paper's semantics (the node must carry the attribute).
        """
        left_value = self.left.evaluate(assignment)
        right_value = self.right.evaluate(assignment)
        return self.comparison.holds(left_value, right_value)

    def holds_for(self, assignment: Assignment) -> bool:
        """Like :meth:`evaluate` but returns False instead of raising on missing attributes.

        Type mismatches (e.g. ordering a string against an integer in dirty
        data) also count as "does not hold" rather than crashing detection.
        """
        try:
            return self.evaluate(assignment)
        except (EvaluationError, TypeError):
            return False

    # --------------------------------------------------------- normalisation

    def to_linear_constraint(self) -> LinearConstraint:
        """Return the ``Σ c_i·x_i ⊗ b`` normal form of this literal.

        Only defined for linear literals without absolute values; ``>=``/``>``
        are flipped to ``<=``/``<`` so downstream solvers deal with one
        direction only.
        """
        if not self.is_linear():
            raise ExpressionError(f"{self} is not linear")
        if self.uses_absolute_value():
            raise ExpressionError(f"{self} contains |·| and has no single linear form")
        left_coefficients, left_constant = self.left.linear_coefficients()
        right_coefficients, right_constant = self.right.linear_coefficients()
        coefficients: dict[tuple[str, str], Fraction] = dict(left_coefficients)
        for key, value in right_coefficients.items():
            coefficients[key] = coefficients.get(key, Fraction(0)) - value
        bound = right_constant - left_constant
        comparison = self.comparison
        if comparison in (Comparison.GT, Comparison.GE):
            coefficients = {key: -value for key, value in coefficients.items()}
            bound = -bound
            comparison = Comparison.LT if comparison is Comparison.GT else Comparison.LE
        ordered = tuple(sorted(coefficients.items(), key=lambda item: item[0]))
        return LinearConstraint(ordered, comparison, bound)

    def __str__(self) -> str:
        return f"{self.left} {self.comparison.value} {self.right}"


class LiteralSet:
    """A conjunction of literals: the ``X`` or ``Y`` of an NGD.

    An empty literal set is the trivially true condition (the paper writes it
    as ∅).
    """

    def __init__(self, literals: Iterable[Literal] = ()) -> None:
        self._literals: tuple[Literal, ...] = tuple(literals)
        self._variables: Optional[frozenset[tuple[str, str]]] = None
        self._pattern_variables: Optional[frozenset[str]] = None
        self._constant_types: Optional[tuple[type, ...]] = None

    @classmethod
    def of(cls, *literals: Literal) -> "LiteralSet":
        """Build a literal set from positional literals."""
        return cls(literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self._literals)

    def __len__(self) -> int:
        return len(self._literals)

    def __bool__(self) -> bool:
        return bool(self._literals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LiteralSet):
            return NotImplemented
        return self._literals == other._literals

    def __hash__(self) -> int:
        return hash(self._literals)

    def literals(self) -> tuple[Literal, ...]:
        """Return the literals in declaration order."""
        return self._literals

    def variables(self) -> frozenset[tuple[str, str]]:
        """Return all ``(variable, attribute)`` pairs referenced by any literal (memoised)."""
        if self._variables is None:
            result: frozenset[tuple[str, str]] = frozenset()
            for literal in self._literals:
                result |= literal.variables()
            self._variables = result
        return self._variables

    def pattern_variables(self) -> frozenset[str]:
        """Return all pattern variables referenced by any literal (memoised)."""
        if self._pattern_variables is None:
            result: frozenset[str] = frozenset()
            for literal in self._literals:
                result |= literal.pattern_variables()
            self._pattern_variables = result
        return self._pattern_variables

    def constant_types(self) -> tuple[type, ...]:
        """Return the exact type of every constant, literal by literal, left to right (memoised).

        Equal sets can hold constants of different types (``1``, ``1.0``,
        ``True`` and ``Fraction(1)`` compare equal), and code generated for
        one constant is not the code for the other: two sets that are equal
        and agree here evaluate alike.
        """
        if self._constant_types is None:
            found = []
            stack: list = list(reversed(self._literals))
            while stack:
                node = stack.pop()
                if isinstance(node, Constant):
                    found.append(type(node.value))
                elif is_dataclass(node):
                    stack.extend(getattr(node, field.name) for field in reversed(fields(node)))
            self._constant_types = tuple(found)
        return self._constant_types

    def degree(self) -> int:
        """Return the maximum degree over the literals (0 for an empty set)."""
        return max((literal.degree() for literal in self._literals), default=0)

    def is_linear(self) -> bool:
        """Return True when every literal is linear."""
        return all(literal.is_linear() for literal in self._literals)

    def satisfied_by(self, assignment: Assignment) -> bool:
        """Return True when every literal holds under ``assignment``.

        Missing attributes make the corresponding literal (and hence the set)
        unsatisfied, matching the paper's "node must carry attribute A" rule.
        """
        return all(literal.holds_for(assignment) for literal in self._literals)

    def add(self, literal: Literal) -> "LiteralSet":
        """Return a new set with ``literal`` appended."""
        return LiteralSet(self._literals + (literal,))

    def restricted_to(self, variables: frozenset[str]) -> "LiteralSet":
        """Return the literals that only mention ``variables`` (used for early pruning)."""
        return LiteralSet(
            literal for literal in self._literals if literal.pattern_variables() <= variables
        )

    def __str__(self) -> str:
        if not self._literals:
            return "∅"
        return " ∧ ".join(str(literal) for literal in self._literals)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LiteralSet({list(map(str, self._literals))})"
