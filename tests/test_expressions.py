"""Unit tests for terms, arithmetic expressions and their linearity/degree rules."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import EvaluationError, ExpressionError
from repro.expr.expressions import AbsoluteValue, Add, Divide, Multiply, Negate, Subtract, as_expression, var
from repro.expr.terms import AttributeTerm, Constant, as_term


class TestTerms:
    def test_constant(self):
        term = Constant(5)
        assert term.degree() == 0
        assert term.variables() == frozenset()
        assert str(term) == "5"

    def test_attribute_term(self):
        term = AttributeTerm("x", "val")
        assert term.degree() == 1
        assert term.variables() == frozenset({("x", "val")})
        assert str(term) == "x.val"

    def test_attribute_term_requires_names(self):
        with pytest.raises(ExpressionError):
            AttributeTerm("", "val")

    def test_as_term_coercions(self):
        assert as_term(3) == Constant(3)
        assert as_term("x.age") == AttributeTerm("x", "age")
        assert as_term(Constant(1)) == Constant(1)

    def test_as_term_rejects_bad_inputs(self):
        with pytest.raises(ExpressionError):
            as_term("justaname")
        with pytest.raises(ExpressionError):
            as_term(True)
        with pytest.raises(ExpressionError):
            as_term([1, 2])


class TestExpressionConstruction:
    def test_operator_overloads(self):
        expression = var("x") + 3
        assert isinstance(expression, Add)
        assert isinstance(var("x") - var("y"), Subtract)
        assert isinstance(2 * var("x"), Multiply)
        assert isinstance(var("x") / 2, Divide)
        assert isinstance(-var("x"), Negate)
        assert isinstance(abs(var("x")), AbsoluteValue)

    def test_as_expression(self):
        assert as_expression(7).evaluate({}) == 7
        assert as_expression("x.val").variables() == frozenset({("x", "val")})

    def test_str_rendering(self):
        expression = (var("x") + 1) * 2
        assert "x.val" in str(expression)
        assert "+" in str(expression)


class TestDegreesAndLinearity:
    def test_linear_combinations_stay_degree_one(self):
        expression = 3 * var("x") - var("y") / 2 + 7
        assert expression.degree() == 1
        assert expression.is_linear()

    def test_product_of_variables_is_degree_two(self):
        expression = var("x") * var("y")
        assert expression.degree() == 2
        assert not expression.is_linear()

    def test_division_by_variable_is_nonlinear(self):
        expression = var("x") / var("y")
        assert not expression.is_linear()

    def test_absolute_value_preserves_degree(self):
        assert abs(var("x") - var("y")).degree() == 1
        assert abs(var("x") * var("y")).degree() == 2

    def test_paper_example_phi4_condition_is_linear(self):
        # a×(x.follower − y.follower) + b×(x.following − y.following)
        expression = 2 * (var("x", "follower") - var("y", "follower")) + 3 * (
            var("x", "following") - var("y", "following")
        )
        assert expression.is_linear()


class TestEvaluation:
    def test_basic_arithmetic(self):
        expression = 3 * var("x") + var("y") - 4
        assert expression.evaluate({("x", "val"): 2, ("y", "val"): 5}) == 7

    def test_division_is_exact(self):
        expression = var("x") / 4
        assert expression.evaluate({("x", "val"): 1}) == Fraction(1, 4)

    def test_division_by_zero(self):
        expression = var("x") / (var("y") - var("y"))
        with pytest.raises(EvaluationError):
            expression.evaluate({("x", "val"): 1, ("y", "val"): 2})

    def test_absolute_value(self):
        assert abs(var("x") - var("y")).evaluate({("x", "val"): 2, ("y", "val"): 9}) == 7

    def test_missing_attribute_raises(self):
        with pytest.raises(EvaluationError):
            var("x", "age").evaluate({})

    def test_negation(self):
        assert (-var("x")).evaluate({("x", "val"): 4}) == -4


class TestLinearCoefficients:
    def test_simple_combination(self):
        expression = 3 * var("x") - var("y") / 2 + 7
        coefficients, constant = expression.linear_coefficients()
        assert coefficients[("x", "val")] == 3
        assert coefficients[("y", "val")] == Fraction(-1, 2)
        assert constant == 7

    def test_same_variable_merges(self):
        expression = var("x") + var("x")
        coefficients, _ = expression.linear_coefficients()
        assert coefficients[("x", "val")] == 2

    def test_nonlinear_rejected(self):
        with pytest.raises(ExpressionError):
            (var("x") * var("y")).linear_coefficients()

    def test_absolute_value_rejected(self):
        with pytest.raises(ExpressionError):
            abs(var("x")).linear_coefficients()

    def test_division_by_constant_zero_rejected(self):
        with pytest.raises(ExpressionError):
            (var("x") / 0).linear_coefficients()

    def test_negate_flips_signs(self):
        coefficients, constant = (-(var("x") + 2)).linear_coefficients()
        assert coefficients[("x", "val")] == -1
        assert constant == -2
