"""Closure-compiled literals: the compiled evaluation layer.

Evaluating a literal through its AST (``Literal.holds_for``) rebuilds an
``{(variable, attribute): value}`` assignment dict, walks the
:class:`~repro.expr.expressions.Expression` tree through virtual
``evaluate`` calls, and dispatches the comparison through
:meth:`~repro.expr.literals.Comparison.holds`.  :func:`compile_literal`
compiles that work out of the search loop; the plan compiler
(:meth:`~repro.matching.plan.MatchPlan.schedule_for`) calls it once per
literal per ``(rule, order)`` and keeps the closures on the plan's steps:

* pattern variables map to *slot indices* in plan order, so a partial
  match becomes a flat list of attribute mappings (``slots[d]`` is the
  ``node.attributes`` of the variable bound at depth ``d``) instead of a
  dict keyed by variable name;
* attribute references are pre-resolved to ``(slot, key)`` reads;
* expressions are constant-folded and emitted as nested Python closures
  with the comparison operator (``operator.eq`` & co.) specialised in, so
  checking a literal is a single ``check(slots)`` call with zero AST
  traversal;
* the "every attribute the literal reads is present" test is free: a
  missing attribute raises a pre-allocated
  :class:`~repro.errors.EvaluationError` inside the closure, which the
  literal wrapper turns into ``False`` — exactly ``holds_for``'s verdict
  on an incomplete assignment;
* a literal with a ``Divide`` on either side runs on exact integer ratios:
  every sub-expression yields ``(numerator, denominator > 0)`` as plain
  ``int``\\ s and the comparison is ``op(a * d, c * b)``, so no
  :class:`fractions.Fraction` is built.  A leaf that reads a value whose
  type is not exactly ``int`` (a ``bool``, ``float``, ``Fraction``,
  string, ``None``…) hands the same slots to the literal's general
  closure, which evaluates them as ``holds_for`` does, through
  ``Fraction``; a literal with a constant that is neither an ``int`` nor a
  ``Fraction`` never takes the ratio path.

A compiled check returns ``True`` iff every referenced attribute is
present *and* evaluation raises nothing *and* the comparison holds —
the same three-way semantics as ``Literal.holds_for`` over a complete
assignment, which lets one closure serve premise checks (prune on
``False``) and conclusion checks (prune on ``True``) alike.

Closures do not pickle.  :class:`~repro.matching.plan.MatchPlan` therefore
pickles as ``(rule, statistics, order)``; ``spawn``-style worker processes
compile the schedules again from the plan they receive, ``fork`` workers
inherit the parent's closures for free.

Every literal a search evaluates runs through these closures; there is no
interpreted path beside them.  ``Literal.holds_for`` stays the oracle: the
literal-parity suite (``tests/test_compiled_eval.py``) holds every closure
to its verdict on generated assignments, mixed-type ones included.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from repro.errors import EvaluationError, ExpressionError
from repro.expr.expressions import (
    AbsoluteValue,
    Add,
    Divide,
    Expression,
    Multiply,
    Negate,
    Subtract,
    TermExpression,
)
from repro.expr.literals import COMPARISON_OPS, Literal

__all__ = [
    "resolve_compiled",
    "compile_literal",
]


def resolve_compiled(compiled: Optional[bool] = None) -> bool:
    """Return True: literal schedules are always closure-compiled; ``compiled`` is ignored.

    Kept because the end-to-end benchmark's seed-scan probe still resolves
    the switch this function used to read and passes the result on.
    """
    return True


# -------------------------------------------------------- expression compiler

#: Sentinel distinguishing "attribute absent" from any stored value.
_MISSING = object()

#: One pre-allocated exception per closure beats building a formatted
#: message on every miss; the wrapper catches it immediately, so identity
#: does not matter.  Every raise clears its traceback first: re-raising one
#: instance otherwise chains each raise's frames onto the last.
def _missing_error(term) -> EvaluationError:
    return EvaluationError(f"no value for {term} in the assignment")


def _unknown_expression(expression: Expression) -> ExpressionError:
    # neither EvaluationError nor TypeError: compile_literal must not turn
    # an unsupported node into a constant verdict
    return ExpressionError(f"cannot compile {type(expression).__name__}: no closure for this expression type")


def _compile_expression(expression: Expression, slot_of, direct: bool) -> Callable:
    """Emit a closure computing ``expression`` over a slot list.

    ``slot_of`` maps pattern variables to slot indices.  With ``direct``
    the emitted leaf reads treat the environment as a single node's
    attribute mapping (the unary-filter form); otherwise the environment
    is the slot list and leaves read ``env[slot][key]``.

    Constant subtrees are folded here — a fold that raises propagates to
    :func:`compile_literal`, which then evaluates the literal through
    ``holds_for`` on every check.  Arithmetic mirrors the ``evaluate``
    methods exactly: ints stay ints, ``Divide`` goes through
    :class:`fractions.Fraction` and raises on a zero denominator.  This
    is the general closure, for values of any type; a literal that
    divides runs first on :func:`_compile_ratio`'s closures, which hand
    every value that is not an ``int`` back to this one.  An expression
    type without a branch raises :class:`~repro.errors.ExpressionError`.
    """
    if not expression.variables():
        value = expression.evaluate({})
        return lambda env: value
    if isinstance(expression, TermExpression):
        term = expression.term
        key = term.attribute
        error = _missing_error(term)
        if direct:
            def read_direct(env, _key=key, _error=error):
                value = env.get(_key, _MISSING)
                if value is _MISSING:
                    raise _error.with_traceback(None)
                return value
            return read_direct
        slot = slot_of[term.variable]
        def read(env, _slot=slot, _key=key, _error=error):
            value = env[_slot].get(_key, _MISSING)
            if value is _MISSING:
                raise _error.with_traceback(None)
            return value
        return read
    if isinstance(expression, Add):
        left = _compile_expression(expression.left, slot_of, direct)
        right = _compile_expression(expression.right, slot_of, direct)
        return lambda env: left(env) + right(env)
    if isinstance(expression, Subtract):
        left = _compile_expression(expression.left, slot_of, direct)
        right = _compile_expression(expression.right, slot_of, direct)
        return lambda env: left(env) - right(env)
    if isinstance(expression, Multiply):
        left = _compile_expression(expression.left, slot_of, direct)
        right = _compile_expression(expression.right, slot_of, direct)
        return lambda env: left(env) * right(env)
    if isinstance(expression, Divide):
        left = _compile_expression(expression.left, slot_of, direct)
        right = _compile_expression(expression.right, slot_of, direct)
        error = EvaluationError(f"division by zero while evaluating {expression}")
        def divide(env, _error=error):
            numerator = left(env)
            denominator = right(env)
            if denominator == 0:
                raise _error.with_traceback(None)
            return Fraction(numerator) / Fraction(denominator)
        return divide
    if isinstance(expression, AbsoluteValue):
        operand = _compile_expression(expression.operand, slot_of, direct)
        return lambda env: abs(operand(env))
    if isinstance(expression, Negate):
        operand = _compile_expression(expression.operand, slot_of, direct)
        return lambda env: -operand(env)
    raise _unknown_expression(expression)


# ------------------------------------------------------------- ratio compiler


class _NotInteger(Exception):
    """A ratio closure met a value whose type is not exactly ``int``."""


#: Raised by a ratio leaf (and, at compile time, by a constant that is
#: neither an ``int`` nor a ``Fraction``); caught by the literal's wrapper.
_NOT_INTEGER = _NotInteger()


def _divides(expression: Expression) -> bool:
    """Return True when ``expression`` contains a ``Divide`` node."""
    if isinstance(expression, Divide):
        return True
    if isinstance(expression, (AbsoluteValue, Negate)):
        return _divides(expression.operand)
    if isinstance(expression, (Add, Subtract, Multiply)):
        return _divides(expression.left) or _divides(expression.right)
    return False


def _constant_ratio(expression: Expression) -> tuple[int, int]:
    """Fold a variable-free expression to ``(numerator, denominator > 0)``.

    Raises ``_NOT_INTEGER`` for a value that is neither an ``int`` nor a
    ``Fraction``: a ``float`` constant makes ``holds_for`` compute in
    floating point, which only the general closure reproduces.
    """
    value = expression.evaluate({})
    if type(value) is int:
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    raise _NOT_INTEGER


def _compile_ratio(expression: Expression, slot_of, direct: bool) -> Callable:
    """Emit a closure computing ``expression`` as an exact ratio of ints.

    The closure returns ``(numerator, denominator)`` with ``denominator >
    0``; nothing is reduced by a gcd.  It evaluates sub-expressions and
    raises :class:`EvaluationError` (missing attribute, zero divisor) at
    the same points, in the same order, as :func:`_compile_expression`'s
    closure over the same values, and raises ``_NOT_INTEGER`` where it
    reads a value of another type, before any arithmetic on it.
    """
    if not expression.variables():
        pair = _constant_ratio(expression)
        return lambda env: pair
    if isinstance(expression, TermExpression):
        term = expression.term
        key = term.attribute
        error = _missing_error(term)
        if direct:
            def read_direct(env, _key=key, _error=error):
                value = env.get(_key, _MISSING)
                if type(value) is int:
                    return value, 1
                if value is _MISSING:
                    raise _error.with_traceback(None)
                raise _NOT_INTEGER.with_traceback(None)
            return read_direct
        slot = slot_of[term.variable]
        def read(env, _slot=slot, _key=key, _error=error):
            value = env[_slot].get(_key, _MISSING)
            if type(value) is int:
                return value, 1
            if value is _MISSING:
                raise _error.with_traceback(None)
            raise _NOT_INTEGER.with_traceback(None)
        return read
    if isinstance(expression, AbsoluteValue):
        operand = _compile_ratio(expression.operand, slot_of, direct)
        def absolute(env):
            a, b = operand(env)
            return abs(a), b
        return absolute
    if isinstance(expression, Negate):
        operand = _compile_ratio(expression.operand, slot_of, direct)
        def negate(env):
            a, b = operand(env)
            return -a, b
        return negate
    if not isinstance(expression, (Add, Subtract, Multiply, Divide)):
        raise _unknown_expression(expression)
    left = _compile_ratio(expression.left, slot_of, direct)
    right = _compile_ratio(expression.right, slot_of, direct)
    if isinstance(expression, Add):
        def add(env):
            a, b = left(env)
            c, d = right(env)
            return a * d + c * b, b * d
        return add
    if isinstance(expression, Subtract):
        def subtract(env):
            a, b = left(env)
            c, d = right(env)
            return a * d - c * b, b * d
        return subtract
    if isinstance(expression, Multiply):
        def multiply(env):
            a, b = left(env)
            c, d = right(env)
            return a * c, b * d
        return multiply
    # Divide: (a/b) / (c/d) = (a*d) / (b*c), the sign moved to the numerator
    error = EvaluationError(f"division by zero while evaluating {expression}")
    def divide(env, _error=error):
        a, b = left(env)
        c, d = right(env)
        if c > 0:
            return a * d, b * c
        if c < 0:
            return -a * d, -b * c
        raise _error.with_traceback(None)
    return divide


def _ratio_check(literal: Literal, slot_of, direct: bool, general: Callable) -> Callable:
    """Compile a literal that divides into its integer-ratio check.

    ``a/b ⊗ c/d`` with ``b, d > 0`` is ``a*d ⊗ c*b``.  A constant side is
    fused into the comparison, so the check makes one closure call.  On a
    leaf value that is not an ``int`` the check returns ``general(env)``,
    called outside the handler so that what it raises chains to nothing.
    Raises ``_NOT_INTEGER`` when a constant rules the ratio path out.
    """
    left, comparison, right = literal.left, literal.comparison, literal.right
    if not left.variables():
        left, comparison, right = right, comparison.flip(), left
    op = COMPARISON_OPS[comparison]
    compute = _compile_ratio(left, slot_of, direct)
    if not right.variables():
        c, d = _constant_ratio(right)
        def check_constant(env, _op=op, _compute=compute, _c=c, _d=d, _general=general):
            try:
                a, b = _compute(env)
            except EvaluationError:
                return False
            except _NotInteger:
                pass
            else:
                return _op(a * _d, _c * b)
            return _general(env)
        return check_constant
    other = _compile_ratio(right, slot_of, direct)
    def check(env, _op=op, _left=compute, _right=other, _general=general):
        try:
            a, b = _left(env)
            c, d = _right(env)
        except EvaluationError:
            return False
        except _NotInteger:
            pass
        else:
            return _op(a * d, c * b)
        return _general(env)
    return check


def _constant_check(verdict: bool) -> Callable:
    return (lambda env: True) if verdict else (lambda env: False)


def compile_literal(literal: Literal, slot_of, direct: bool = False) -> Callable:
    """Compile ``literal`` into ``check(env) -> bool``.

    The returned closure is ``True`` iff every referenced attribute is
    present, evaluation raises neither :class:`EvaluationError` nor
    ``TypeError`` (dirty data), and the comparison holds — i.e. exactly
    ``literal.holds_for(assignment)`` over the assignment of the bound
    nodes' attributes, including its implicit completeness test.  A
    literal that divides returns :func:`_ratio_check`'s closure, which
    hands values that are not ``int`` to the general one built here.
    """
    op = COMPARISON_OPS[literal.comparison]
    # Exceptions other than EvaluationError/TypeError (e.g. ValueError from
    # Fraction('text')) escape ``holds_for`` too — but only when the
    # assignment is *complete*; ``holds_for`` is never reached with an
    # incomplete one, while the closures discover missing attributes lazily
    # and could trip over dirty data first.  On a foreign exception, replay
    # in that order: incomplete -> False, complete -> re-raise whatever
    # ``holds_for`` raises.  The hot path pays nothing for this.
    items = tuple(
        (pair, (None if direct else slot_of[pair[0]]), pair[1])
        for pair in sorted(literal.variables())
    )
    def slow(env, _literal=literal, _items=items):
        assignment = {}
        for pair, slot, key in _items:
            attrs = env if slot is None else env[slot]
            value = attrs.get(key, _MISSING)
            if value is _MISSING:
                return False
            assignment[pair] = value
        return _literal.holds_for(assignment)
    try:
        left = _compile_expression(literal.left, slot_of, direct)
        right = _compile_expression(literal.right, slot_of, direct)
    except (EvaluationError, ArithmeticError, ValueError, TypeError):
        # a constant subtree that cannot evaluate (division by the constant
        # zero, ``Fraction(inf)``): whether ``holds_for`` returns False or
        # raises depends on the operands it evaluates first, so every check
        # replays it
        return slow
    if not literal.variables():
        try:
            return _constant_check(bool(op(left(()), right(()))))
        except (EvaluationError, TypeError):
            return _constant_check(False)
    def check(env, _op=op, _left=left, _right=right, _slow=slow):
        try:
            return bool(_op(_left(env), _right(env)))
        except (EvaluationError, TypeError):
            return False
        except Exception:
            return _slow(env)
    if _divides(literal.left) or _divides(literal.right):
        try:
            return _ratio_check(literal, slot_of, direct, check)
        except _NotInteger:
            pass
    return check
