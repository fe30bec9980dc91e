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
  on an incomplete assignment.

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
to its verdict on generated assignments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from repro.errors import EvaluationError
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
from repro.expr.terms import Constant

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
#: and traceback freshness do not matter.
def _missing_error(term) -> EvaluationError:
    return EvaluationError(f"no value for {term} in the assignment")


def _compile_expression(expression: Expression, slot_of, direct: bool) -> Callable:
    """Emit a closure computing ``expression`` over a slot list.

    ``slot_of`` maps pattern variables to slot indices.  With ``direct``
    the emitted leaf reads treat the environment as a single node's
    attribute mapping (the unary-filter form); otherwise the environment
    is the slot list and leaves read ``env[slot][key]``.

    Constant subtrees are folded here — a fold that raises propagates to
    :func:`compile_literal`, which poisons the literal to a constant
    verdict (the interpreted evaluator would raise identically on every
    assignment).  Arithmetic mirrors the ``evaluate`` methods exactly:
    ints stay ints, ``Divide`` goes through :class:`fractions.Fraction`
    and raises on a zero denominator.
    """
    if not expression.variables():
        value = expression.evaluate({})
        return lambda env: value
    if isinstance(expression, TermExpression):
        term = expression.term
        if isinstance(term, Constant):  # pragma: no cover - caught by the fold above
            value = term.value
            return lambda env: value
        key = term.attribute
        error = _missing_error(term)
        if direct:
            def read_direct(env, _key=key, _error=error):
                value = env.get(_key, _MISSING)
                if value is _MISSING:
                    raise _error
                return value
            return read_direct
        slot = slot_of[term.variable]
        def read(env, _slot=slot, _key=key, _error=error):
            value = env[_slot].get(_key, _MISSING)
            if value is _MISSING:
                raise _error
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
                raise _error
            return Fraction(numerator) / Fraction(denominator)
        return divide
    if isinstance(expression, AbsoluteValue):
        operand = _compile_expression(expression.operand, slot_of, direct)
        return lambda env: abs(operand(env))
    if isinstance(expression, Negate):
        operand = _compile_expression(expression.operand, slot_of, direct)
        return lambda env: -operand(env)
    # unknown Expression subclass: fall back to the interpreted evaluator
    # over an assignment reconstructed from the slots — semantics are
    # preserved (missing attributes raise inside evaluate) at interpreted
    # speed for this subtree only
    items = tuple(
        (pair, (None if direct else slot_of[pair[0]]), pair[1])
        for pair in sorted(expression.variables())
    )
    def fallback(env):
        assignment = {}
        for pair, slot, key in items:
            attrs = env if slot is None else env[slot]
            value = attrs.get(key, _MISSING)
            if value is not _MISSING:
                assignment[pair] = value
        return expression.evaluate(assignment)
    return fallback


def _constant_check(verdict: bool) -> Callable:
    return (lambda env: True) if verdict else (lambda env: False)


def compile_literal(literal: Literal, slot_of, direct: bool = False) -> Callable:
    """Compile ``literal`` into ``check(env) -> bool``.

    The returned closure is ``True`` iff every referenced attribute is
    present, evaluation raises neither :class:`EvaluationError` nor
    ``TypeError`` (dirty data), and the comparison holds — i.e. exactly
    ``literal.holds_for(assignment)`` over the assignment of the bound
    nodes' attributes, including its implicit completeness test.
    """
    op = COMPARISON_OPS[literal.comparison]
    try:
        left = _compile_expression(literal.left, slot_of, direct)
        right = _compile_expression(literal.right, slot_of, direct)
    except (EvaluationError, TypeError):
        # a constant subtree that cannot evaluate (e.g. division by the
        # constant zero): ``holds_for`` raises on every
        # assignment, so the literal never holds
        return _constant_check(False)
    if not literal.variables():
        try:
            return _constant_check(bool(op(left(()), right(()))))
        except (EvaluationError, TypeError):
            return _constant_check(False)
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
    def check(env, _op=op, _left=left, _right=right, _slow=slow):
        try:
            return bool(_op(_left(env), _right(env)))
        except (EvaluationError, TypeError):
            return False
        except Exception:
            return _slow(env)
    return check
