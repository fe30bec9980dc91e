"""Closure-compiled literal schedules: the compiled evaluation layer.

Evaluating a literal through its AST (``Literal.holds_for``) rebuilds an
``{(variable, attribute): value}`` assignment dict, walks the
:class:`~repro.expr.expressions.Expression` tree through virtual
``evaluate`` calls, and dispatches the comparison through
:meth:`~repro.expr.literals.Comparison.holds`.  This module compiles that
work out of the search loop, once per ``(rule, order)``:

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
excludes its compiled memo from ``__getstate__``; ``spawn``-style worker
processes recompile lazily from the pickled plan they receive, ``fork``
workers inherit the parent's closures for free.

Every literal a search evaluates runs through these closures; there is no
interpreted path beside them.  ``Literal.holds_for`` stays the oracle: the
literal-parity suite (``tests/test_compiled_eval.py``) holds every closure
to its verdict on generated assignments.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
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
from repro.matching.candidates import STEP_COUNT_PREFIX

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.matching.candidates import MatchStatistics
    from repro.matching.plan import MatchPlan, PlanStep

__all__ = [
    "resolve_compiled",
    "CompiledStep",
    "CompiledSchedule",
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


# ----------------------------------------------------------- compiled schedule


class CompiledStep:
    """The compiled literal schedule of one plan step.

    ``unary_checks`` run during candidate filtering over a single node's
    attribute mapping, parallel (in order) to ``PlanStep.unary_premise``;
    ``premise_checks`` run after the step's variable binds, parallel to
    ``PlanStep.premise_checks``; ``conclusion_check`` is present exactly
    at the step ``PlanStep.check_conclusion`` marks, where a single-literal
    conclusion becomes fully bound.

    ``anchors`` is ``PlanStep.anchors`` by slot — ``(anchor's slot, True for
    a successor view, edge label)`` — so the search core reads an anchor's
    node off its id list; ``count_key`` is the step's scan-count key in
    ``MatchStatistics.extra``, formatted here rather than per executed step.
    """

    __slots__ = ("unary_checks", "premise_checks", "conclusion_check", "anchors", "count_key")

    def __init__(self, unary_checks, premise_checks, conclusion_check, anchors, count_key) -> None:
        self.unary_checks = unary_checks
        self.premise_checks = premise_checks
        self.conclusion_check = conclusion_check
        self.anchors = anchors
        self.count_key = count_key

    def pruned(self, slots, stats: "MatchStatistics") -> bool:
        """Apply the step's bound-literal schedule; True when the branch is pruned.

        Billing: one ``literal_evaluations`` per check actually reached,
        short-circuit on the first pruning verdict.
        """
        for check in self.premise_checks:
            stats.literal_evaluations += 1
            if not check(slots):
                return True
        conclusion = self.conclusion_check
        if conclusion is not None:
            stats.literal_evaluations += 1
            if conclusion(slots):
                return True
        return False


class CompiledSchedule:
    """One rule's fully compiled execution schedule for a fixed variable order."""

    __slots__ = ("order", "slot_of", "steps", "premise_all", "conclusion_all", "_flat_bill")

    def __init__(self, order, slot_of, steps, premise_all, conclusion_all) -> None:
        self.order = order
        self.slot_of = slot_of
        self.steps = steps
        self.premise_all = premise_all
        self.conclusion_all = conclusion_all
        self._flat_bill = len(premise_all) + len(conclusion_all)

    @classmethod
    def build(cls, plan: "MatchPlan", order, schedule) -> "CompiledSchedule":
        """Compile the literal schedule of ``plan`` resolved for ``order``."""
        rule = plan.rule
        slot_of = {variable: index for index, variable in enumerate(order)}
        conclusion_literals = rule.conclusion.literals()
        single_conclusion = (
            compile_literal(conclusion_literals[0], slot_of)
            if len(conclusion_literals) == 1
            else None
        )
        steps = []
        for step in schedule:
            unary = tuple(
                compile_literal(plan.premise_literal(index), slot_of, direct=True)
                for index in step.unary_premise
            )
            checks = tuple(
                compile_literal(plan.premise_literal(index), slot_of)
                for index in step.premise_checks
            )
            steps.append(
                CompiledStep(
                    unary,
                    checks,
                    single_conclusion if step.check_conclusion else None,
                    tuple(
                        (slot_of[anchor.variable], anchor.direction == "succ", anchor.edge_label)
                        for anchor in step.anchors
                    ),
                    f"{STEP_COUNT_PREFIX}{rule.name}\x1f{step.variable}\x1f{step.strategy}",
                )
            )
        premise_all = tuple(
            compile_literal(literal, slot_of) for literal in rule.premise.literals()
        )
        conclusion_all = tuple(
            compile_literal(literal, slot_of) for literal in conclusion_literals
        )
        obs.counter_inc("repro_compiled_schedules_total", {"rule": rule.name})
        return cls(tuple(order), slot_of, tuple(steps), premise_all, conclusion_all)

    def violates(self, slots, stats: "MatchStatistics") -> bool:
        """Dependency check over a complete slot list: True when X holds and Y does not.

        Billing: a flat ``len(premise) + len(conclusion)`` charged up front
        regardless of where the conjunctions short-circuit.
        """
        stats.literal_evaluations += self._flat_bill
        for check in self.premise_all:
            if not check(slots):
                return False
        for check in self.conclusion_all:
            if not check(slots):
                return True
        return False

