"""Generated literal schedules: the compiled evaluation layer.

Evaluating a literal through its AST (``Literal.holds_for``) rebuilds an
``{(variable, attribute): value}`` assignment dict, walks the
:class:`~repro.expr.expressions.Expression` tree through virtual
``evaluate`` calls, and dispatches the comparison through
:meth:`~repro.expr.literals.Comparison.holds`.  This module generates that
work out of the search loop as straight-line Python source.
:func:`compile_schedule` emits every literal of one ``(rule, order)``
schedule into one source text, calls ``compile()`` once for it, and
returns, per step, an ``admit(attrs, stats)`` for the unary literals that
filter its candidates and a ``prune(slots, stats)`` for the literals that
become bound when it binds, plus the leaf ``violates(slots, stats)``:

* pattern variables map to *slot indices* in plan order, so a partial
  match is a flat list of attribute mappings (``slots[d]`` is the
  ``node.attributes`` of the variable bound at depth ``d``);
* each ``(slot, attribute)`` a function needs is read once, with
  ``.get(key, MISSING)``, and shared by every literal the function checks;
* arithmetic is inline, constant subtrees are folded, and the comparison
  operator is written out; a literal nested deeper than ``_NESTING`` is
  written one operation per line, in the same order, because Python's
  parser refuses deeply nested source;
* a literal that divides gets an integer-ratio branch inline: when every
  value it reads is exactly an ``int``, each sub-expression is a
  ``(numerator, denominator)`` pair of ints and ``a/b ⊗ c/d`` is compared
  as ``a*d ⊗ c*b`` (with the sign of ``b*d`` where a divisor may be
  negative), so no :class:`fractions.Fraction` is built; any other value
  (a ``bool``, ``float``, ``Fraction``, string, ``None``…) takes the
  general branch, which divides through ``Fraction`` as ``Divide.evaluate``
  does.  A literal with a constant that is neither an ``int`` nor a
  ``Fraction`` has only the general branch.

**Three-way verdicts.**  A literal over a missing attribute is False.  A
literal whose evaluation raises :class:`~repro.errors.EvaluationError`
(a zero divisor) or ``TypeError`` (dirty data) is False.  Any other
exception (``Fraction('n/a')`` raises ``ValueError``) replays
``Literal.holds_for`` on the values read, outside the handler, so the
verdict or the exception is ``holds_for``'s own.  A constant subtree that
cannot fold (division by the constant zero, ``Fraction(inf)``) makes every
check of its literal replay ``holds_for``.  Evaluation keeps
``Expression.evaluate``'s order, so the first exception raised is the
same.  Billing is the search's: ``admit`` and ``prune`` charge one
``literal_evaluations`` per check reached, at the exit they take, and the
leaf its flat ``len(X) + len(Y)`` up front.

**The memo.**  The generated code depends on the rule and the order only,
not on the graph statistics, so :mod:`repro.matching.plan` keeps it in one
process-wide table (least recently used out past ``SCHEDULES_KEPT``) keyed
by what the code is made of: the rule's name, its pattern with the edges in
order, its literals and the exact type of each constant (``1`` and ``1.0``
compare equal, but ``x.a * 1`` and ``x.a * 1.0`` differ on a large int).
Every plan of an equal rule reuses it, in every ``Detector`` of the
process, parsed once or again.  Generated functions do not pickle and are
not on the rule; a ``spawn`` worker generates its schedules again from the
rules it receives.

Keys enter the source only through ``repr()``, and constants only through
the module's namespace, so no attribute name or value can become code.  The
source is compiled under a filename containing ``repro/matching/compiled``
and registered in :mod:`linecache`, so profiles attribute its time to this
layer and tracebacks show the generated line.  ``Literal.holds_for`` stays
the oracle: ``tests/test_compiled_eval.py`` holds the generated code to it
on generated assignments, mixed-type ones included.
"""

from __future__ import annotations

import hashlib
import linecache
import re
from collections.abc import Sequence
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
from repro.expr.literals import COMPARISON_OPS, Comparison, Literal

__all__ = [
    "resolve_compiled",
    "compile_literal",
    "compile_schedule",
]


def resolve_compiled(compiled: Optional[bool] = None) -> bool:
    """Return True: literal schedules are always compiled; ``compiled`` is ignored.

    Kept because the end-to-end benchmark's seed-scan probe still resolves
    the switch this function used to read and passes the result on.
    """
    return True


#: What a generated read returns for an absent attribute.
MISSING = object()

_SYMBOLS = {
    Comparison.EQ: "==",
    Comparison.NE: "!=",
    Comparison.LT: "<",
    Comparison.LE: "<=",
    Comparison.GT: ">",
    Comparison.GE: ">=",
}
_ARITHMETIC = {Add: "+", Subtract: "-", Multiply: "*"}
_FOLD_ERRORS = (EvaluationError, ArithmeticError, ValueError, TypeError)
#: A literal nested deeper than this is written one operation per line:
#: Python's parser refuses source nested about 200 deep, which the rule
#: parser and the expression API accept.
_NESTING = 40
#: What a rule name may not bring into a generated filename.
_UNSAFE = re.compile(r"[^\w.-]+")


def _divide(numerator, denominator):
    """``Divide.evaluate`` on two values: exact through ``Fraction``; a zero divisor raises."""
    if denominator == 0:
        raise EvaluationError("division by zero")
    return Fraction(numerator) / Fraction(denominator)


def _replay(literal: Literal, pairs: tuple) -> Callable:
    """Return ``replay(*values)``: ``literal.holds_for`` over ``pairs`` bound to ``values``."""
    return lambda *values: literal.holds_for(dict(zip(pairs, values)))


def _unknown_expression(expression: Expression) -> ExpressionError:
    # neither EvaluationError nor TypeError: an unsupported node must not
    # become a constant verdict
    return ExpressionError(f"cannot compile {type(expression).__name__}: no code for this expression type")


def _height(expression: Expression) -> int:
    """Return how many operators deep ``expression`` nests."""
    if isinstance(expression, (AbsoluteValue, Negate)):
        return 1 + _height(expression.operand)
    if isinstance(expression, (Add, Subtract, Multiply, Divide)):
        return 1 + max(_height(expression.left), _height(expression.right))
    return 0


def _divides(expression: Expression) -> bool:
    """Return True when ``expression`` contains a ``Divide`` node."""
    if isinstance(expression, Divide):
        return True
    if isinstance(expression, (AbsoluteValue, Negate)):
        return _divides(expression.operand)
    if isinstance(expression, (Add, Subtract, Multiply)):
        return _divides(expression.left) or _divides(expression.right)
    return False


class _NotInteger(Exception):
    """A constant that is neither an ``int`` nor a ``Fraction`` rules the integer-ratio branch out."""


def _constant_ratio(expression: Expression) -> tuple[int, int]:
    """Fold a variable-free expression to ``(numerator, denominator > 0)``, or raise ``_NotInteger``."""
    value = expression.evaluate({})
    if type(value) is int:
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    raise _NotInteger


def _times(left: Optional[str], right: Optional[str]) -> Optional[str]:
    """The product of two factors, None standing for 1."""
    if left is None:
        return right
    if right is None:
        return left
    return f"({left} * {right})"


class _Module:
    """The source of one generated module and the namespace it runs in."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict = {"MISSING": MISSING, "EvaluationError": EvaluationError, "divide": _divide}

    def bind(self, prefix: str, value) -> str:
        """Return a new global name holding ``value``."""
        name = f"{prefix}{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def load(self, label: str) -> dict:
        """Compile the source once, register it in ``linecache``, run it; return its namespace."""
        source = "\n".join(self.lines) + "\n"
        digest = hashlib.blake2b(source.encode(), digest_size=6).hexdigest()
        filename = f"<repro/matching/compiled:{_UNSAFE.sub('_', label)[:48]}:{digest}>"
        code = compile(source, filename, "exec")
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        exec(code, self.namespace)
        return self.namespace


class _Function:
    """One generated function: the reads its literals share, and its body."""

    def __init__(self, module: _Module, header: str, env: str, slot_of, direct: bool) -> None:
        self.module, self.env, self.slot_of, self.direct = module, env, slot_of, direct
        self.lines = [header]
        self.reads: dict = {}  # (variable, attribute) -> local name
        self.slots: dict = {}  # slot -> local name
        self.present: set = set()  # locals a passed literal proved present
        self.temps = 0

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def finish(self) -> None:
        self.module.lines.extend(self.lines)
        self.module.lines.append("")

    def _read(self, variable: str, attribute) -> str:
        local = self.reads.get((variable, attribute))
        if local is not None:
            return local
        holder = self.env
        if not self.direct:
            slot = self.slot_of[variable]
            holder = self.slots.get(slot)
            if holder is None:
                holder = self.slots[slot] = f"s{slot}"
                self.emit(1, f"{holder} = {self.env}[{slot}]")
        key = repr(attribute) if type(attribute) is str else self.module.bind("A", attribute)
        local = self.reads[(variable, attribute)] = f"v{len(self.reads)}"
        self.emit(1, f"{local} = {holder}.get({key}, MISSING)")
        return local

    def _temp(self, expression: Optional[str], out: list) -> Optional[str]:
        """Bind a sub-result read more than once to a name (None, standing for 1, stays None)."""
        if expression is None or expression.isidentifier():
            return expression
        self.temps += 1
        name = f"t{self.temps}"
        out.append(f"{name} = {expression}")
        return name

    # ------------------------------------------------------------ expressions

    def _general(self, expression: Expression, out: Optional[list] = None) -> str:
        """The source of ``expression`` as ``evaluate`` computes it, in its order.

        With ``out``, every operation is bound to a name by a statement
        appended to ``out``, children first, so the order is kept and the
        source does not nest.
        """
        if not expression.variables():
            return self.module.bind("K", expression.evaluate({}))
        if isinstance(expression, TermExpression):
            return self.reads[(expression.term.variable, expression.term.attribute)]
        symbol = _ARITHMETIC.get(type(expression))
        if isinstance(expression, Divide):
            source = f"divide({self._general(expression.left, out)}, {self._general(expression.right, out)})"
        elif symbol is not None:
            source = f"({self._general(expression.left, out)} {symbol} {self._general(expression.right, out)})"
        elif isinstance(expression, AbsoluteValue):
            source = f"abs({self._general(expression.operand, out)})"
        elif isinstance(expression, Negate):
            source = f"(-{self._general(expression.operand, out)})"
        else:
            raise _unknown_expression(expression)
        return source if out is None else self._temp(source, out)

    def _ratio(self, expression: Expression, out: list, nonzero: list) -> tuple[str, Optional[str], bool]:
        """``expression`` over ints as ``(numerator, denominator or None for 1, denominator known > 0)``.

        Statements that bind shared sub-results go to ``out``; every
        divisor's numerator that must not be zero goes to ``nonzero``.
        """
        if not expression.variables():
            numerator, denominator = _constant_ratio(expression)
            return (
                self.module.bind("K", numerator),
                None if denominator == 1 else self.module.bind("K", denominator),
                True,
            )
        if isinstance(expression, TermExpression):
            return self.reads[(expression.term.variable, expression.term.attribute)], None, True
        if isinstance(expression, Negate):
            a, b, positive = self._ratio(expression.operand, out, nonzero)
            return f"(-{a})", b, positive
        if isinstance(expression, AbsoluteValue):
            a, b, positive = self._ratio(expression.operand, out, nonzero)
            if b is not None and not positive:
                b = self._temp(f"abs({b})", out)
            return f"abs({a})", b, True
        if not isinstance(expression, (Add, Subtract, Multiply, Divide)):
            raise _unknown_expression(expression)
        a, b, left_positive = self._ratio(expression.left, out, nonzero)
        if isinstance(expression, Divide) and not expression.right.variables():
            p, q = _constant_ratio(expression.right)
            if p != 0:
                # (a/b) / (p/q) = (a*q) / (b*p), the sign of p moved into q
                if p < 0:
                    p, q = -p, -q
                q_name = None if q == 1 else self.module.bind("K", q)
                p_name = None if p == 1 else self.module.bind("K", p)
                return _times(a, q_name), self._temp(_times(b, p_name), out), left_positive
        c, d, right_positive = self._ratio(expression.right, out, nonzero)
        if isinstance(expression, Divide):
            # (a/b) / (c/d) = (a*d) / (b*c), c != 0 of unknown sign
            c = self._temp(c, out)
            nonzero.append(c)
            return _times(a, d), self._temp(_times(b, c), out), False
        positive = left_positive and right_positive
        if isinstance(expression, Multiply):
            return _times(a, c), self._temp(_times(b, d), out), positive
        symbol = _ARITHMETIC[type(expression)]
        if b is None and d is None:
            return f"({a} {symbol} {c})", None, True
        return f"({_times(a, d)} {symbol} {_times(c, b)})", self._temp(_times(b, d), out), positive

    def _ratio_lines(self, literal: Literal) -> list[str]:
        """The integer-ratio branch of ``literal``, leaving the verdict in ``ok``; raises ``_NotInteger``."""
        out: list[str] = []
        nonzero: list[str] = []
        a, b, left_positive = self._ratio(literal.left, out, nonzero)
        c, d, right_positive = self._ratio(literal.right, out, nonzero)
        symbol = _SYMBOLS[literal.comparison]
        left, right = _times(a, d), _times(c, b)
        if literal.comparison in (Comparison.EQ, Comparison.NE) or (left_positive and right_positive):
            verdict = f"ok = {left} {symbol} {right}"
        else:
            # b*d may be negative: a/b - c/d has the sign of (a*d - c*b) * (b*d)
            verdict = f"ok = ({left} - {right}) * {_times(b, d)} {symbol} 0"
        if not nonzero:
            return out + [verdict]
        return out + [f"if {' or '.join(f'{name} == 0' for name in nonzero)}:", "    ok = False", "else:", "    " + verdict]

    # -------------------------------------------------------------- literals

    def literal(self, literal: Literal) -> None:
        """Emit the reads and the lines that leave ``literal``'s verdict in ``ok``."""
        pairs = tuple(sorted(literal.variables()))
        deep = max(_height(literal.left), _height(literal.right)) > _NESTING
        self.emit(1, f"# {'a literal nested deeper than ' + str(_NESTING) if deep else str(literal)!r}")
        values = [self._read(variable, attribute) for variable, attribute in pairs]
        arguments = ", ".join(values)
        steps: Optional[list] = [] if deep else None
        try:
            left = self._general(literal.left, steps)
            right = self._general(literal.right, steps)
        except _FOLD_ERRORS:
            # a constant subtree that cannot fold: whether holds_for returns
            # False or raises depends on what it evaluates first, so replay it
            general = [f"ok = {self.module.bind('R', _replay(literal, pairs))}({arguments})"]
        else:
            if not pairs:
                constants = self.module.namespace
                try:
                    verdict = bool(COMPARISON_OPS[literal.comparison](constants[left], constants[right]))
                except (EvaluationError, TypeError):
                    verdict = False
                self.emit(1, f"ok = {verdict}")
                return
            general = [
                "try:",
                *(f"    {step}" for step in steps or ()),
                f"    ok = {left} {_SYMBOLS[literal.comparison]} {right}",
                "except (EvaluationError, TypeError):",
                "    ok = False",
                "except Exception:",
                "    ok = None",
                "if ok is None:",
                f"    ok = {self.module.bind('R', _replay(literal, pairs))}({arguments})",
            ]
        ratio = None
        if len(general) > 1 and not deep and (_divides(literal.left) or _divides(literal.right)):
            try:
                ratio = self._ratio_lines(literal)
            except _NotInteger:
                pass
        unknown = [value for value in values if value not in self.present]
        missing = " or ".join(f"{value} is MISSING" for value in unknown)
        branches = []
        if ratio is not None:
            branches.append((f"if {' and '.join(f'type({value}) is int' for value in values)}:", ratio))
        if unknown:
            branches.append((f"{'elif' if branches else 'if'} {missing}:", ["ok = False"]))
        if branches:
            branches.append(("else:", general))
            for head, body in branches:
                self.emit(1, head)
                for line in body:
                    self.emit(2, line)
        else:
            for line in general:
                self.emit(1, line)

    def passed(self, literal: Literal) -> None:
        """Note that the code after this point runs only where ``literal`` held: its values are present."""
        self.present.update(self.reads[pair] for pair in literal.variables())


def compile_literal(literal: Literal, slot_of, direct: bool = False) -> Callable:
    """Compile ``literal`` into ``check(env) -> bool`` through the schedule generator.

    ``env`` is the slot list, or with ``direct`` one node's attribute
    mapping.  The check is True iff every referenced attribute is present,
    evaluation raises neither :class:`EvaluationError` nor ``TypeError``,
    and the comparison holds — ``literal.holds_for`` over the assignment of
    the bound nodes' attributes, its implicit completeness test included.
    """
    module = _Module()
    function = _Function(module, "def check(env):", "env", slot_of, direct)
    function.literal(literal)
    function.emit(1, "return ok")
    function.finish()
    return module.load("literal")["check"]


def compile_schedule(
    name: str,
    premise: Sequence[Literal],
    conclusion: Sequence[Literal],
    slot_of,
    steps: Sequence[tuple[Sequence[int], Sequence[int], bool]],
) -> tuple[tuple[Optional[Callable], ...], tuple[Optional[Callable], ...], Callable]:
    """Generate one rule's schedule for one order as one module, compiled once.

    ``steps[d]`` is ``(unary, checks, conclusion_bound)``: the premise
    indices that filter step ``d``'s candidates, those checked when it
    binds, and whether the single conclusion literal is checked then
    (a bound conclusion that holds prunes the branch).  Returns ``(admits,
    prunes, violates)``: per step ``admit(attrs, stats)`` (True keeps the
    candidate) or None, per step ``prune(slots, stats)`` (True prunes) or
    None, and the leaf ``violates(slots, stats)``, True when X holds and Y
    does not.
    """
    module = _Module()
    module.lines.append(f"# rule {name!r}")
    admits: list[Optional[str]] = []
    prunes: list[Optional[str]] = []
    for depth, (unary, checks, conclusion_bound) in enumerate(steps):
        admits.append(None)
        if unary:
            admits[-1] = f"admit_{depth}"
            function = _Function(module, f"def admit_{depth}(attrs, stats):", "attrs", slot_of, True)
            for reached, index in enumerate(unary, 1):
                function.literal(premise[index])
                _on_failure(function, reached, "False")
                function.passed(premise[index])
            function.emit(1, f"stats.literal_evaluations += {len(unary)}")
            function.emit(1, "return True")
            function.finish()
        prunes.append(None)
        if checks or conclusion_bound:
            prunes[-1] = f"prune_{depth}"
            function = _Function(module, f"def prune_{depth}(slots, stats):", "slots", slot_of, False)
            for reached, index in enumerate(checks, 1):
                function.literal(premise[index])
                _on_failure(function, reached, "True")
                function.passed(premise[index])
            total = len(checks) + conclusion_bound
            if conclusion_bound:
                function.literal(conclusion[0])
            function.emit(1, f"stats.literal_evaluations += {total}")
            function.emit(1, "return ok" if conclusion_bound else "return False")
            function.finish()
    function = _Function(module, "def violates(slots, stats):", "slots", slot_of, False)
    if premise or conclusion:
        function.emit(1, f"stats.literal_evaluations += {len(premise) + len(conclusion)}")
    for literal in premise:
        function.literal(literal)
        function.emit(1, "if not ok:")
        function.emit(2, "return False")
        function.passed(literal)
    for literal in conclusion:
        function.literal(literal)
        function.emit(1, "if not ok:")
        function.emit(2, "return True")
        function.passed(literal)
    function.emit(1, "return False")
    function.finish()
    namespace = module.load(name)
    return (
        tuple(None if function_name is None else namespace[function_name] for function_name in admits),
        tuple(None if function_name is None else namespace[function_name] for function_name in prunes),
        namespace["violates"],
    )


def _on_failure(function: _Function, reached: int, result: str) -> None:
    """Emit the exit of a literal that fails: bill the ``reached`` checks, return ``result``."""
    function.emit(1, "if not ok:")
    function.emit(2, f"stats.literal_evaluations += {reached}")
    function.emit(2, f"return {result}")
