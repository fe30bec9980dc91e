"""Generated search steps and drivers: the compiled evaluation layer.

The search core (:class:`~repro.matching.search.RuleSearch`) runs one
``(rule, order)`` schedule as generated straight-line Python
(:func:`compile_schedule`).  One emitter writes the text of a step
(:func:`_step`): step ``d`` of ``Matchn`` (Section 6.2) reads the
candidates, from the anchor's adjacency view (already in rank order), an
intersection of views or a label scan; tests each one's label, unary
literals and self-loops; fires the literals that its binding completes;
and keeps the candidate, or finishes the binding at the leaf; then bills
what it did.  That text is assembled two ways:

* **the step**, one function per step: ``expand_d(search, order)`` runs
  step ``d + 1`` of a frame that bound slot ``d``, pushes a frame per kept
  candidate and bills ``stats`` directly; ``seeds(store, stats)`` is all of
  step 0 — scan, tests and checks — and the only form step 0 has, which
  the batch kernels and the matcher seed the search with, since no search
  starts from an empty seed.  The simulator's work units and the matcher
  run these, one frame at a time;
* **the driver**, one generator per entry depth, generated on its first
  use (:attr:`~repro.matching.plan.Schedule.drivers`):
  ``drive(search, run, nodes, introduced, dedupe)`` runs the whole
  subtree of each of ``nodes`` bound at its slot as nested ``for`` loops,
  one level per step, and descends into each level's kept candidates last
  first, so it bills, finds and tests the budget in the order a stack of
  frames does.  A level sums its bills in the driver's locals and adds
  ``(scanned or 1) + kept`` to a local cost, and tests the budget after
  each step; a leaf level yields the violations it found through the
  run's ``emit``.  The sums go to ``stats`` and the cost to ``run.cost``
  before each emit, before each budget test (the cost) and on every exit,
  in a ``finally``, so a closed driver leaves exact counts.  A driver nests at most ``_LEVELS`` levels; a deeper
  pattern continues in the driver of the depth reached, entered with each
  level's kept candidates.  The serial kernels and the process workers
  run the drivers.

``prove(store, ids, stats)`` checks the literals of the steps a bound
prefix binds, which the update pivots are proven with.  In all of them:

* pattern variables map to *slot indices* in plan order, so a partial
  match is a flat list of attribute mappings (``slots[d]`` is the
  ``node.attributes`` of the variable bound at depth ``d``);
* each ``(slot, attribute)`` a function needs is read once, with
  ``.get(key, MISSING)`` — an earlier slot's once per step, out of the
  candidate loop — and shared by every literal the function checks;
* arithmetic is inline, constant subtrees are folded, and the comparison
  operator is written out; a literal nested deeper than ``_NESTING`` is
  written one operation per line, in the same order, because Python's
  parser refuses deeply nested source;
* a literal that divides gets an integer-ratio branch inline: when every
  value it reads is exactly an ``int``, each sub-expression is a
  ``(numerator, denominator)`` pair of ints and ``a/b ⊗ c/d`` is compared
  as ``a*d ⊗ c*b`` (with the sign of ``b*d`` where a divisor may be
  negative), so no :class:`fractions.Fraction` is built; any other value
  takes the general branch, which divides through ``Fraction`` as
  ``Divide.evaluate`` does.  A literal with a constant that is neither an
  ``int`` nor a ``Fraction`` has only the general branch.

**Three-way verdicts.**  A literal over a missing attribute is False.  A
literal whose evaluation raises :class:`~repro.errors.EvaluationError`
(a zero divisor) or ``TypeError`` (dirty data) is False.  Any other
exception (``Fraction('n/a')`` raises ``ValueError``) replays
``Literal.holds_for`` on the values read, outside the handler, so the
verdict or the exception is ``holds_for``'s own.  A constant subtree that
cannot fold makes every check of its literal replay ``holds_for``.
Evaluation keeps ``Expression.evaluate``'s order, so the first exception
raised is the same.

**Reads.**  A step reads the store through the reader its search bound
(``search.reader``, :meth:`~repro.graph.store.GraphStore.reader`):
``out[id].get(label, EMPTY)`` is an anchor's bucket, already in rank order,
and ``map(node_of, bucket)`` its nodes.  On a head these are the store's own
dicts, so a step costs no Python call to the store; a past version hands
out readers over its undo log.  All of a step's reads come before it bills
or keeps anything, and one test follows them, ``store._stamp is stamp``:
a clone since the binding (while the search was suspended, or in another
thread mid-step) lets the next head's writes into the maps just read, and a
write to a past version gives it maps of its own; either replaces the
store's stamp, so the step binds again
(:meth:`~repro.matching.search.RuleSearch.bind`) and reads again, the
version the store now is.  A driver holds the reader in locals from its
start and re-binds them there; ``seeds`` takes its reader from the store.

**Billing** is the search's: one ``candidates_examined`` per candidate
drawn, one ``literal_evaluations`` per check reached, the rejections by
reason.  A step counts in locals and bills once, after its loop: a step
function into the statistics, a driver level into the driver's sums.
Every seed is proven where it is made, so the one leaf
does not evaluate again what was checked on the way down — all of X, and
a one-literal Y, which pruned the branch where it held — and bills only
the literals of a longer Y that it reaches (``holds``).  Each literal is
billed once per binding that reaches it.

**Sharing.**  :mod:`repro.matching.plan` keeps each rule's generated
schedule in a process-wide table keyed by what the code is made of, and
each function's text is compiled once per process: labels, counter keys,
rule names, slots and constants are names in the function's own
namespace, never text, so steps of one shape share one ``compile()``.
Attribute keys enter the source only through ``repr()``, so no key, label
or value can become code.  Generated functions do not pickle; a ``spawn``
worker generates its schedules again.  Each text is compiled under a
filename ``<repro/matching/compiled:digest>`` registered in
:mod:`linecache`, so profiles attribute its time to this layer and
tracebacks show the generated line.  ``Literal.holds_for`` stays the
oracle: ``tests/test_compiled_eval.py`` holds the generated code to it.
"""

from __future__ import annotations

import functools
import hashlib
import linecache
from collections.abc import Mapping, Sequence
from fractions import Fraction
from types import CodeType
from typing import Callable, Optional

from repro.core.violations import Violation
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
from repro.graph.model import WILDCARD

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
#: The bucket of an edge label a node has none of.
EMPTY = ()

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


def _load(functions: Sequence["_Function"], shared: Optional[Mapping] = None) -> dict:
    """Compile each function's text (once per text in the process), run it; return the functions by name.

    A text holds no label, key or constant: those are names in the
    function's own namespace.  So functions alike but for them — steps of
    one shape, in one rule or in rules alike — share one ``compile()``.
    Every namespace then gets every function and ``shared``, so that they
    call each other by name.
    """
    made = dict(shared or {})
    for function in functions:
        exec(_compiled("\n".join(function.lines) + "\n"), function.namespace)
        made[function.name] = function.namespace.pop(function.kind)
    for function in functions:
        function.namespace.update(made)
    return made


#: How many compiled texts the process keeps; past it, the least recently used is dropped.
TEXTS_KEPT = 1024


@functools.lru_cache(maxsize=TEXTS_KEPT)
def _compiled(source: str) -> CodeType:
    """Compile ``source`` under a filename of its digest, registered in ``linecache``."""
    digest = hashlib.blake2b(source.encode(), digest_size=6).hexdigest()
    filename = f"<repro/matching/compiled:{digest}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return compile(source, filename, "exec")


class _Function:
    """One generated function: its namespace, the reads its literals share, and its body.

    A variable at slot ``current`` is read from the local ``attrs`` (one
    candidate's attributes), any other from ``env.format(slot)``.
    """

    def __init__(self, functions: list, name: str, parameters: str, slot_of, env: str = "slots[{}]", current=None, attrs: str = "attrs") -> None:
        self.name, self.slot_of, self.env, self.current, self.attrs = name, slot_of, env, current, attrs
        functions.append(self)
        # a step's text does not say which step it is, so that steps alike share it
        self.kind = name.split("_")[0]
        self.lines = [f"def {self.kind}({parameters}):"]
        self.namespace: dict = {
            "MISSING": MISSING,
            "EMPTY": EMPTY,
            "EvaluationError": EvaluationError,
            "divide": _divide,
            "Violation": Violation,
            "scan_pool": scan_pool,
            "intersect_pool": intersect_pool,
        }
        self.indent = 1  # the level literal code is written at
        self.reads: dict = {}  # (variable, attribute) -> local name
        self.slots: dict = {}  # slot -> local name
        self.present: set = set()  # locals a passed literal proved present
        self.temps = 0

    def level(self, depth: int) -> None:
        """Write step ``depth`` from here on: its candidate is ``attrs``, and no earlier step's read is reused."""
        self.current = depth
        self.reads, self.slots, self.present = {}, {}, set()

    def emit(self, depth: int, *lines: str) -> None:
        self.lines.extend("    " * (self.indent + depth - 1) + line for line in lines)

    def bind(self, prefix: str, value) -> str:
        """Return a new global name holding ``value``."""
        name = f"{prefix}{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def read(self, variable: str, attribute) -> str:
        """Return the local holding ``variable.attribute``, read here where it was not read before."""
        local = self.reads.get((variable, attribute))
        if local is not None:
            return local
        slot = self.slot_of[variable]
        holder = self.attrs if slot == self.current else self.slots.get(slot)
        if holder is None:
            holder = self.slots[slot] = f"s{slot}"
            self.emit(1, f"{holder} = {self.env.format(slot)}")
        key = repr(attribute) if type(attribute) is str else self.bind("A", attribute)
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
            return self.bind("K", expression.evaluate({}))
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
                self.bind("K", numerator),
                None if denominator == 1 else self.bind("K", denominator),
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
                q_name = None if q == 1 else self.bind("K", q)
                p_name = None if p == 1 else self.bind("K", p)
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

    def literal(self, literal: Literal, title: str) -> None:
        """Emit the reads and the lines that leave ``literal``'s verdict in ``ok``.

        ``title`` names the literal in a comment: its text would put its
        constants in the source, which two rules alike but for them share.
        """
        pairs = tuple(sorted(literal.variables()))
        deep = max(_height(literal.left), _height(literal.right)) > _NESTING
        self.emit(1, f"# {title}{', nested deeper than ' + str(_NESTING) if deep else ''}")
        values = [self.read(variable, attribute) for variable, attribute in pairs]
        arguments = ", ".join(values)
        steps: Optional[list] = [] if deep else None
        try:
            left = self._general(literal.left, steps)
            right = self._general(literal.right, steps)
        except _FOLD_ERRORS:
            # a constant subtree that cannot fold: whether holds_for returns
            # False or raises depends on what it evaluates first, so replay it
            general = [f"ok = {self.bind('R', _replay(literal, pairs))}({arguments})"]
        else:
            if not pairs:
                constants = self.namespace
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
                f"    ok = {self.bind('R', _replay(literal, pairs))}({arguments})",
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

    def check(self, literal: Literal, title: str, *failure: str) -> None:
        """Emit ``literal``, and ``failure`` where it does not hold; the code after runs where it held."""
        self.literal(literal, title)
        self.emit(1, "if not ok:")
        self.emit(2, *failure)
        self.passed(literal)

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
    functions: list = []
    if direct:
        slot_of = dict.fromkeys(slot_of, 0)
    function = _Function(functions, "check", "env", slot_of, "env[{}]", 0 if direct else None, "env")
    function.literal(literal, "the literal")
    function.emit(1, "return ok")
    return _load(functions)["check"]


def scan_pool(store, reader: tuple, label: str, out_labels: frozenset, in_labels: frozenset) -> tuple:
    """The nodes of ``label`` (every node for the wildcard) that cover the degree signature, and how many were scanned.

    Read through ``reader`` (``store.reader()``).
    """
    _, out, into, node_of = reader
    pool = store.all_node_ids() if label == WILDCARD else store.nodes_with_label(label)
    scanned = len(pool)
    # the index is the label's, so only the degree signature remains
    if out_labels:
        pool = [node_id for node_id in pool if out_labels <= out[node_id].keys()]
    if in_labels:
        pool = [node_id for node_id in pool if in_labels <= into[node_id].keys()]
    return list(map(node_of, pool)), scanned


def intersect_pool(reader: tuple, anchor_slots: tuple, ids) -> tuple:
    """The nodes in every anchor's bucket, in rank order, and the size of the smallest bucket, probed against the others."""
    _, out, into, node_of = reader
    views = [(out if forward else into)[ids[slot]].get(label, EMPTY) for slot, forward, label in anchor_slots]
    views.sort(key=len)  # stable: the first smallest view is the base
    base, others = views[0], views[1:]
    return [node_of(node_id) for node_id in base if all(node_id in view for view in others)], len(base)


#: A driver runs at most this many levels as nested loops; a deeper one
#: continues in the driver of the depth it reached.  CPython refuses a
#: function with more than 20 statically nested blocks (loops, ``try``
#: bodies and handlers), and a driver of L levels nests L + 4 at its
#: deepest: its ``try``, its entry loop, a descent loop per level past the
#: first, the last level's candidate loop and a literal's ``try`` and handler.
_LEVELS = 12


class _Drivers(dict):
    """A schedule's drivers by entry depth, each generated on its first use (:func:`compile_schedule`)."""

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, depth: int) -> Callable:
        driver = self[depth] = self.make(self, depth)
        return driver


def compile_schedule(
    name: str,
    variables: Sequence[str],
    premise: Sequence[Literal],
    conclusion: Sequence[Literal],
    slot_of,
    steps: Sequence[Mapping],
) -> tuple[tuple[Callable, ...], Optional[Callable], Callable, _Drivers]:
    """Generate one rule's schedule for one order: ``(expand, seeds, prove, drivers)`` of its :class:`~repro.matching.plan.Schedule`.

    ``steps[d]`` holds the :class:`~repro.matching.plan.PlanStep` fields of
    step ``d`` that do not depend on the statistics.  Step 0 is generated
    as ``seeds`` only: every search starts from a seed that binds it.  The
    drivers are generated on first use of each entry depth.
    """
    functions: list = []
    found = (name, tuple(variables), [slot_of[variable] for variable in variables])
    if steps:
        _step_function(functions, 0, steps[0], premise, conclusion, slot_of, found, seeds=True)
        for depth in range(1, len(steps)):
            _step_function(functions, depth, steps[depth], premise, conclusion, slot_of, found)
        # the leaf of a seed that bound every variable
        function = _Function(functions, f"expand_{len(steps)}", "search, order", slot_of)
        function.emit(1, "search.filtering, search.verification = 1, 0")
        if not conclusion:
            function.emit(1, "return []")  # an empty Y always holds
        elif len(conclusion) > 1:
            function.emit(1, "if holds(search.slots, search.stats):")
            function.emit(2, "return []")
        function.emit(1, "search.stats.matches_emitted += 1", "ids = search.ids", f"return [{_violation(function, found, None)}]")
    _prove(functions, steps, premise, conclusion, slot_of)
    if len(conclusion) > 1:
        # Y of more literals, which the leaf evaluates apart from X, one literal_evaluations per literal reached
        function = _Function(functions, "holds", "slots, stats", slot_of)
        for index, literal in enumerate(conclusion):
            function.emit(1, "stats.literal_evaluations += 1")
            function.check(literal, f"conclusion {index}", "return False")
        function.emit(1, "return True")
    made = _load(functions)
    shared = {"holds": made["holds"]} if "holds" in made else {}
    drivers = _Drivers(functools.partial(_driver, found, premise, conclusion, slot_of, steps, shared))
    return tuple(made[f"expand_{depth}"] for depth in range(1, len(steps) + 1)), made.get("seeds"), made["prove"], drivers


def _prove(functions: list, steps: Sequence[Mapping], premise, conclusion, slot_of) -> None:
    """Emit ``prove(store, ids, stats)``: True when no literal of the steps ``ids`` binds refuses the binding.

    The literals as the steps check them (a bound one-literal Y refuses where it holds), one
    ``literal_evaluations`` each; a node is read where a literal first needs it.
    """
    function = _Function(functions, "prove", "store, ids, stats", slot_of, "get_node(ids[{}]).attributes")
    function.emit(1, "get_node, bound = store.get_node, len(ids)")
    for depth, step in enumerate(steps):
        if depth:
            function.emit(1, f"if bound == {depth}:")
            function.emit(2, "return True")
        for index in step["unary_premise"] + step["premise_checks"]:
            function.emit(1, "stats.literal_evaluations += 1")
            function.check(premise[index], f"premise {index}", "return False")
        if step["check_conclusion"]:
            function.emit(1, "stats.literal_evaluations += 1")
            function.literal(conclusion[0], "conclusion 0")
            function.emit(1, "if ok:")
            function.emit(2, "return False")
    function.emit(1, "return True")


def _violation(function: _Function, found: tuple, depth: Optional[int]) -> str:
    """The source of the :class:`Violation` of the binding in ``ids``, the node of slot ``depth`` being ``node``."""
    name, variables, vector = found
    nodes = "".join(("node.id" if slot == depth else f"ids[{slot}]") + ", " for slot in vector)
    return f"Violation({function.bind('N', name)}, {function.bind('N', variables)}, ({nodes}))"


def _counters(step: Mapping, later: Sequence[str], evaluates: bool) -> list[str]:
    """The locals a step counts in: its rejections by reason, its checks, and ``later``."""
    counters = ["by_label"] if step["anchor_slots"] and step["label"] != WILDCARD else []
    counters += ["by_unary"] if step["unary_premise"] else []
    counters += ["evals"] if evaluates or step["unary_premise"] else []
    return counters + (["probes"] if step["self_loops"] else []) + list(later)


def _filter(function: _Function, step: Mapping, premise: Sequence[Literal]) -> None:
    """Emit, in the candidate loop, the tests that reject ``node``: label, unary literals, self-loops."""
    if step["anchor_slots"] and step["label"] != WILDCARD:
        function.emit(1, f"if node.label != {function.bind('L', step['label'])}:")
        function.emit(2, "by_label += 1", "continue")
    function.emit(1, "attrs = node.attributes")
    for reached, index in enumerate(step["unary_premise"], 1):
        function.check(premise[index], f"premise {index}", f"evals += {reached}", "by_unary += 1", "continue")
    if step["unary_premise"]:
        function.emit(1, f"evals += {len(step['unary_premise'])}")
    for loop_label in step["self_loops"]:
        # the one pattern edge no anchor covers: probe the candidate's loop
        function.emit(1, "probes += 1", f"if not store.has_edge_key((node.id, node.id, {function.bind('L', loop_label)})):")
        function.emit(2, "continue")


def _counts(function: _Function, step: Mapping, scanned: str, kept: str, label: Optional[str], unary: Optional[str]) -> list[str]:
    """The lines that add the ``scanned`` candidates to the step's count key, and what it did not keep to its rejections.

    What a scan's degree signature, the other anchors or a self-loop
    dropped (``scanned - kept`` less the other reasons) is rejected for an edge.
    """
    count = function.bind("L", step["count_key"])
    reasons = [(counter, key) for counter, key in zip((label, unary), step["reject_keys"]) if counter]
    lines = [
        f"if {scanned}:",
        "    extra = stats.extra",
        f"    extra[{count}] = extra.get({count}, 0) + {scanned}",
        f"    if {kept} != {scanned}:",
        f"        edge = {' - '.join([scanned, kept] + [counter for counter, _ in reasons])}",
    ]
    for counter, key in reasons + [("edge", step["reject_keys"][2])]:
        key = function.bind("L", key)
        lines += [f"        if {counter}:", f"            extra[{key}] = extra.get({key}, 0) + {counter}"]
    return lines


def _bill(function: _Function, depth: int, step: Mapping, counters: Sequence[str], mode: str) -> None:
    """Emit, after the candidate loop, the step's bills: into ``stats``, or a driver's sums and its ``cost``."""
    if mode == "driver":
        function.emit(1, f"n_scanned{depth} += scanned", f"n_kept{depth} += kept")
        for counter, total in _SUMS:
            if counter in counters:
                function.emit(1, f"{total}{depth if counter in _PER_LEVEL else ''} += {counter}")
        function.emit(1, "cost += (scanned or 1) + kept")
        return
    anchors = len(step["anchor_slots"])
    function.emit(1, "stats.candidates_examined += scanned")
    if anchors > 1:
        function.emit(1, f"stats.edge_checks += scanned * {anchors - 1}")
    for counter, total in (("evals", "literal_evaluations"), ("probes", "edge_checks")):
        if counter in counters:
            function.emit(1, f"stats.{total} += {counter}")
    if mode == "step":
        function.emit(1, f"stats.expansions += {'expanded' if 'expanded' in counters else 'kept'}")
        if "matches" in counters:
            function.emit(1, "stats.matches_emitted += matches")
    function.emit(1, *_counts(function, step, "scanned", "kept", *(c if c in counters else None for c in ("by_label", "by_unary"))))


#: A step's counter -> the driver's local it is summed in; the per-level ones end in the level's depth.
_SUMS = (
    ("by_label", "n_label"),
    ("by_unary", "n_unary"),
    ("expanded", "n_expanded"),
    ("evals", "n_evals"),
    ("probes", "n_probes"),
    ("matches", "n_matches"),
)
_PER_LEVEL = ("by_label", "by_unary", "expanded")


def _pool(function: _Function, step: Mapping, mode: str) -> None:
    """Emit the read of the step's candidate nodes into ``pool``, and ``scanned``.

    The reads go through the search's reader (``seeds``: the store's),
    then ``store._stamp`` is tested once: where it is not the reader's, the
    maps read may be another version's now (a node the head then removed
    raises ``KeyError``), and the step binds again and reads again: it has
    billed and pushed nothing yet.  A driver holds its reader in locals
    from its start, and each level reads through them.
    """
    anchors = step["anchor_slots"]
    if len(anchors) == 1:
        (slot, forward, edge_label), = anchors
        read = f"pool = list(map(node_of, {'out' if forward else 'into'}[ids[{function.bind('K', slot)}]].get({function.bind('L', edge_label)}, EMPTY)))"
    elif anchors:
        read = f"pool, scanned = intersect_pool(reader, {function.bind('K', anchors)}, ids)"
    else:
        arguments = ", ".join(function.bind("K", step[field]) for field in ("label", "out_labels", "in_labels"))
        read = f"pool, scanned = scan_pool(store, reader, {arguments})"
    rebind = "reader = store.reader()" if mode == "seeds" else "reader = search.reader"
    if mode != "driver":
        function.emit(1, f"stamp, out, into, node_of = {rebind}")
    function.emit(1, "while True:")
    function.emit(2, "try:")
    function.emit(3, read)
    function.emit(2, "except LookupError:")
    function.emit(3, "if store._stamp is stamp:")
    function.emit(4, "raise")
    function.emit(2, "else:")
    function.emit(3, "if store._stamp is stamp:")
    function.emit(4, "break")
    function.emit(2, *([] if mode == "seeds" else ["search.bind(store)"]), f"stamp, out, into, node_of = {rebind}")
    if len(anchors) == 1:
        function.emit(1, "scanned = len(pool)")


def _step(function: _Function, depth: int, step: Mapping, premise, conclusion, slot_of, found: tuple, mode: str, leaf: bool) -> list[str]:
    """Emit step ``depth``: read the pool, filter and check each candidate, keep (or finish) it, bill the step.

    The one emitter of a step's text, for every assembly: ``mode``
    ``"seeds"`` keeps the nodes that pass (step 0), ``"step"`` pushes a
    frame per node, ``"driver"`` collects them in ``kept_nodes`` for its
    next level.  A ``leaf`` step finishes each binding instead.  Returns
    the step's counters.
    """
    checks, checked = step["premise_checks"], step["check_conclusion"]
    literals = [premise[index] for index in checks] + ([conclusion[0]] if checked else [])
    earlier = [pair for literal in literals for pair in sorted(literal.variables()) if slot_of[pair[0]] != depth]
    if mode == "step":
        reads = (["ids"] if step["anchor_slots"] or leaf else []) + (["slots"] if leaf or earlier else [])
        function.emit(1, f"{', '.join(reads + ['stats', 'store'])} = {', '.join(f'search.{name}' for name in reads + ['stats', 'store'])}")
    _pool(function, step, mode)
    # without checks, a step expands what it keeps
    later = ["kept"] + (["expanded"] if literals and mode != "seeds" else []) + (["matches"] if leaf else [])
    counters = _counters(step, later, bool(literals))
    keep = "found = []" if leaf else {"seeds": "nodes = []", "step": "push = search.stack.append", "driver": "kept_nodes = []"}[mode]
    function.emit(1, keep, f"{' = '.join(counters)} = 0")
    # an earlier slot's attributes are read once per step, out of the candidate loop
    for variable, attribute in earlier:
        function.read(variable, attribute)
    function.emit(1, "for node in pool:")
    function.indent += 1
    _filter(function, step, premise)
    function.emit(1, "kept += 1")
    for reached, index in enumerate(checks, 1):
        function.check(premise[index], f"premise {index}", f"evals += {reached}", "continue")
    if checked:
        # a bound conclusion that holds cannot become a violation
        function.literal(conclusion[0], "conclusion 0")
    if literals:
        function.emit(1, f"evals += {len(literals)}")
    if checked:
        function.emit(1, "if ok:")
        function.emit(2, "continue")
    if "expanded" in counters:
        function.emit(1, "expanded += 1")
    if leaf:
        _leaf(function, depth, conclusion, found)
    elif mode == "seeds":
        function.emit(1, "nodes.append(node)")
    elif mode == "step":
        function.emit(1, f"push(({function.bind('K', depth)}, node.id, attrs, order))")
    else:
        function.emit(1, "kept_nodes.append(node)")
    function.indent -= 1
    _bill(function, depth, step, counters, mode)
    return counters


def _step_function(functions: list, depth: int, step: Mapping, premise, conclusion, slot_of, found: tuple, seeds: bool = False) -> None:
    """Emit ``expand_<depth>(search, order)``, which runs step ``depth`` of a frame, or with ``seeds`` step 0 as ``seeds(store, stats)``.

    ``seeds`` returns the nodes that pass and the scan's size; a step
    pushes its frames, or returns the violations it finished.
    """
    leaf = not seeds and depth + 1 == len(slot_of)
    if seeds:
        function = _Function(functions, "seeds", "store, stats", slot_of, current=depth)
        _step(function, depth, step, premise, conclusion, slot_of, found, "seeds", False)
        function.emit(1, "return nodes, scanned")
        return
    function = _Function(functions, f"expand_{depth}", "search, order", slot_of, current=depth)
    _step(function, depth, step, premise, conclusion, slot_of, found, "step", leaf)
    function.emit(1, "search.filtering, search.verification = scanned, kept", "return found" if leaf else "return []")


def _driver(found: tuple, premise, conclusion, slot_of, steps: Sequence[Mapping], shared: Mapping, drivers: _Drivers, entry: int) -> Callable:
    """Generate ``drive(search, run, nodes, introduced, dedupe)``: the subtree of each of ``nodes`` bound at slot ``entry``, as nested loops.

    Each level is step ``d`` as :func:`_step` writes it, kept nodes
    gathered, then billed: its sums stay in locals and ``cost += (scanned
    or 1) + kept``, and the budget is tested; then it descends into the
    kept nodes last first, so the order of the bills, the violations and
    the budget tests is that of a stack of frames.  A leaf level emits the
    violations it found through ``run.emit(found, introduced, dedupe)``.
    The sums and the cost go to ``stats`` and ``run.cost`` before each
    emit, each budget test (the cost) and every exit.  Past ``_LEVELS``
    levels the driver of the depth reached takes each level's kept nodes.
    Returns True where the budget stopped it.
    """
    functions: list = []
    last = len(steps) - 1
    deepest = min(last, entry + _LEVELS)
    # the leaf of a seed that bound every variable counts its matches in the driver's own sum
    seed_leaf = entry == last and bool(conclusion)
    function = _Function(functions, f"drive_{entry}", "search, run, nodes, introduced, dedupe", slot_of)
    settle: list = []
    levels: list = []  # (depth, step, counters) of each level this driver runs

    def budget_test() -> None:
        function.emit(1, "if budget is not None:")
        function.emit(2, "run.cost = cost", "if run.cost_exhausted():")
        function.emit(3, "return True")

    def bills() -> list[str]:
        # every level is written by the first yield: settle once, at every exit alike
        if not settle:
            settle.extend(_settle(function, levels, seed_leaf))
        return settle

    function.indent = 2
    function.emit(1, f"for node in {'nodes' if entry == last else 'reversed(nodes)'}:")
    function.indent = 3
    slot = function.bind("K", entry)
    function.emit(1, f"ids[{slot}] = node.id", f"slots[{slot}] = node.attributes")
    if entry == last:
        # the leaf of a seed that bound every variable
        function.emit(1, "cost += 1")
        if conclusion:
            if len(conclusion) > 1:
                function.emit(1, "if not holds(slots, stats):")
                function.indent += 1
            function.emit(1, "n_matches += 1", *bills(), f"if (yield from run.emit([{_violation(function, found, None)}], introduced, dedupe)):")
            function.emit(2, "return True")
            function.indent = 3
        budget_test()
    for depth in range(entry + 1, deepest + 1):
        function.level(depth)
        levels.append((depth, steps[depth], _step(function, depth, steps[depth], premise, conclusion, slot_of, found, "driver", depth == last)))
        if depth == last:
            function.emit(1, "if found:")
            function.emit(2, *bills(), "if (yield from run.emit(found, introduced, dedupe)):")
            function.emit(3, "return True")
        budget_test()
        if depth == last:
            break
        if depth == deepest:
            # the levels past this driver's: the next one takes these nodes, its sums its own
            function.emit(1, *bills(), "try:")
            function.emit(2, f"stopped = yield from {function.bind('D', drivers)}[{function.bind('K', depth)}](search, run, kept_nodes, introduced, dedupe)")
            function.emit(1, "finally:")
            function.emit(2, "cost = run.cost")
            function.emit(1, "if stopped:")
            function.emit(2, "return True")
            break
        function.emit(1, "for node in reversed(kept_nodes):")
        function.indent += 1
        slot = function.bind("K", depth)
        function.emit(1, f"ids[{slot}] = node.id", f"slots[{slot}] = node.attributes")
    function.indent = 1
    function.emit(1, "finally:")
    function.emit(2, *bills())
    sums = _sums(levels, seed_leaf)
    function.lines[1:1] = [
        "    " + line
        for line in (
            # the leaf of a seed that bound every variable reads no store
            *(["ids, slots, stats = search.ids, search.slots, search.stats"] if entry == last else [
                "ids, slots, stats, store = search.ids, search.slots, search.stats, search.store",
                "stamp, out, into, node_of = reader = search.reader",
            ]),
            "budget, cost = run.budget, run.cost",
            *([f"{' = '.join(sums)} = 0"] if sums else []),
            "try:",
        )
    ]
    return _load(functions, shared)[function.name]


def _sums(levels: Sequence[tuple], matches: bool) -> list[str]:
    """The locals a driver sums its levels' bills in, and ``n_matches`` where ``matches``."""
    sums = []
    for depth, _, counters in levels:
        sums += [f"n_scanned{depth}", f"n_kept{depth}"]
        sums += [f"{total}{depth}" for counter, total in _SUMS if counter in _PER_LEVEL and counter in counters]
    return sums + [
        total
        for counter, total in _SUMS
        if counter not in _PER_LEVEL and (any(counter in counters for *_, counters in levels) or (counter == "matches" and matches))
    ]


def _settle(function: _Function, levels: Sequence[tuple], matches: bool) -> list[str]:
    """The lines that add a driver's sums to ``stats`` and its cost to ``run.cost``, and zero the sums."""
    lines = []
    if levels:
        lines.append("stats.candidates_examined += " + " + ".join(f"n_scanned{depth}" for depth, *_ in levels))
        lines.append(
            "stats.expansions += "
            + " + ".join(f"n_expanded{depth}" if "expanded" in counters else f"n_kept{depth}" for depth, _, counters in levels)
        )
        edges = ["n_probes"] if any("probes" in counters for *_, counters in levels) else []
        edges += [f"n_scanned{depth} * {len(step['anchor_slots']) - 1}" for depth, step, _ in levels if len(step["anchor_slots"]) > 1]
        if edges:
            lines.append("stats.edge_checks += " + " + ".join(edges))
        if any("evals" in counters for *_, counters in levels):
            lines.append("stats.literal_evaluations += n_evals")
    sums = _sums(levels, matches)
    if "n_matches" in sums:
        lines.append("stats.matches_emitted += n_matches")
    for depth, step, counters in levels:
        label, unary = (f"{total}{depth}" if counter in counters else None for counter, total in _SUMS[:2])
        lines += _counts(function, step, f"n_scanned{depth}", f"n_kept{depth}", label, unary)
    lines.append("run.cost = cost")
    if sums:
        lines.append(f"{' = '.join(sums)} = 0")
    return lines


def _leaf(function: _Function, depth: int, conclusion, found: tuple) -> None:
    """Emit what a last step does with a binding that passed its checks: keep it where Y does not hold.

    The steps checked X and a one-literal Y, so only a Y of more literals is
    evaluated here (``holds``, which bills the literals it reaches).
    """
    if not conclusion:
        function.emit(1, "continue")  # an empty Y always holds
    elif len(conclusion) > 1:
        function.emit(1, f"slots[{depth}] = attrs", "if holds(slots, stats):")
        function.emit(2, "continue")
    function.emit(1, "matches += 1", f"found.append({_violation(function, found, depth)})")
