"""Compiled rule kernels: generated schedules against their oracles.

Four layers are covered:

* literal-level parity — a seeded random generator produces arithmetic
  expression shapes (nested ops, division, absolute value, constants),
  graphs with missing attributes, non-numeric values and tuple node ids;
  the generated check's verdict must equal ``Literal.holds_for`` on every
  sample, in both the slot-based and the ``direct`` (unary-filter) modes;
  a second generator, of literals that divide, mixes floats (nan and inf
  among them), bools, ints beyond 2**53, ``Fraction`` values and float
  constants, so the integer-ratio branch hands over to the general one
  with the same verdict or exception type;
* step-level parity — the generated seed scan, a step's checks and the
  leaf (kept, re-checked or proven on the way down), over one to four
  literals each, give ``holds_for`` applied in order, with the
  short-circuit ``literal_evaluations`` bill, on mixed-type values and
  constants that cannot fold; hostile attribute keys, labels and rule
  names stay data;
* end-to-end — on a literal-heavy workload with dirty attributes, the
  violations equal the naive reference, and ``ViolationSet``\\ s and
  ``MatchStatistics`` are identical on both store layouts, serial and
  multi-process execution, and for plans rebuilt from their document (as
  spawn workers recompile schedules from the shipped plan document);
* machinery — ``MatchPlan`` and rules stay picklable after compiling
  schedules (generated code is excluded from their state), and the
  generated source is attributed to ``repro/matching/compiled``.
"""

from __future__ import annotations

import gc
import linecache
import math
import pickle
import random
import re
import traceback
from fractions import Fraction
from types import SimpleNamespace

import pytest

import naive_reference
from repro.core.ngd import NGD, RuleSet
from repro.detect import DetectionOptions, Detector
from repro.errors import EvaluationError, ExpressionError
from repro.expr.expressions import (
    AbsoluteValue,
    Add,
    Divide,
    Expression,
    Multiply,
    Negate,
    Subtract,
    const,
    var,
)
from repro.expr.literals import COMPARISON_OPS, Comparison, Literal, LiteralSet
from repro.expr.parser import parse_literal
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, EdgeDeletion, EdgeInsertion, apply_update
from repro.matching.candidates import MatchStatistics
from repro.matching.compiled import compile_literal, compile_schedule, resolve_compiled
from repro.matching.plan import (
    GraphStatistics,
    MatchPlan,
    Schedule,
    compile_plans,
    first_step_candidates,
)

from engines import new_store



# ------------------------------------------------------------ literal parity


def _random_expression(rng: random.Random, variables: list[str], depth: int):
    """A random arithmetic expression over ``variables`` (attrs a0..a2)."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.35:
            return const(rng.choice([0, 1, 2, 3, 7, -5, 100]))
        return var(rng.choice(variables), f"a{rng.randrange(3)}")
    shape = rng.randrange(6)
    left = _random_expression(rng, variables, depth - 1)
    right = _random_expression(rng, variables, depth - 1)
    if shape == 0:
        return Add(left, right)
    if shape == 1:
        return Subtract(left, right)
    if shape == 2:
        return Multiply(left, right)
    if shape == 3:
        return Divide(left, right)
    if shape == 4:
        return AbsoluteValue(left)
    return Negate(left)


def _random_attrs(rng: random.Random) -> dict:
    attrs = {}
    for name in ("a0", "a1", "a2"):
        roll = rng.random()
        if roll < 0.25:
            continue  # missing attribute
        if roll < 0.35:
            attrs[name] = rng.choice(["text", None, [1]])  # non-numeric
        elif roll < 0.5:
            attrs[name] = 0  # division-by-zero bait
        else:
            attrs[name] = rng.randint(-20, 20)
    return attrs


def _outcome(thunk):
    """Verdict or raised-exception type, so "both crash the same way" counts
    as parity (e.g. ``Fraction('text')`` raises ValueError on both paths)."""
    try:
        return ("ok", thunk())
    except Exception as error:  # noqa: BLE001 - parity on exception *type*
        return ("raise", type(error))


def test_randomized_literal_parity_slot_mode():
    rng = random.Random(0xC0DE)
    variables = ["x", "y", "z"]
    slot_of = {"x": 0, "y": 1, "z": 2}
    checked = 0
    for _ in range(400):
        literal = Literal(
            _random_expression(rng, variables, rng.randrange(4)),
            rng.choice(list(Comparison)),
            _random_expression(rng, variables, rng.randrange(4)),
        )
        try:
            check = compile_literal(literal, slot_of)
        except Exception:
            pytest.fail(f"compile_literal raised for {literal}")
        for _ in range(5):
            slots = [_random_attrs(rng) for _ in variables]
            assignment = {
                (variable, key): value
                for variable, slot in slot_of.items()
                for key, value in slots[slot].items()
                if (variable, key) in literal.variables()
            }
            complete = len(assignment) == len(literal.variables())
            expected = _outcome(lambda: complete and literal.holds_for(assignment))
            got = _outcome(lambda: check(slots))
            assert got == expected, (literal, slots)
            checked += 1
    assert checked == 2000


def test_randomized_literal_parity_direct_mode():
    rng = random.Random(0xD00D)
    checked = 0
    for _ in range(300):
        literal = Literal(
            _random_expression(rng, ["x"], rng.randrange(3)),
            rng.choice(list(Comparison)),
            _random_expression(rng, ["x"], rng.randrange(3)),
        )
        check = compile_literal(literal, {"x": 0}, direct=True)
        for _ in range(4):
            attrs = _random_attrs(rng)
            assignment = {
                pair: attrs[pair[1]] for pair in literal.variables() if pair[1] in attrs
            }
            complete = len(assignment) == len(literal.variables())
            expected = _outcome(lambda: complete and literal.holds_for(assignment))
            got = _outcome(lambda: check(attrs))
            assert got == expected, (literal, attrs)
            checked += 1
    assert checked == 1200


#: Values of every type a property can hold side by side: floats that are
#: exact, signed, not a number or infinite, bools, ints a float cannot
#: hold, fractions, dirty values, and small ints (zero included).
_MIXED_VALUES = (
    0.5, -0.0, 0.1, -2.5, math.nan, math.inf, -math.inf,
    True, False,
    2**53 + 1, -(2**60) + 3, 10**40,
    Fraction(1, 3), Fraction(-7, 2),
    "text", None,
    0, 1, -1, 2, -3, 7,
)
_MIXED_CONSTANTS = (0, 1, 2, -3, 7, 0.5, -0.0, 2.5, math.nan, math.inf, Fraction(2, 3))


def _mixed_expression(rng: random.Random, variables: list[str], depth: int):
    """A random expression over attrs b0..b2 that divides half the time."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return const(rng.choice(_MIXED_CONSTANTS))
        return var(rng.choice(variables), f"b{rng.randrange(3)}")
    left = _mixed_expression(rng, variables, depth - 1)
    right = _mixed_expression(rng, variables, depth - 1)
    shape = rng.randrange(8)
    if shape < 4:
        return Divide(left, right)
    if shape == 4:
        return Add(left, right)
    if shape == 5:
        return Subtract(left, right)
    if shape == 6:
        return Multiply(left, right)
    return AbsoluteValue(left) if rng.random() < 0.5 else Negate(left)


def _mixed_attrs(rng: random.Random) -> dict:
    attrs = {}
    for name in ("b0", "b1", "b2"):
        roll = rng.random()
        if roll < 0.1:
            continue  # missing attribute
        if roll < 0.55:
            attrs[name] = rng.choice(_MIXED_VALUES)
        else:
            attrs[name] = rng.randint(-9, 9)  # the ratio path's own inputs
    return attrs


@pytest.mark.parametrize("direct", (False, True), ids=("slot", "direct"))
def test_randomized_mixed_type_parity(direct):
    # every literal divides on at least one side, so it compiles to the
    # integer-ratio check; every value of another type must reach the
    # verdict, or the exception type, that holds_for gives
    rng = random.Random(0x5EED41 + direct)
    variables = ["x"] if direct else ["x", "y"]
    slot_of = {variable: index for index, variable in enumerate(variables)}
    checked = 0
    for _ in range(500):
        left = Divide(
            _mixed_expression(rng, variables, rng.randrange(3)),
            _mixed_expression(rng, variables, rng.randrange(3)),
        )
        right = _mixed_expression(rng, variables, rng.randrange(3))
        if rng.random() < 0.5:
            left, right = right, left
        literal = Literal(left, rng.choice(list(Comparison)), right)
        check = compile_literal(literal, slot_of, direct=direct)
        for _ in range(6):
            slots = [_mixed_attrs(rng) for _ in variables]
            assignment = {
                (variable, key): value
                for variable, slot in slot_of.items()
                for key, value in slots[slot].items()
                if (variable, key) in literal.variables()
            }
            complete = len(assignment) == len(literal.variables())
            expected = _outcome(lambda: complete and literal.holds_for(assignment))
            got = _outcome(lambda: check(slots[0] if direct else slots))
            assert got == expected, (literal, slots)
            checked += 1
    assert checked == 3000


# ------------------------------------------------------------- step parity


#: Values a step reads: the mixed types above, numeric strings and the
#: missing-value stand-ins dirty property graphs carry.
_STEP_VALUES = _MIXED_VALUES + ("n/a", "7")
#: Constant subtrees that cannot fold: the literal replays holds_for on every check.
_UNFOLDABLE = (
    Divide(const(1), const(0)),
    Divide(const(2), const(math.inf)),
    Divide(const(math.nan), const(3)),
)


def _step_expression(rng: random.Random, variables: list[str], depth: int):
    if rng.random() < 0.04:
        return rng.choice(_UNFOLDABLE)
    return _mixed_expression(rng, variables, depth)


def _step_literal(rng: random.Random, variables: list[str]) -> Literal:
    left = _step_expression(rng, variables, rng.randrange(3))
    if rng.random() < 0.4:
        # one that holds wherever it evaluates, so later checks are reached
        return Literal(left, Comparison.NE, const(10**6))
    return Literal(left, rng.choice(list(Comparison)), _step_expression(rng, variables, rng.randrange(3)))


def _step_attrs(rng: random.Random) -> dict:
    attrs = {}
    for name in ("b0", "b1", "b2"):
        roll = rng.random()
        if roll < 0.12:
            continue  # missing attribute
        if roll < 0.6:
            attrs[name] = rng.choice(_STEP_VALUES)
        else:
            attrs[name] = rng.randint(-3, 3)  # zero divisors among them
    return attrs


def _reference_holds(literal: Literal, slots: list, slot_of: dict) -> bool:
    """``holds_for`` over the bound attributes, False on an incomplete assignment."""
    assignment = {}
    for variable, attribute in literal.variables():
        attrs = slots[slot_of[variable]]
        if attribute not in attrs:
            return False
        assignment[(variable, attribute)] = attrs[attribute]
    return literal.holds_for(assignment)


def _reference_scan(literals, holds, stop_on: bool, stopped, finished) -> tuple:
    """Check ``literals`` in order up to the first verdict ``stop_on``; return (outcome, checks reached)."""
    reached = 0
    try:
        for literal in literals:
            reached += 1
            if bool(holds(literal)) is stop_on:
                return ("ok", stopped), reached
    except Exception as error:  # noqa: BLE001 - parity on exception *type*
        return ("raise", type(error)), reached
    return ("ok", finished), reached


def _bill(expected: tuple, reached: int) -> tuple:
    return expected, None if expected[0] == "raise" else reached


def _step_fields(anchor_slots: tuple, unary=(), checks=(), conclusion=False, out_labels=frozenset()) -> dict:
    """The fields ``compile_schedule`` generates a step from, for a step over ``item`` nodes."""
    keys = tuple(f"r\x1fparity\x1f{len(anchor_slots)}\x1f{reason}" for reason in ("label", "unary", "edge"))
    return dict(
        label="item", anchor_slots=anchor_slots, self_loops=(), out_labels=out_labels, in_labels=frozenset(),
        unary_premise=tuple(unary), premise_checks=tuple(checks), check_conclusion=conclusion,
        count_key=f"c\x1fparity\x1f{len(anchor_slots)}", reject_keys=keys,
    )  # fmt: skip


def _step_run(thunk) -> tuple:
    """(outcome, literal_evaluations billed) of ``thunk(stats)``; a raise ends the run, so its bill is not compared."""
    stats = MatchStatistics()
    outcome = _outcome(lambda: thunk(stats))
    return outcome, None if outcome[0] == "raise" else stats.literal_evaluations


def _expanded(expand, graph, slots):
    """Run the generated step 1 over ``y`` with ``x`` bound; return True where the leaf keeps the binding."""

    def run(stats):
        search = SimpleNamespace(
            ids=["x", None], slots=[slots[0], None], stats=stats, store=graph.store, reader=graph.store.reader(), stack=[]
        )
        found = expand[0](search, ("x", "y"))
        return bool(found)

    return run


def _seeded_leaf(expand, prove, graph, slots):
    """Prove the binding of both variables, then run the leaf of a seed that bound them; True where it keeps it."""

    def run(stats):
        if not prove(graph.store, ["x", "y"], stats):
            return False
        search = SimpleNamespace(ids=["x", "y"], slots=list(slots), stats=stats)
        return bool(expand[1](search, ("x", "y")))

    return run


@pytest.mark.parametrize("seed", range(3))
def test_generated_steps_keep_the_literal_semantics(seed):
    # the seed scan's unary literals, a step's checks, the proof of a bound
    # prefix and the leaf of generated steps of one to four literals: the
    # verdict of holds_for applied in order (its exception where it
    # raises), and one literal_evaluations per check reached, each literal
    # billed once per binding
    rng = random.Random(0x57E9 + seed)
    slot_of = {"x": 0, "y": 1}
    checked = 0
    for _ in range(120):
        unary = [_step_literal(rng, ["x"]) for _ in range(rng.randint(1, 4))]
        checks = [_step_literal(rng, ["x", "y"]) for _ in range(rng.randint(1, 4))]
        conclusion = [_step_literal(rng, ["x", "y"]) for _ in range(rng.choice((1, 1, 2)))]
        # a one-literal Y is checked where it is bound, as the planner schedules it
        bound = len(conclusion) == 1
        premise = unary + checks
        steps = [
            _step_fields((), unary=range(len(unary)), out_labels=frozenset({"e"})),
            _step_fields(((0, True, "e"),), checks=range(len(unary), len(premise)), conclusion=bound),
        ]
        expand, seeds, prove, _ = compile_schedule("parity", ("x", "y"), premise, conclusion, slot_of, steps)
        for _ in range(5):
            slots = [_step_attrs(rng), _step_attrs(rng)]
            graph = Graph(name="step")
            graph.add_node("x", "item", slots[0])
            graph.add_node("y", "item", slots[1])
            graph.add_edge("x", "y", "e")
            holds = lambda literal: _reference_holds(literal, slots, slot_of)  # noqa: E731

            # y lacks the out edge the scan asks for; x passes where its unary literals hold
            expected = _bill(*_reference_scan(unary, holds, False, False, True))
            assert _step_run(lambda stats: [node.id for node in seeds(graph.store, stats)[0]] == ["x"]) == expected
            # a prefix that binds x alone is proven against step 0's literals, as the scan tests x
            assert _step_run(lambda stats: prove(graph.store, ["x"], stats)) == expected

            pruned, reached = _reference_scan(checks, holds, False, True, False)
            if bound and pruned == ("ok", False):
                pruned, more = _reference_scan(conclusion, holds, True, True, False)
                reached += more
            kept = ("ok", not pruned[1]) if pruned[0] == "ok" else pruned

            # a prefix that binds both: X in order, then a bound one-literal Y, which refuses it where it holds
            proof, proof_reached = _reference_scan(premise, holds, False, False, True)
            if bound and proof == ("ok", True):
                proof, more = _reference_scan(conclusion, holds, True, False, True)
                proof_reached += more
            assert _step_run(lambda stats: prove(graph.store, ["x", "y"], stats)) == _bill(proof, proof_reached), (premise, conclusion, slots)

            # the steps proved X on the way down, and a one-literal Y failed when bound: only a longer Y is
            # left, billed as far as the leaf evaluates it
            longer = _reference_scan(conclusion, holds, False, True, False)
            proven, rest = (("ok", True), 0) if bound else longer
            if kept != ("ok", True):
                proven, rest = kept, 0
            assert _step_run(_expanded(expand, graph, slots)) == _bill(proven, reached + rest)
            # a seed that binds both goes straight to the leaf once proven: X → Y as holds_for decides it
            leaf, _ = _reference_scan(premise, holds, False, False, None)
            if leaf == ("ok", None):
                leaf, _ = _reference_scan(conclusion, holds, False, True, False)
            rest = longer[1] if proof == ("ok", True) and not bound else 0
            assert _step_run(_seeded_leaf(expand, prove, graph, slots)) == _bill(leaf, proof_reached + rest)
            checked += 1
    assert checked == 600


#: An attribute key that would be code if it reached the source as text.
_HOSTILE_KEY = "it's \"quoted\"\n__import__('os').system('exit 3')  # "


def _generated_lines(function) -> list[str]:
    return linecache.getlines(function.__code__.co_filename)


def test_a_hostile_attribute_key_is_read_literally():
    literal = Literal(Add(var("x", _HOSTILE_KEY), const(12345)), Comparison.GT, const(12350))
    for direct, env in ((False, [{_HOSTILE_KEY: 6}]), (True, {_HOSTILE_KEY: 6})):
        check = compile_literal(literal, {"x": 0}, direct=direct)
        assert check(env) is True
        assert check([{_HOSTILE_KEY: 5}] if not direct else {_HOSTILE_KEY: 5}) is False
        # the key's text without its exact spelling is another key
        assert check([{"it's": 6}] if not direct else {"it's": 6}) is False
        code = [line for line in _generated_lines(check) if not line.lstrip().startswith("#")]
        assert any(repr(_HOSTILE_KEY) in line for line in code)
        assert not any(line.lstrip().startswith("__import__") for line in code)
        # constants reach the code through the namespace, never as text
        assert not any("12345" in line or "12350" in line for line in code)

    # the same through the generated steps of a rule whose name, node
    # label and edge label are hostile too: the key reaches a step's source
    # through repr(), the names and labels only through its namespace
    label, edge = "item')\n__import__('os')", "rel\"\n__import__('os')"
    pattern = Pattern("H", [("x", label), ("y", label)], [("x", "y", edge)])
    rule = NGD(
        pattern,
        [Literal(var("x", _HOSTILE_KEY), Comparison.GT, const(0))],
        [Literal(var("y", _HOSTILE_KEY), Comparison.GE, var("x", _HOSTILE_KEY))],
        name="hostile\n__import__('os')",
    )
    graph = Graph(name="hostile")
    for node, value in ((0, 5), (1, 3), (2, 9)):
        graph.add_node(node, label, {_HOSTILE_KEY: value})
    graph.add_node(3, "item", {_HOSTILE_KEY: 1})
    graph.add_edge(0, 1, edge)
    graph.add_edge(0, 2, edge)
    graph.add_edge(0, 3, edge)  # a label rejection
    rules = RuleSet([rule])
    result = _run(graph, rules)
    assert _pairs(result.violations) == naive_reference.violations(graph, rules) == {(rule.name, (0, 1))}
    plan = compile_plans(graph, rules)[0]
    schedule = plan.schedule_for(plan.order)
    functions = (schedule.prove, schedule.seeds) + schedule.expand
    code = [line for function in functions for line in _generated_lines(function) if not line.lstrip().startswith("#")]
    assert any(repr(_HOSTILE_KEY) in line for line in code)
    assert not any("__import__" in line.replace(repr(_HOSTILE_KEY), "") for line in code)


def test_generated_code_is_attributed_to_the_compiled_layer():
    # profiles group by a path containing repro/matching/compiled, and a
    # traceback through generated code shows its line
    check = compile_literal(parse_literal("x.a / 2 > 0"), {"x": 0})
    filename = check.__code__.co_filename
    assert "repro/matching/compiled" in filename
    assert "".join(_generated_lines(check)).startswith("def check(env):")
    with pytest.raises(ValueError) as raised:
        check([{"a": "n/a"}])
    frames = traceback.extract_tb(raised.value.__traceback__)
    generated = [frame for frame in frames if frame.filename == filename]
    assert generated and generated[0].line.startswith("ok = R")

    plan = compile_plans(_product_graph(products=20, sellers=4), _literal_heavy_rules())[0]
    schedule = plan.schedule_for(plan.order)
    for function in (schedule.prove, schedule.seeds) + schedule.expand:
        assert function.__code__.co_filename.startswith("<repro/matching/compiled:")


def test_constant_folding_and_poisoning():
    # fully constant literal folds to its verdict
    check = compile_literal(Literal(const(3), Comparison.LT, const(5)), {})
    assert check([]) is True
    check = compile_literal(Literal(const(3), Comparison.GT, const(5)), {})
    assert check([]) is False
    # a constant subtree that raises: False on every input here, as holds_for
    poisoned = Literal(Divide(const(1), const(0)), Comparison.EQ, var("x", "a0"))
    check = compile_literal(poisoned, {"x": 0})
    assert check([{"a0": 1}]) is False
    assert not poisoned.holds_for({("x", "a0"): 1})
    # ... but an operand evaluated before it can raise first, as holds_for
    # does: the check replays holds_for instead of folding to False
    poisoned = Literal(Divide(var("x", "a0"), const(2)), Comparison.EQ, Divide(const(1), const(0)))
    check = compile_literal(poisoned, {"x": 0})
    assert check([{"a0": 1}]) is False
    with pytest.raises(ValueError):
        poisoned.holds_for({("x", "a0"): math.nan})
    with pytest.raises(ValueError):
        check([{"a0": math.nan}])


def _deep_sum(depth: int) -> Literal:
    expression = var("x", "a")
    for _ in range(depth):
        expression = Add(expression, var("x", "b"))
    return Literal(expression, Comparison.GT, var("y", "a"))


@pytest.mark.parametrize(
    "literal",
    [
        parse_literal("(" * 45 + "x.a" + " / x.b)" * 45 + " > y.a"),
        parse_literal("(" * 230 + "x.a" + " / x.b)" * 230 + " > y.a"),
        _deep_sum(600),
    ],
    ids=("divide-45", "divide-230", "sum-600"),
)
def test_a_literal_nested_past_the_source_limit_keeps_its_verdicts(literal):
    # the rule parser accepts literals nested about 245 deep and the API
    # deeper; Python's parser refuses source nested about 200 deep, so such
    # a literal is written one operation per line, in evaluate's order
    check = compile_literal(literal, {"x": 0, "y": 1})
    for x in ({"a": 1, "b": 2}, {"a": 1.5, "b": 1}, {"a": 1, "b": 0}, {"a": "n/a", "b": 3}, {"a": 3, "b": "7"}, {"b": 1}):
        slots = [x, {"a": -1}]
        assignment = {("x", key): value for key, value in x.items()} | {("y", "a"): -1}
        complete = len(assignment) == len(literal.variables())
        assert _outcome(lambda: check(slots)) == _outcome(lambda: complete and literal.holds_for(assignment)), x


def test_exact_arithmetic_division():
    # 1/3 must stay an exact Fraction on both paths: 0.333... float would
    # make (1/3)*3 == 1 fail under binary rounding
    literal = Literal(
        Multiply(Divide(const(1), const(3)), const(3)), Comparison.EQ, const(1)
    )
    check = compile_literal(literal, {})
    assert check([]) is True
    assert literal.holds_for({})


def _runtime_verdicts(literal: Literal, values: dict) -> tuple:
    """``(slot, direct, holds_for)`` verdicts of ``literal`` over ``values``.

    ``values`` maps ``(variable, attribute)`` to a value.  Slot mode gives
    each variable its own slot; direct mode renames every variable to ``x``
    (distinct attributes keep the values apart) and reads one mapping.
    """
    variables = sorted({variable for variable, _ in values})
    slot_of = {variable: index for index, variable in enumerate(variables)}
    slots = [{} for _ in variables]
    for (variable, attribute), value in values.items():
        slots[slot_of[variable]][attribute] = value
    slot_verdict = compile_literal(literal, slot_of)(slots)
    flat = {f"{variable}_{attribute}": value for (variable, attribute), value in values.items()}
    direct_literal = parse_literal(re.sub(r"\b([a-z])\.([a-z]\w*)", r"x.\1_\2", str(literal)))
    direct_verdict = compile_literal(direct_literal, {"x": 0}, direct=True)(flat)
    return slot_verdict, direct_verdict, literal.holds_for(values)


@pytest.mark.parametrize(
    "text, values, expected",
    [
        ("x.a / 3 * 3 = x.a", {("x", "a"): 1}, True),
        ("x.a / x.b = y.a / y.b", {("x", "a"): 1, ("x", "b"): 3, ("y", "a"): 2, ("y", "b"): 6}, True),
        ("x.a / x.b < 0", {("x", "a"): 1, ("x", "b"): -3}, True),
        ("x.a / x.b < y.a / y.b", {("x", "a"): 1, ("x", "b"): -3, ("y", "a"): -1, ("y", "b"): -3}, True),
        ("x.a / x.b >= y.a / y.b", {("x", "a"): 1, ("x", "b"): -3, ("y", "a"): -1, ("y", "b"): -3}, False),
        ("|x.a / x.b| = 1 / 3", {("x", "a"): 1, ("x", "b"): -3}, True),
        ("x.a / x.b = 0", {("x", "a"): 1, ("x", "b"): 0}, False),
        ("x.a / x.b != 0", {("x", "a"): 1, ("x", "b"): 0}, False),
        ("x.a / 3 > x.b / 3", {("x", "a"): 10**40 + 1, ("x", "b"): 10**40}, True),
        ("x.a / 7 = x.b / 7", {("x", "a"): 10**40 + 1, ("x", "b"): 10**40}, False),
        ("x.a / x.b = 1", {("x", "a"): True, ("x", "b"): True}, True),
        ("x.a / x.b > y.a", {("x", "a"): True, ("x", "b"): False, ("y", "a"): 0}, False),
    ],
)
def test_runtime_division_is_exact(text, values, expected):
    # variable operands: the division runs per check, in both modes
    assert _runtime_verdicts(parse_literal(text), values) == (expected, expected, expected)


def test_an_expression_type_without_a_closure_is_refused():
    # neither EvaluationError nor TypeError, which the generated code would
    # turn into a verdict
    class Square(Expression):
        def __init__(self, operand):
            self.operand = operand

        def variables(self):
            return self.operand.variables()

    literal = Literal(Square(var("x", "a")), Comparison.EQ, const(4))
    with pytest.raises(ExpressionError, match="Square") as raised:
        compile_literal(literal, {"x": 0})
    assert raised.type is ExpressionError


def _traceback_depth(error: BaseException) -> int:
    depth, tb = 0, error.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


def test_missing_attributes_and_zero_divisors_leave_no_chained_tracebacks():
    # a missing attribute is a test in the generated code, not an exception,
    # and a zero divisor raises a new EvaluationError each time, caught at
    # once: fifty rounds must leave no exception with fifty rounds of frames
    checks = [
        (compile_literal(parse_literal("x.a / x.b > y.a"), {"x": 0, "y": 1}), slots)
        for slots in (
            [{"a": 1}, {"a": 0}],  # missing x.b
            [{"a": 1, "b": 0}, {"a": 0}],  # zero divisor, integer-ratio branch
            [{"a": 1.5, "b": 0}, {"a": 0}],  # zero divisor, general branch
            [{"a": 1, "b": True}, {"a": 0}],  # the general branch
        )
    ]
    checks.append((compile_literal(parse_literal("x.a + 1 > 0"), {"x": 0}), [{}]))
    for _ in range(50):
        for check, slots in checks:
            assert check(slots) is (slots[0].get("b") is True)
    live = [error for error in gc.get_objects() if isinstance(error, EvaluationError)]
    assert all(_traceback_depth(error) < 10 for error in live)
    # an exception that escapes (holds_for replayed on Fraction('n/a'))
    # chains to none of the ones handled before it
    check, slots = checks[0][0], [{"a": "n/a", "b": 2}, {"a": 0}]
    with pytest.raises(ValueError) as raised:
        check(slots)
    assert raised.value.__context__ is None and raised.value.__cause__ is None
    assert _traceback_depth(raised.value) < 10


def test_comparison_dispatch_table_matches_enum():
    assert set(COMPARISON_OPS) == set(Comparison)
    for comparison in Comparison:
        assert comparison.holds(1, 2) == COMPARISON_OPS[comparison](1, 2)
        assert comparison.holds(2, 1) == COMPARISON_OPS[comparison](2, 1)
        assert comparison.holds(1, 1) == COMPARISON_OPS[comparison](1, 1)


# --------------------------------------------------------- workload fixtures


def _literal_heavy_rules() -> RuleSet:
    pattern = Pattern(
        "Q", [("x", "product"), ("y", "product"), ("z", "seller")], [("x", "y", "variant"), ("z", "x", "sells")]
    )
    premise = LiteralSet(
        [
            Literal(var("x", "price"), Comparison.GT, const(0)),
            Literal(var("y", "price"), Comparison.GT, const(0)),
            Literal(var("z", "rating"), Comparison.GE, const(1)),
            Literal(
                Add(var("x", "price"), var("y", "price")),
                Comparison.LE,
                const(500),
            ),
        ]
    )
    conclusion = LiteralSet(
        [Literal(var("x", "price"), Comparison.LE, Multiply(var("y", "price"), const(2)))]
    )
    return RuleSet([NGD(pattern, premise, conclusion, name="price-consistency")])


def _product_graph(seed: int = 11, products: int = 220, sellers: int = 30) -> Graph:
    rng = random.Random(seed)
    graph = Graph(name="compiled-eval")
    for i in range(products):
        attrs = {}
        roll = rng.random()
        if roll < 0.82:
            attrs["price"] = rng.randint(1, 300)
        elif roll < 0.9:
            attrs["price"] = "n/a"  # non-numeric: literal must reject, not raise
        # else: missing price (partially-attributed node)
        # tuple node ids exercise non-string hashables end to end
        graph.add_node(("p", i), "product", attrs)
    for i in range(sellers):
        attrs = {"rating": rng.randint(0, 5)} if rng.random() < 0.85 else {}
        graph.add_node(("s", i), "seller", attrs)
    seen = set()
    for _ in range(products * 3):
        edge = (rng.randrange(products), rng.randrange(products))
        if edge[0] == edge[1] or edge in seen:
            continue
        seen.add(edge)
        graph.add_edge(("p", edge[0]), ("p", edge[1]), "variant")
    for _ in range(sellers * 12):
        edge = (rng.randrange(sellers), rng.randrange(products))
        if edge in seen:
            continue
        seen.add(edge)
        graph.add_edge(("s", edge[0]), ("p", edge[1]), "sells")
    return graph


@pytest.fixture(scope="module")
def product_graph() -> Graph:
    return _product_graph()


@pytest.fixture(scope="module")
def heavy_rules() -> RuleSet:
    return _literal_heavy_rules()


def _stats_tuple(stats: MatchStatistics) -> tuple:
    return (
        stats.candidates_examined,
        stats.expansions,
        stats.edge_checks,
        stats.literal_evaluations,
        stats.matches_emitted,
    )


def _run(graph, rules, *, backend=None, engine="batch", processors=None, **options):
    """Run on ``graph`` rebuilt on the named engine of ``tests/engines.py`` (as given: None)."""
    if backend is not None:
        graph = graph.with_backend(new_store(backend))
    detector = Detector(rules, engine=engine, processors=processors, options=DetectionOptions(**options))
    return detector.run(graph)


def _pairs(violations) -> set:
    return {(violation.rule, violation.nodes) for violation in violations}


# ----------------------------------------------------------------- end to end


def test_batch_equals_the_naive_reference(heavy_rules):
    graph = _product_graph(seed=4, products=40, sellers=8)
    result = _run(graph, heavy_rules)
    assert _pairs(result.violations) == naive_reference.violations(graph, heavy_rules)
    assert result.violation_count() > 0


@pytest.mark.parametrize("backend", ("dict", "indexed"))
@pytest.mark.parametrize("plans", ("compiled", "pickled"))
def test_batch_parity_across_backends(product_graph, heavy_rules, backend, plans):
    # pickled: rules and plans as a spawn worker receives them, one pickle,
    # the plans compiling their schedules again on first use
    graph = product_graph.with_backend(new_store(backend))
    rules, handed = heavy_rules, None
    if plans == "pickled":
        rules, handed = pickle.loads(pickle.dumps((heavy_rules, compile_plans(graph, heavy_rules))))
    on = Detector(rules, engine="batch").run(graph, plans=handed)
    reference = _run(product_graph, heavy_rules, backend="dict")
    assert on.violations.to_json() == reference.violations.to_json()
    assert on.violation_count() > 0
    assert _stats_tuple(on.stats) == _stats_tuple(reference.stats)
    assert on.cost == reference.cost


@pytest.mark.parametrize("execution", ["simulated", "processes"])
def test_parallel_parity(product_graph, heavy_rules, execution):
    on = _run(product_graph, heavy_rules, engine="parallel", processors=4, execution=execution)
    serial = _run(product_graph, heavy_rules)
    assert on.violations.to_json() == serial.violations.to_json()
    assert on.violation_count() > 0


def test_spawn_workers_recompile_parity(heavy_rules, force_start_method):
    # spawn workers get pickled plans without their generated code (it
    # does not pickle); they must generate their schedules again and still
    # match byte for byte.
    # (string node ids: the spawn path spools graphs through JSON, which
    # does not round-trip tuple ids — a pre-existing spool limitation)
    flat = _string_ids(_product_graph(seed=7, products=80, sellers=12))
    serial = _run(flat, heavy_rules)
    force_start_method("spawn")
    spawned = _run(flat, heavy_rules, engine="parallel", processors=2, execution="processes")
    assert spawned.violations.to_json() == serial.violations.to_json()
    assert serial.violation_count() > 0


def test_incremental_parity(product_graph, heavy_rules):
    rng = random.Random(3)
    updates = []
    for _ in range(25):
        updates.append(
            EdgeInsertion(("p", rng.randrange(220)), ("p", rng.randrange(220)), "variant")
        )
    existing = [
        (edge.source, edge.target, edge.label) for edge in product_graph.edges()
    ][:20]
    for source, target, label in existing:
        updates.append(EdgeDeletion(source, target, label))
    delta = BatchUpdate(updates)
    before = naive_reference.violations(product_graph, heavy_rules)
    after = naive_reference.violations(apply_update(product_graph, delta), heavy_rules)
    assert after != before
    for engine in ("incremental", "parallel"):
        result = Detector(heavy_rules, engine=engine, processors=4).run_incremental(product_graph, delta)
        assert (_pairs(result.delta.introduced), _pairs(result.delta.removed)) == (after - before, before - after)


# --------------------------------------------------------------- accounting


def test_evaluation_error_accounting_parity():
    # a premise literal whose attribute is present but non-numeric raises
    # EvaluationError/TypeError mid-candidate inside the generated check: it must
    # bill one literal_evaluation and reject the candidate
    pattern = Pattern("Q", [("x", "item"), ("y", "item")], [("x", "y", "rel")])
    premise = LiteralSet(
        [Literal(Add(var("x", "v"), const(1)), Comparison.GT, const(0))]
    )
    conclusion = LiteralSet([Literal(var("y", "v"), Comparison.GE, const(0))])
    rules = RuleSet([NGD(pattern, premise, conclusion, name="partial")])
    graph = Graph(name="partial")
    graph.add_node(0, "item", {"v": 5})
    graph.add_node(1, "item", {"v": "broken"})  # raises in Add
    graph.add_node(2, "item", {})  # missing attribute
    graph.add_node(3, "item", {"v": -1})
    for source in (0, 1, 2):
        graph.add_edge(source, 3, "rel")
    graph.add_edge(0, 2, "rel")
    on = _run(graph, rules)
    assert _pairs(on.violations) == naive_reference.violations(graph, rules)
    # 0 -> 3 (conclusion numerically false) and 0 -> 2 (conclusion attribute
    # missing) violate; nodes 1 and 2 as premise sources are rejected
    assert on.violation_count() == 2


# ---------------------------------------------------------------- machinery


def test_match_plan_pickles_after_compilation(product_graph, heavy_rules):
    rule = list(heavy_rules)[0]
    plan = compile_plans(product_graph, [rule])[0]
    schedule = plan.schedule_for(plan.order)
    assert isinstance(schedule, Schedule)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.order == plan.order
    # the clone compiles its root schedule again from (rule, statistics, order)
    recompiled = clone.schedule_for(clone.order)
    assert recompiled is not schedule and recompiled.order == schedule.order


def _string_ids(graph: Graph) -> Graph:
    """``graph`` with its tuple node ids joined to strings (the spawn path spools graphs through JSON)."""
    flat = Graph(name=graph.name)
    for node in graph.nodes():
        flat.add_node("-".join(map(str, node.id)), node.label, dict(node.attributes))
    for edge in graph.edges():
        flat.add_edge("-".join(map(str, edge.source)), "-".join(map(str, edge.target)), edge.label)
    return flat


def test_rules_pickle_without_their_generated_code(heavy_rules, force_start_method):
    # generated code lives in the process's table, not on the rule, and a
    # pickle leaves out what a rule set derived; a spawned worker handed the
    # very objects Dect ran on generates its own code and finds the same
    # violations at the same bill
    graph = _string_ids(_product_graph(seed=7, products=80, sellers=12))
    serial = _run(graph, heavy_rules)
    assert heavy_rules.diameter() == 2 and "_derived" in vars(heavy_rules)
    clone = pickle.loads(pickle.dumps(heavy_rules))
    assert "_derived" not in vars(clone) and "_derived" not in vars(clone[0])
    assert list(clone) == list(heavy_rules)
    force_start_method("spawn")
    spawned = _run(graph, heavy_rules, engine="parallel", processors=2, execution="processes")
    assert spawned.violations.to_json() == serial.violations.to_json()
    assert _stats_tuple(spawned.stats) == _stats_tuple(serial.stats)
    assert serial.violation_count() > 0


def _generated_code(plan) -> tuple:
    schedule = plan.schedule_for(plan.order)
    return (schedule.prove, schedule.seeds) + schedule.expand


def test_equal_rules_made_apart_share_their_generated_code(product_graph):
    # one compile() per (rule, order) in the process, not per rule object:
    # a rule set parsed again, or built again alike, reuses the code
    first, again = _literal_heavy_rules(), RuleSet.from_dict(_literal_heavy_rules().to_dict())
    assert first[0] is not again[0] and first[0] == again[0]
    plans = compile_plans(product_graph, first) + compile_plans(product_graph, again)
    assert _generated_code(plans[0]) == _generated_code(plans[1])
    # the name is in the code (the step counters carry it)
    renamed = NGD(first[0].pattern, first[0].premise, first[0].conclusion, name="renamed")
    other = compile_plans(product_graph, [renamed])[0]
    assert other.schedule_for(other.order).prove is not plans[0].schedule_for(plans[0].order).prove
    assert all("renamed" in step.count_key for step in other.steps)


def test_rules_equal_but_for_their_constant_types_keep_their_own_code():
    # Constant(1) == Constant(1.0), so the two rules compare equal, yet
    # x.a * 1 is exact over a large int and x.a * 1.0 rounds it to a float
    large = 2**53 + 1
    pattern = Pattern("Q", [("x", "item")])
    exact, rounded = (
        NGD(pattern, (), [Literal(Multiply(var("x", "a"), const(one)), Comparison.EQ, const(large))], name="typed")
        for one in (1, 1.0)
    )
    assert exact == rounded
    graph = Graph(name="typed")
    graph.add_node("n", "item", {"a": large})
    assignment = {("x", "a"): large}
    assert exact.conclusion.satisfied_by(assignment) and not rounded.conclusion.satisfied_by(assignment)
    for first, second in ((exact, rounded), (rounded, exact)):
        for rule in (first, second):
            expected = 0 if rule.conclusion.constant_types() == (int, int) else 1
            assert _run(graph, RuleSet([rule])).violation_count() == expected


def test_patterns_equal_but_for_their_edge_order_keep_their_own_anchors(product_graph):
    # a Pattern compares its edges as a set, but their order orders a
    # step's anchors
    edges = [("x", "y", "variant"), ("z", "y", "sells")]
    rules = [
        NGD(Pattern("Q", [("x", "product"), ("z", "seller"), ("y", "product")], listed), name="anchors")
        for listed in (edges, edges[::-1])
    ]
    assert rules[0] == rules[1]
    order = ("x", "z", "y")
    anchors = [MatchPlan(rule, GraphStatistics.from_graph(product_graph), order).steps[2].anchors for rule in rules]
    assert [anchor.variable for anchor in anchors[0]] == ["x", "z"]
    assert [anchor.variable for anchor in anchors[1]] == ["z", "x"]


def test_resolve_compiled_reads_no_switch(monkeypatch):
    # the end-to-end benchmark's seed-scan probe still resolves the old
    # switch and passes it on; nothing turns compilation off any more
    monkeypatch.setenv("REPRO_COMPILED_EVAL", "off")
    assert resolve_compiled(None) is True
    assert resolve_compiled(False) is True
    assert resolve_compiled() is True


@pytest.mark.parametrize("compiled", (True, False))
def test_first_step_candidates_ignores_its_compiled_argument(product_graph, heavy_rules, compiled):
    rule = list(heavy_rules)[0]
    plan = compile_plans(product_graph, [rule])[0]
    default_stats, passed_stats = MatchStatistics(), MatchStatistics()
    default = first_step_candidates(product_graph, rule, plan, plan.order, True, default_stats)
    passed = first_step_candidates(product_graph, rule, plan, plan.order, True, passed_stats, compiled)
    assert passed == default and default[0]
    assert _stats_tuple(passed_stats) == _stats_tuple(default_stats)


def test_first_step_candidates_ignores_its_pruning_argument(product_graph, heavy_rules):
    # the old signature's pruning flag no longer turns the unary premise filter off
    for rule, plan in zip(heavy_rules, compile_plans(product_graph, heavy_rules)):
        seeded_stats, passed_stats = MatchStatistics(), MatchStatistics()
        seeded = plan.schedule_for(plan.order).seeds(product_graph.store, seeded_stats)
        passed = first_step_candidates(product_graph, rule, plan, plan.order, False, passed_stats)
        assert passed == seeded
        assert _stats_tuple(passed_stats) == _stats_tuple(seeded_stats)
    assert any(plan.steps[0].unary_premise for plan in compile_plans(product_graph, heavy_rules))


def test_triangle_multi_anchor_parity():
    # a genuine triangle: the last-placed variable anchors to TWO bound
    # variables, driving the anchored probe of the generated step through a
    # second view (the other workloads anchor to one variable only)
    pattern = Pattern("T", [(variable, "n") for variable in "xyz"], [("x", "y", "e"), ("y", "z", "e"), ("x", "z", "e")])
    premise = LiteralSet([Literal(var("x", "w"), Comparison.GT, const(0))])
    conclusion = LiteralSet(
        [Literal(Add(var("y", "w"), var("z", "w")), Comparison.GE, var("x", "w"))]
    )
    rules = RuleSet([NGD(pattern, premise, conclusion, name="triangle")])
    rng = random.Random(5)
    graph = Graph(name="triangles")
    size = 60
    for i in range(size):
        graph.add_node(i, "n", {"w": rng.randint(-5, 30)})
    for _ in range(size * 6):
        source, target = rng.randrange(size), rng.randrange(size)
        if source != target and not graph.has_edge(source, target, "e"):
            graph.add_edge(source, target, "e")
    indexed = _run(graph, rules)
    oracle = _run(graph, rules, backend="dict")
    assert indexed.violations.to_json() == oracle.violations.to_json()
    assert _stats_tuple(indexed.stats) == _stats_tuple(oracle.stats)
    assert _pairs(indexed.violations) == naive_reference.violations(graph, rules)
    assert indexed.stats.edge_checks > 0
    assert indexed.violation_count() > 0

