"""Compiled rule kernels: closure-compiled schedules against their oracles.

Three layers are covered:

* literal-level parity — a seeded random generator produces arithmetic
  expression shapes (nested ops, division, absolute value, constants),
  graphs with missing attributes, non-numeric values and tuple node ids;
  the compiled closure's verdict must equal ``Literal.holds_for`` on every
  sample, in both the slot-based and the ``direct`` (unary-filter) modes;
* end-to-end — on a literal-heavy workload with dirty attributes, the
  violations equal the naive reference, and ``ViolationSet``\\ s and
  ``MatchStatistics`` are identical across every store backend, serial and
  multi-process execution (spawn workers recompile schedules from the
  shipped plan document), and under adaptive suffix replanning;
* machinery — ``MatchPlan`` stays picklable after compiling schedules
  (closures are excluded from its state), and the CSR sorted-rank
  intersection returns exactly the set-intersection survivors in ascending
  rank order.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

import naive_reference
from repro.core.ngd import NGD, RuleSet
from repro.detect import DetectionOptions, Detector
from repro.detect.dect import iter_dect
from repro.detect.observers import drain
from repro.detect.parallel.workunits import rule_search
from repro.expr.expressions import (
    AbsoluteValue,
    Add,
    Divide,
    EvaluationError,
    Multiply,
    Negate,
    Subtract,
    const,
    var,
)
from repro.expr.literals import COMPARISON_OPS, Comparison, Literal, LiteralSet
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, EdgeDeletion, EdgeInsertion
from repro.matching.candidates import MatchStatistics
from repro.matching.compiled import CompiledSchedule, compile_literal, csr_sorted_intersection, resolve_compiled
from repro.matching.plan import compile_plans, first_step_candidates

BACKENDS = ("dict", "indexed", "csr", "persistent")


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


def test_constant_folding_and_poisoning():
    # fully constant literal folds to its verdict
    check = compile_literal(Literal(const(3), Comparison.LT, const(5)), {})
    assert check([]) is True
    check = compile_literal(Literal(const(3), Comparison.GT, const(5)), {})
    assert check([]) is False
    # a constant subtree that raises poisons the literal to constant-False,
    # matching holds_for (False on every input)
    poisoned = Literal(Divide(const(1), const(0)), Comparison.EQ, var("x", "a0"))
    check = compile_literal(poisoned, {"x": 0})
    assert check([{"a0": 1}]) is False
    assert not poisoned.holds_for({("x", "a0"): 1})


def test_exact_arithmetic_division():
    # 1/3 must stay an exact Fraction on both paths: 0.333... float would
    # make (1/3)*3 == 1 fail under binary rounding
    literal = Literal(
        Multiply(Divide(const(1), const(3)), const(3)), Comparison.EQ, const(1)
    )
    check = compile_literal(literal, {})
    assert check([]) is True
    assert literal.holds_for({})


def test_comparison_dispatch_table_matches_enum():
    assert set(COMPARISON_OPS) == set(Comparison)
    for comparison in Comparison:
        assert comparison.holds(1, 2) == COMPARISON_OPS[comparison](1, 2)
        assert comparison.holds(2, 1) == COMPARISON_OPS[comparison](2, 1)
        assert comparison.holds(1, 1) == COMPARISON_OPS[comparison](1, 1)


# --------------------------------------------------------- workload fixtures


def _literal_heavy_rules() -> RuleSet:
    pattern = Pattern("Q")
    pattern.add_node("x", "product")
    pattern.add_node("y", "product")
    pattern.add_node("z", "seller")
    pattern.add_edge("x", "y", "variant")
    pattern.add_edge("z", "x", "sells")
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
    detector = Detector(
        rules,
        engine=engine,
        processors=processors,
        store=backend,
        options=DetectionOptions(**options),
    )
    return detector.run(graph)


def _pairs(violations) -> set:
    return {(violation.rule, violation.nodes) for violation in violations}


# ----------------------------------------------------------------- end to end


def test_batch_equals_the_naive_reference(heavy_rules):
    graph = _product_graph(seed=4, products=40, sellers=8)
    result = _run(graph, heavy_rules)
    assert _pairs(result.violations) == naive_reference.violations(graph, heavy_rules)
    assert result.violation_count() > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("adaptive", (True, False), ids=("adaptive", "static"))
def test_batch_parity_across_backends(product_graph, heavy_rules, backend, adaptive, tmp_path):
    if backend == "persistent":
        os.environ.setdefault("REPRO_PERSISTENT_DIR", str(tmp_path))
    on = _run(product_graph, heavy_rules, backend=backend, adaptive=adaptive)
    reference = _run(product_graph, heavy_rules, backend="dict", adaptive=adaptive)
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


def test_spawn_workers_recompile_parity(heavy_rules):
    # spawn workers get the plan document only (closures don't pickle);
    # they must rebuild compiled schedules and still match byte for byte.
    # (string node ids: the spawn path spools graphs through JSON, which
    # does not round-trip tuple ids — a pre-existing spool limitation)
    graph = _product_graph(seed=7, products=80, sellers=12)
    flat = Graph(name="spawn-parity")
    for node in graph.nodes():
        flat.add_node("-".join(map(str, node.id)), node.label, dict(node.attributes))
    for edge in graph.edges():
        flat.add_edge(
            "-".join(map(str, edge.source)), "-".join(map(str, edge.target)), edge.label
        )
    serial = _run(flat, heavy_rules)
    spawned = _run(
        flat, heavy_rules, engine="parallel", processors=2, execution="processes", start_method="spawn"
    )
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
    results = {}
    for engine in ("incremental", "parallel", "batch"):
        detector = Detector(heavy_rules, engine=engine, processors=4)
        result = detector.run_incremental(product_graph, delta)
        results[engine] = (result.delta.introduced.to_json(), result.delta.removed.to_json())
    assert len(set(results.values())) == 1


def test_adaptive_replan_recompiles_suffix(product_graph, heavy_rules):
    # a drift-triggered suffix replan recompiles the revised order's
    # schedule; the violations stay those of the unreplanned run
    on = _run(product_graph, heavy_rules, adaptive=True)
    off = _run(product_graph, heavy_rules, adaptive=False)
    assert on.violations.to_json() == off.violations.to_json()


def test_matcher_seed_parity(product_graph, heavy_rules):
    # Dect seeds the core once per first-step candidate; the matcher view
    # starts it on the empty seed and lets the first step find them.  Both
    # must reach the same leaves at the same literal and edge bill.
    plans = compile_plans(product_graph, heavy_rules)
    seeded = drain(iter_dect(product_graph, heavy_rules, plans=plans, adaptive=False))
    stats = MatchStatistics()
    found = []
    for rule, plan in zip(heavy_rules, plans):
        search = rule_search(rule, plan, True, stats)
        search.start(product_graph, plan.order, ())
        while search.stack:
            found.extend(search.step())
    assert set(found) == set(seeded.violations)
    assert len(found) == len(seeded.violations) > 0
    assert (stats.literal_evaluations, stats.edge_checks, stats.matches_emitted) == (
        seeded.stats.literal_evaluations,
        seeded.stats.edge_checks,
        seeded.stats.matches_emitted,
    )


# --------------------------------------------------------------- accounting


def test_evaluation_error_accounting_parity():
    # a premise literal whose attribute is present but non-numeric raises
    # EvaluationError/TypeError mid-candidate inside the closure: it must
    # bill one literal_evaluation and reject the candidate
    pattern = Pattern("Q")
    pattern.add_node("x", "item")
    pattern.add_node("y", "item")
    pattern.add_edge("x", "y", "rel")
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
    schedule = plan.compiled_for(plan.order)
    assert isinstance(schedule, CompiledSchedule)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.order == plan.order
    # the clone starts memo-free and recompiles on demand
    recompiled = clone.compiled_for(clone.order)
    assert recompiled.order == schedule.order


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


def test_triangle_multi_anchor_parity():
    # a genuine triangle: the last-placed variable anchors to TWO bound
    # variables, driving the sorted-rank intersection inside step_candidates
    # on the csr backend (the other workloads anchor to one variable only)
    pattern = Pattern("T")
    for variable in ("x", "y", "z"):
        pattern.add_node(variable, "n")
    pattern.add_edge("x", "y", "e")
    pattern.add_edge("y", "z", "e")
    pattern.add_edge("x", "z", "e")
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
    merged = _run(graph, rules, backend="csr")
    probed = _run(graph, rules, backend="dict")
    assert merged.violations.to_json() == probed.violations.to_json()
    assert _stats_tuple(merged.stats) == _stats_tuple(probed.stats)
    assert _pairs(merged.violations) == naive_reference.violations(graph, rules)
    assert merged.stats.edge_checks > 0
    assert merged.violation_count() > 0


def test_csr_sorted_intersection_matches_set_semantics(product_graph):
    graph = product_graph.with_backend("csr")
    sellers = list(graph.nodes_with_label("seller"))
    products = list(graph.nodes_with_label("product"))
    found = 0
    for seller in sellers[:10]:
        base = graph.successors_by_label(seller, "sells")
        if not hasattr(base, "rank_slice"):
            continue
        for product in products[:20]:
            other = graph.successors_by_label(product, "variant")
            if not hasattr(other, "rank_slice"):
                continue
            merged = csr_sorted_intersection(base, [other])
            assert merged is not None
            expected = sorted(set(base) & set(other), key=graph.node_rank)
            assert merged == expected
            found += 1
    assert found > 0
