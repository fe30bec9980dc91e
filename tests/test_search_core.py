"""The search core against the specification, and against its own single-step form.

Two layers:

* a differential over generated graphs, rules and ΔG batches: every
  version of a graph runs the generated steps alike and as the naive
  reference of :mod:`naive_reference` says; a session that keeps its plans
  maintains the reference; the core's matcher view
  (``HomomorphismMatcher``) enumerates homomorphisms as the violations of
  ``X → false``; and plans run only the rules they were compiled for, on
  every kernel.  The strategies here (``graphs``, ``rule_sets``,
  ``draw_batch``) also draw the inputs of :mod:`test_one_oracle`, which
  holds every kernel, backend and the service to the reference;
* a lock-step check: draining the core gives exactly what stepping
  :func:`~repro.detect.parallel.workunits.expand_work_unit` one work unit at
  a time over the same plans gives — statistics, cost, the order violations
  stream in, and where a budget stops the run.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings, strategies as st

import naive_reference
from repro.core.builtin_rules import example_rules, phi2, phi5, phi6, phi7, phi8, phi9
from repro.core.ngd import NGD, RuleSet
from repro.datasets.figure1 import figure1_g2
from repro.detect.dect import iter_dect
from repro.detect.incdect import iter_inc_dect
from repro.detect.observers import DetectionBudget
from repro.detect.parallel.pincdect import iter_pinc_dect
from repro.detect.parallel.balancing import BalancingPolicy
from repro.detect.parallel.cluster import SimulatedRun
from repro.detect.parallel.pdect import _candidate_seeds, iter_p_dect
from repro.detect.parallel.workunits import WorkUnit, expand_work_unit
from repro.detect.session import PLAN_DRIFT_TOLERANCE, DetectionOptions, Detector
from repro.errors import ExecutionError
from repro.expr.expressions import Add, const, var
from repro.expr.literals import Comparison, Literal
from repro.graph.graph import WILDCARD, Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, NodePayload, UpdateGenerator, apply_update
from repro.matching.candidates import MatchStatistics
from repro.matching.incmatch import UpdatePivot
from repro.matching.matchn import HomomorphismMatcher
from repro.matching.plan import MatchPlan, compile_plans, first_step_candidates
from repro.matching.search import RuleSearch

from engines import new_store
from hub_workload import correlated_hub_graph, hub_rules as build_hub_rules

#: the shipped layout and the tests' oracle
STORES = ("indexed", "dict")
NODE_LABELS = ("a", "b")
EDGE_LABELS = ("p", "q")

# ----------------------------------------------------------------- strategies

#: small integers so equalities happen; sometimes no value, sometimes a dirty one
attributes = st.one_of(
    st.integers(min_value=-3, max_value=3).map(lambda value: {"val": value}),
    st.just({}),
    st.just({"val": "n/a"}),
)


@st.composite
def graphs(draw, max_nodes: int = 6, max_edges: int = 12):
    graph = Graph("generated")
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    for node_id in range(count):
        graph.add_node(node_id, draw(st.sampled_from(NODE_LABELS)), draw(attributes))
    endpoint = st.integers(min_value=0, max_value=count - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        # self-loops included: patterns have them too
        graph.add_edge(draw(endpoint), draw(endpoint), draw(st.sampled_from(EDGE_LABELS)))
    return graph


@st.composite
def literals(draw, variables):
    """A literal over one or two of ``variables``, or now and then over none: a constant verdict, which step 0 checks."""
    shift = const(draw(st.integers(min_value=-2, max_value=2)))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        left, right = const(draw(st.integers(min_value=-2, max_value=2))), shift
    else:
        left = var(draw(st.sampled_from(variables)))
        right = draw(st.one_of(st.just(shift), st.sampled_from(variables).map(lambda v: Add(var(v), shift))))
    return Literal(left, draw(st.sampled_from(list(Comparison))), right)


@st.composite
def rule_sets(draw):
    """One to three rules of one to four variables.

    Cycles, self-loops, wildcards and variables that no pattern edge touches
    are all included; an edge drawn twice is kept once.  Literals without a
    variable, and conclusions of one literal over one variable, put checks
    on step 0 and make pivots that their own literals refuse.
    """
    rules = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        variables = [f"x{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
        nodes = [(variable, draw(st.sampled_from(NODE_LABELS + ("_",)))) for variable in variables]
        edge = st.tuples(st.sampled_from(variables), st.sampled_from(variables), st.sampled_from(EDGE_LABELS))
        pattern = Pattern(f"q{index}", nodes, draw(st.lists(edge, max_size=5)))
        premise = draw(st.lists(literals(variables), max_size=2))
        conclusion = draw(
            st.one_of(
                st.lists(literals(variables), min_size=1, max_size=2),
                st.sampled_from(variables).flatmap(lambda v: literals([v])).map(lambda literal: [literal]),
            )
        )
        rules.append(NGD(pattern, premise, conclusion, name=f"r{index}"))
    return RuleSet(rules)


def draw_batch(draw, graph: Graph, fresh: list) -> BatchUpdate:
    """A ΔG against ``graph``: delete some edges, insert some that are absent, a few onto new nodes."""
    existing = [edge.key() for edge in graph.edges()]
    delta = BatchUpdate()
    for key in draw(st.lists(st.sampled_from(existing), max_size=3, unique=True)) if existing else []:
        delta.delete(*key)
    taken = set(existing)
    nodes = list(graph.node_ids())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        source = draw(st.sampled_from(nodes))
        payload = None
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            target = f"new{len(fresh)}"
            fresh.append(target)
            payload = NodePayload(draw(st.sampled_from(NODE_LABELS)), draw(attributes))
        else:
            target = draw(st.sampled_from(nodes))
        key = (source, target, draw(st.sampled_from(EDGE_LABELS)))
        if key not in taken:
            taken.add(key)
            delta.insert(*key, target_payload=payload)
    return delta


def as_pairs(violation_set) -> set[tuple]:
    return {(violation.rule, violation.nodes) for violation in violation_set}


def finish(events):
    """Drain a kernel generator; return ``(what it yielded, its result)``."""
    stream = []
    while True:
        try:
            stream.append(next(events))
        except StopIteration as stop:
            return stream, stop.value


# ------------------------------------------------ (a) against the specification


@settings(max_examples=150, deadline=None)
@given(graphs(), rule_sets(), st.data())
def test_every_version_of_a_graph_runs_the_generated_steps_alike(graph, rules, data):
    """Dect on a head, on the same content as a past version and as a frozen image.

    The generated steps read each store's adjacency views as they come, in
    rank order, with no sort: the violations must be the reference's, and
    the stream order, the statistics and the cost the same on every version.
    """
    head = finish(iter_dect(graph, rules))
    assert as_pairs(head[1].violations) == naive_reference.violations(graph, rules)
    # a clone takes the maps and the new head writes them: graph reads them through its undo log
    after = apply_update(graph, draw_batch(data.draw, graph, []))
    assert graph.store._undo is not None
    for version in (graph, graph.with_backend("frozen"), graph.with_backend(new_store("dict"))):
        stream, result = finish(iter_dect(version, rules))
        assert stream == head[0]
        assert (result.stats, result.cost) == (head[1].stats, head[1].cost)
    assert as_pairs(finish(iter_dect(after, rules))[1].violations) == naive_reference.violations(after, rules)


def _areas(count: int) -> Graph:
    """``count`` areas, each of whose population edges φ2 finds inconsistent."""
    graph = Graph("areas")
    for i in range(count):
        graph.add_node(f"area{i}", "area")
        for kind, value in (("female", 100 + i), ("male", 200 + i), ("total", 999)):
            graph.add_node(f"{kind}{i}", "integer", {"val": value})
        graph.add_edge(f"area{i}", f"female{i}", "femalePopulation")
        graph.add_edge(f"area{i}", f"male{i}", "malePopulation")
        graph.add_edge(f"area{i}", f"total{i}", "populationTotal")
    return graph


def _repair(i: int, round_: int = 0) -> BatchUpdate:
    """Move area ``i``'s total onto a new node that makes it consistent."""
    old = f"total{i}" if not round_ else f"total{i}-{round_ - 1}"
    return (
        BatchUpdate()
        .delete(f"area{i}", old, "populationTotal")
        .insert(f"area{i}", f"total{i}-{round_}", "populationTotal", target_payload=NodePayload("integer", {"val": 300 + 2 * i}))
    )


def test_a_suspended_matcher_yields_the_matches_of_the_version_it_started_on():
    """A search binds its store's maps; a clone while it is suspended makes them the next version's."""
    graph = _areas(12)
    pattern = Pattern("total", [("x", "area"), ("y", "integer")], [("x", "y", "populationTotal")])
    expected = list(HomomorphismMatcher(graph, pattern).matches())
    matches = HomomorphismMatcher(graph, pattern).matches()
    first = next(matches)
    delta = BatchUpdate()
    for i in range(12):
        if first["x"] != f"area{i}":
            delta.extend(_repair(i))
    after = apply_update(graph, delta)
    assert graph.store._undo is not None
    assert [first, *matches] == expected
    assert len(list(HomomorphismMatcher(after, pattern).matches())) == 12


def test_a_suspended_matcher_reads_its_graph_after_a_write_makes_it_a_head_again():
    """A write to a past version gives it maps of its own, no longer the ones the head writes."""
    graph = _areas(12)
    pattern = Pattern("total", [("x", "area"), ("y", "integer")], [("x", "y", "populationTotal")])
    expected = list(HomomorphismMatcher(graph, pattern).matches())
    matches = HomomorphismMatcher(graph, pattern).matches()
    first = next(matches)  # bound while the graph was the head
    head = graph.copy()
    for i in range(12):
        if first["x"] != f"area{i}":
            head.remove_edge(f"area{i}", f"total{i}", "populationTotal")
    graph.add_node("area12", "area")  # materializes the past version: it is a head again
    assert graph.store._undo is None
    assert [first, *matches] == expected
    assert len(list(HomomorphismMatcher(head, pattern).matches())) == 1


def test_a_suspended_dect_stream_outlives_the_maps_the_head_leaves():
    """Enough versions pile up on a suspended stream's graph that the head moves to maps of its own."""
    areas = 24
    graph = _areas(areas)
    rules = RuleSet([phi2()])
    expected = frozenset(Detector(rules).run(graph).violations)
    assert len(expected) == areas
    stream = Detector(rules).stream(graph)
    first = next(stream)
    latest, rounds = graph, 0
    while latest.store._out is graph.store._out:  # until the head copies the maps the versions share
        latest = apply_update(latest, _repair(rounds % areas, rounds // areas))
        rounds += 1
    assert rounds > 1
    assert frozenset([first, *stream]) == expected
    assert len(Detector(rules).run(latest).violations) < areas
    graph.validate_consistency()


#: the incremental kernels, each drained to its result
INCREMENTAL_KERNELS = {
    "IncDect": lambda graph, rules, delta, after: finish(iter_inc_dect(graph, rules, delta, graph_after=after))[1],
    "PIncDect": lambda graph, rules, delta, after: finish(
        iter_pinc_dect(graph, rules, delta, processors=3, graph_after=after)
    )[1],
}


def test_the_papers_one_node_rules_see_every_node_that_delta_introduces():
    """Σ = φ5–φ9 (Example 5): one-node patterns, so only node pivots reach what ΔG adds.

    φ7 and φ8 admit ``item`` nodes only; the others any node.
    """
    rules = RuleSet([phi5(), phi6(), phi7("item"), phi8("item"), phi9()])
    graph = Graph("items")
    graph.add_node(0, "item", {"A": 7, "B": 7})
    graph.add_node(1, "item", {"A": 2, "B": 9})
    graph.add_node(2, "tag", {"A": 5})
    graph.add_edge(0, 1, "rel")
    delta = (
        BatchUpdate()
        .insert(0, "n1", "has", target_payload=NodePayload("item", {"A": 5, "B": 1}))
        .insert("n2", 2, "has", source_payload=NodePayload("tag", {"A": 0, "B": 3}))
        .insert("n1", "n1", "rel")
        .delete(0, 1, "rel")
    )
    after = apply_update(graph, delta)
    expected = naive_reference.violations(after, rules) - naive_reference.violations(graph, rules)
    assert {nodes for _, nodes in expected} == {("n1",), ("n2",)}
    assert ("phi8", ("n1",)) in expected and ("phi7", ("n2",)) not in expected
    for kernel, run in INCREMENTAL_KERNELS.items():
        result = run(graph, rules, delta, after)
        assert (as_pairs(result.delta.introduced), as_pairs(result.delta.removed)) == (expected, set()), kernel


def refused_pivot(case: str) -> tuple:
    """``(graph, rules, ΔG)`` whose one consistent pivot its own literals refuse.

    ``premise``: a two-variable rule whose edge pivot binds both ends, with
    ``x.a > 5`` false.  ``conclusion``: a one-node rule whose node pivot
    holds its one-literal Y.
    """
    graph = Graph("refused")
    graph.add_node(0, "item", {"a": 3, "b": 0})
    graph.add_node(1, "item", {"a": 7, "b": 0})
    if case == "premise":
        pattern = Pattern("pair", [("x", "item"), ("y", "item")], [("x", "y", "p")])
        rules = RuleSet([NGD.from_text(pattern, "x.a > 5", "y.b = 1", name="pair")])
        return graph, rules, BatchUpdate().insert(0, 1, "p")
    rules = RuleSet([NGD.from_text(Pattern("one", [("x", "item")]), "", "x.a = 1", name="one")])
    return graph, rules, BatchUpdate().insert(0, "n", "p", target_payload=NodePayload("item", {"a": 1}))


@pytest.mark.parametrize("case", ("premise", "conclusion"))
def test_a_pivot_its_own_literals_refuse_steps_no_frame(case, force_start_method):
    """IncDect, simulated and process PIncDect prove the pivot where they make it, and search nothing from it."""
    graph, rules, delta = refused_pivot(case)
    after = apply_update(graph, delta)
    assert naive_reference.violations(after, rules) == naive_reference.violations(graph, rules), "ΔVio is empty"
    incdect = finish(iter_inc_dect(graph, rules, delta, graph_after=after))[1]
    assert incdect.cost == 1.0, "the run costs the pivot's unit, and no step"
    force_start_method("fork")
    simulated, processes = (
        finish(iter_pinc_dect(graph, rules, delta, processors=2, graph_after=after, execution=execution))[1]
        for execution in ("simulated", "processes")
    )
    for result in (incdect, simulated, processes):
        assert result.delta.total_changes() == 0
        assert (result.stats.candidates_examined, result.stats.expansions, result.stats.matches_emitted) == (0, 0, 0)
        assert result.stats.literal_evaluations == 1, "the proof reached one literal"
    for result in (simulated, processes):
        assert sum(trace.work_units_processed for trace in result.worker_traces) == 0, result.algorithm
    assert processes.cost == processes.neighborhood_size, "only the neighbourhood's extraction is charged"


def step_zero_rules() -> RuleSet:
    """Rules that check on step 0: a one-literal Y over the one variable (the shape of φ6–φ8), and X without a variable."""
    pair = Pattern("pair", [("x", "item"), ("y", "item")], [("x", "y", "p")])
    return RuleSet(
        [
            NGD.from_text(Pattern("one", [("x", "item")]), "", "x.a = 1", name="one"),
            NGD.from_text(pair, "1 < 2", "x.a <= y.a", name="always"),
            NGD.from_text(pair, "2 < 1", "x.a <= y.a", name="never"),
        ]
    )


def step_zero_graph() -> Graph:
    """Six items, the fifth without ``a``; every item but 2 has one ``p`` successor."""
    graph = Graph("items")
    for node_id, value in enumerate((1, 0, 1, 2, None, 1)):
        graph.add_node(node_id, "item", {} if value is None else {"a": value})
    for source, target in ((0, 1), (1, 2), (3, 0), (4, 3), (5, 5)):
        graph.add_edge(source, target, "p")
    return graph


def test_step_zero_checks_run_where_the_seeds_are_made():
    """``seeds()`` keeps only the nodes that can still violate; Dect and simulated PDect find the reference's violations."""
    graph = step_zero_graph()
    rules = step_zero_rules()
    plans = compile_plans(graph, rules)
    seeded = {}
    for rule, plan in zip(rules, plans):
        nodes, scanned = plan.schedule_for(plan.order).seeds(graph.store, MatchStatistics())
        seeded[rule.name] = sorted(node.id for node in nodes)
    # Y holds on 0, 2 and 5: only 1, 3 and 4 (no a) can violate it
    assert seeded["one"] == [1, 3, 4]
    assert seeded["never"] == []
    assert seeded["always"] == sorted(set(seeded["always"])) and len(seeded["always"]) == 5
    expected = naive_reference.violations(graph, rules)
    assert {nodes for name, nodes in expected if name == "one"} == {(1,), (3,), (4,)}
    dect = finish(iter_dect(graph, rules, plans=plans))[1]
    pdect = Detector(rules, engine="parallel", processors=3).run(graph, plans=plans)
    assert as_pairs(dect.violations) == as_pairs(pdect.violations) == expected
    # every seed of the one-node rule is a violation: none is stepped only to be refused at the leaf
    assert dect.stats.matches_emitted == len(expected)


def test_a_seed_that_step_zero_refuses_costs_only_its_scan():
    """What every kernel pays equals what the kept seeds alone give: a refused node is scanned, never searched."""
    graph = step_zero_graph()
    rules = step_zero_rules()
    # the nodes step 0 keeps, by the rules' literals: the one-node rule's Y holds on 0, 2 and 5, the pair
    # rule "always" keeps every item with a p successor (its X holds), and "never"'s X refuses every item
    kept = {"one": [1, 3, 4], "always": [0, 1, 3, 4, 5], "never": []}
    scans = 6 * len(rules)  # each rule scans the six items once
    # a kept one-node seed is one step to the leaf; a kept pair seed one step that draws and verifies its
    # one successor, max(1, 1) + 1
    cost = scans + 1 * len(kept["one"]) + 2 * len(kept["always"])
    dect = finish(iter_dect(graph, rules))[1]
    assert (dect.cost, dect.stats.candidates_examined) == (cost, scans + len(kept["always"]))
    # simulated PDect places one unit per kept seed
    plans = compile_plans(graph, rules)
    run = SimulatedRun("PDect", False, plans, 3, BalancingPolicy.hybrid(), None)
    placed = [(plans[unit.rule_index].rule.name, node) for _, unit, _ in _candidate_seeds(run, graph) for _, node in unit.assignment]
    assert sorted(placed) == sorted((name, node) for name, nodes in kept.items() for node in nodes)
    # process PDect's aggregate cost is Dect's
    processes = Detector(rules, engine="parallel", processors=2, options=DetectionOptions(execution="processes"))
    assert processes.run(graph).cost == cost


@settings(max_examples=100, deadline=None)
@given(graphs(), rule_sets(), st.data())
def test_a_session_that_keeps_its_plans_maintains_the_reference(graph, rules, data):
    """The default incremental API: one ``Detector``, no ``plans=``, a new store for every ΔG."""
    fresh: list = []
    detector = Detector(rules, engine="incremental")
    maintained = Detector(rules, engine="batch").run(graph).violations
    batches = data.draw(st.integers(min_value=1, max_value=4), label="batches")
    for _ in range(batches):
        delta = draw_batch(data.draw, graph, fresh)
        result = detector.run_incremental(graph, delta)
        # the kept plans are never further from the graph they ran on than the tolerance
        assert abs(graph.total_size() - detector.plan_size) <= PLAN_DRIFT_TOLERANCE * max(detector.plan_size, 1)
        graph = apply_update(graph, delta)
        maintained = maintained.apply_delta(result.delta)
        assert as_pairs(maintained) == naive_reference.violations(graph, rules)
    assert 1 <= detector.plan_compilations <= batches


@settings(max_examples=200, deadline=None)
@given(graphs(), rule_sets())
def test_the_matcher_view_enumerates_the_homomorphisms(graph, rules):
    """Wildcards, self-loops and disconnected patterns included; with and without a premise."""
    for rule in rules:
        every = {tuple(sorted(h.items())) for h in naive_reference.matches(graph, rule.pattern)}
        in_premise = {h for h in every if naive_reference.satisfies(graph, dict(h), rule.premise)}
        for premise, expected in ((None, every), (rule.premise, in_premise)):
            matcher = HomomorphismMatcher(graph, rule.pattern, premise)
            stream = [tuple(sorted(match.items())) for match in matcher.matches()]
            assert set(stream) == expected, premise
            assert len(stream) == len(expected), "a match streamed twice"
            assert matcher.stats.matches_emitted == len(expected)


def self_loop_rule() -> RuleSet:
    pattern = Pattern("loop", nodes=[("x", "a"), ("y", "a")], edges=[("x", "x", "p"), ("x", "y", "p")])
    return RuleSet([NGD.from_text(pattern, "", "y.val = 1", name="loop")])


def later_self_loop_rule() -> RuleSet:
    pattern = Pattern("later", nodes=[("x", "a"), ("y", "a")], edges=[("x", "y", "p"), ("y", "y", "p")])
    return RuleSet([NGD.from_text(pattern, "", "y.val = 1", name="later")])


def billed(result) -> tuple:
    """``(cost, edge_checks, candidates_examined, expansions)`` of a kernel result."""
    return result.cost, result.stats.edge_checks, result.stats.candidates_examined, result.stats.expansions


def test_a_seed_must_carry_the_first_variables_self_loop():
    # found by the differential above: no later step verifies that pattern edge
    graph = Graph("loops")
    for node_id in range(3):
        graph.add_node(node_id, "a", {"val": 0})
    for source, target in ((0, 0), (0, 1), (1, 2)):
        graph.add_edge(source, target, "p")
    rules = self_loop_rule()
    assert naive_reference.violations(graph, rules) == {("loop", (0, 0)), ("loop", (0, 1))}
    # the loop on the first variable (a seed) and on a later one (a step's
    # candidates): one edge_checks per self-loop probe, either way
    later = later_self_loop_rule()
    assert naive_reference.violations(graph, later) == {("later", (0, 0))}
    inserted = BatchUpdate().insert(1, 1, "p")
    for store in STORES:
        backed = graph.with_backend(new_store(store))
        result = finish(iter_dect(backed, rules))[1]
        assert as_pairs(result.violations) == {("loop", (0, 0)), ("loop", (0, 1))}, store
        assert billed(result) == (7.0, 2, 5, 2), store
        result = finish(iter_dect(backed, later))[1]
        assert as_pairs(result.violations) == {("later", (0, 0))}, store
        assert billed(result) == (7.0, 3, 6, 1), store
        result = finish(iter_inc_dect(backed, rules, inserted))[1]
        assert as_pairs(result.delta.introduced) == {("loop", (1, 1)), ("loop", (1, 2))}, store
        assert billed(result) == (7.0, 0, 2, 2), store
        result = finish(iter_inc_dect(backed, later, inserted))[1]
        assert as_pairs(result.delta.introduced) == {("later", (0, 1)), ("later", (1, 1))}, store
        assert billed(result) == (7.0, 0, 2, 2), store
    single = RuleSet([NGD.from_text(Pattern("one", [("x", "a")], [("x", "x", "p")]), "", "x.val = 1")])
    assert as_pairs(finish(iter_dect(graph, single))[1].violations) == naive_reference.violations(graph, single)


def test_a_pattern_self_loop_pivots_on_data_self_loops_only():
    # found by the differential above: inserting 1 -> 0 is no match of x -> x
    graph = Graph("loops")
    graph.add_node(0, "a", {"val": 0})
    graph.add_node(1, "a", {"val": 0})
    graph.add_edge(0, 0, "p")
    graph.add_edge(0, 1, "p")
    delta = BatchUpdate().insert(1, 0, "p")
    result = finish(iter_inc_dect(graph, self_loop_rule(), delta))[1]
    assert result.delta.total_changes() == 0
    result = finish(iter_inc_dect(graph, self_loop_rule(), BatchUpdate().insert(1, 1, "p")))[1]
    assert as_pairs(result.delta.introduced) == {("loop", (1, 1))}


@pytest.mark.parametrize("store", STORES)
def test_matches_are_the_violations_of_x_implies_false(store):
    """Over one pattern, the matcher keeps every homomorphism, and Dect the ones that fail X → Y."""
    base = figure1_g2()
    graph = base.with_backend(new_store(store))
    rules = example_rules()
    dect = finish(iter_dect(graph, rules))[1]
    for rule in rules:
        every = [h for h in naive_reference.matches(base, rule.pattern)]
        stats = MatchStatistics()
        matcher = HomomorphismMatcher(graph, rule.pattern, stats=stats)
        assert list(matcher.plan.rule.conclusion) == [Literal(const(0), Comparison.EQ, const(1))]
        kept = [tuple(sorted(h.items())) for h in matcher.matches()]
        assert sorted(kept, key=repr) == sorted((tuple(sorted(h.items())) for h in every), key=repr), rule.name
        assert stats.matches_emitted == len(every)
        as_false = finish(iter_dect(graph, RuleSet([matcher.plan.rule])))[1].violations
        assert sorted(tuple(sorted(v.mapping().items())) for v in as_false) == sorted(kept), "Dect on X → false"
        failing = {
            tuple(h[variable] for variable in rule.pattern.variables)
            for h in every
            if naive_reference.satisfies(base, h, rule.premise) and not naive_reference.satisfies(base, h, rule.conclusion)
        }
        assert {v.nodes for v in dect.violations if v.rule == rule.name} == failing, rule.name
    assert any(naive_reference.violations(base, rules))


@pytest.mark.parametrize("store", STORES)
def test_the_matcher_keeps_the_bindings_where_a_rules_conclusion_holds(store):
    """The matcher runs a rule's pattern and premise under Y = false, so no binding is pruned on the rule's Y."""
    graph = Graph("pairs", store=new_store(store))
    for node_id, val in enumerate((1, 2, 3)):
        graph.add_node(node_id, "a", {"val": val})
    for source, target in ((0, 1), (1, 2), (2, 0)):
        graph.add_edge(source, target, "p")
    pattern = Pattern("pair", [("x", "a"), ("y", "a")], [("x", "y", "p")])
    rule = NGD.from_text(pattern, "", "x.val < y.val", name="ascending")
    # Y holds on two of the three bindings: only (2, 0) violates
    assert as_pairs(finish(iter_dect(graph, RuleSet([rule])))[1].violations) == {("ascending", (2, 0))}
    kept = [(h["x"], h["y"]) for h in HomomorphismMatcher(graph, rule.pattern, rule.premise).matches()]
    assert sorted(kept) == [(0, 1), (1, 2), (2, 0)]


def test_an_empty_pattern_has_one_match_where_its_premise_holds():
    graph = figure1_g2()
    empty = Pattern("empty", [])
    assert list(HomomorphismMatcher(graph, empty).matches()) == [{}]
    assert list(HomomorphismMatcher(graph, empty, NGD.from_text(empty, "1 < 2", "").premise).matches()) == [{}]
    assert list(HomomorphismMatcher(graph, empty, NGD.from_text(empty, "2 < 1", "").premise).matches()) == []


@pytest.mark.parametrize("premise", ["1 < 2", "2 < 1"])
@pytest.mark.parametrize("conclusion", ["1 < 2", "2 < 1"])
def test_a_rule_without_variables_is_reported_as_the_reference_reports_it(premise, conclusion, force_start_method):
    """``Q[](X → Y)`` has one match, the empty one: a violation exactly where X holds and Y does not."""
    force_start_method("fork")
    graph = figure1_g2()
    rule = NGD.from_text(Pattern("e", []), premise, conclusion)
    rules = RuleSet([rule, *example_rules()])
    expected = naive_reference.violations(graph, rules)
    assert (("ngd_e", ()) in expected) == (premise == "1 < 2" and conclusion == "2 < 1")
    for name, kernel in (
        ("Dect", lambda budget: iter_dect(graph, rules, budget=budget)),
        ("PDect", lambda budget: iter_p_dect(graph, rules, processors=2, budget=budget)),
        ("PDect/processes", lambda budget: iter_p_dect(graph, rules, processors=2, budget=budget, execution="processes")),
    ):
        stream, result = finish(kernel(None))
        assert as_pairs(result.violations) == as_pairs(stream) == expected, name
        # the empty match goes through the run's emit: the violation budget stops on it
        stream, result = finish(kernel(DetectionBudget(max_violations=1)))
        assert len(stream) == 1 and result.stop_reason == "max_violations", name
        if ("ngd_e", ()) in expected:
            assert as_pairs(stream) == {("ngd_e", ())}, name
    kept = {
        (rule.name, tuple(h[variable] for variable in rule.pattern.variables))
        for h in HomomorphismMatcher(graph, rule.pattern, rule.premise).matches()
        if not naive_reference.satisfies(graph, h, rule.conclusion)
    }
    assert kept == {pair for pair in expected if pair[0] == rule.name}


KERNELS = {
    "Dect": lambda graph, rules, plans, delta: finish(iter_dect(graph, rules, plans=plans)),
    "IncDect": lambda graph, rules, plans, delta: finish(iter_inc_dect(graph, rules, delta, plans=plans)),
    "PDect": lambda graph, rules, plans, delta: finish(iter_p_dect(graph, rules, processors=2, plans=plans)),
    "PIncDect": lambda graph, rules, plans, delta: finish(iter_pinc_dect(graph, rules, delta, processors=2, plans=plans)),
    "PDect/processes": lambda graph, rules, plans, delta: finish(
        iter_p_dect(graph, rules, processors=2, plans=plans, execution="processes")
    ),
    "PIncDect/processes": lambda graph, rules, plans, delta: finish(
        iter_pinc_dect(graph, rules, delta, processors=2, plans=plans, execution="processes")
    ),
}


def test_a_plan_runs_only_the_rule_it_was_compiled_for():
    """Each kernel checks its plans once, before it searches: plans of other rules, or of equal ones, raise."""
    graph = figure1_g2()
    rules = list(example_rules())
    first, second = rules[:2]
    # an equal rule is not the rule: the schedule indexes that object's literals
    twin = NGD(first.pattern, first.premise, first.conclusion, name=first.name)
    assert twin == first
    # an update no rule has a pivot for: the check must not wait for a search
    delta = BatchUpdate().insert(next(iter(graph.node_ids())), next(iter(graph.node_ids())), "no-such-label")
    plans = compile_plans(graph, [first])
    for kernel, run in KERNELS.items():
        run(graph, [first], plans, delta)
        for wrong in ([second], [twin], rules[:2]):
            with pytest.raises(ExecutionError):
                run(graph, wrong, plans, delta)
                pytest.fail(f"{kernel} ran the plan of {first.name} for {[rule.name for rule in wrong]}")


def test_every_kernel_builds_its_core_through_one_constructor():
    """``RuleSearch(plan, stats)`` is the whole search API: the kernels and the work-unit bridge build it from a plan."""
    for name in ("repro.detect.dect", "repro.detect.incdect", "repro.detect.parallel.workunits", "repro.detect.parallel.executor"):
        assert importlib.import_module(name).RuleSearch is RuleSearch, name


# ------------------------------------------- (b) the core against its own steps


class Stepped:
    """The serial kernels as they were: a LIFO stack of work units, one ``expand_work_unit`` each."""

    def __init__(self, budget) -> None:
        self.budget = budget
        self.stats = MatchStatistics()
        self.cost = 0.0
        self.stream: list = []
        self.stop_reason = None

    def cost_exhausted(self) -> bool:
        if self.budget is not None and self.budget.cost_exhausted(self.cost):
            self.stop_reason = "max_cost"
        return self.stop_reason is not None

    def drain(self, stack, graphs, plan, seen) -> None:
        """``graphs`` and ``seen`` are indexed by a unit's ``from_insertion``."""
        while stack and self.stop_reason is None:
            unit = stack.pop()
            outcome = expand_work_unit(graphs[unit.from_insertion], unit, self.stats, plan=plan)
            self.cost += max(outcome.filtering_adjacency, 1) + outcome.verification_adjacency
            stack.extend(outcome.new_units)
            for violation in outcome.violations:
                if violation in seen[unit.from_insertion]:
                    continue
                seen[unit.from_insertion].add(violation)
                self.stream.append((violation, unit.from_insertion))
                if self.budget is not None and self.budget.violations_exhausted(len(self.stream)):
                    self.stop_reason = "max_violations"
                    return
            self.cost_exhausted()


def stepped_dect(graph, rules, plans, budget=None) -> Stepped:
    run = Stepped(budget)
    seen = {True: set()}
    for index, (rule, plan) in enumerate(zip(rules, plans)):
        candidates, scan_cost = first_step_candidates(graph, rule, plan, plan.order, True, run.stats, compiled=True)
        run.cost += scan_cost
        if run.cost_exhausted():
            break
        stack = [WorkUnit(index, plan.order, ((plan.order[0], candidate.id),)) for candidate in candidates]
        if len(plan.order) == 1:
            stack.reverse()  # complete seeds have no subtree: they stream in rank order
        run.drain(stack, {True: graph}, plan, seen)
        if run.stop_reason is not None:
            break
    return run


def pivots_by_definition(rule: NGD, delta: BatchUpdate, before: Graph, after: Graph) -> list[UpdatePivot]:
    """One rule's pivots (Section 6.2).

    Its edge pivots, unit update by unit update, then pattern edge by pattern
    edge; then its node pivots: every node an insertion brings that ``before``
    lacks, in the order ΔG first names it, on every variable that no pattern
    edge touches and whose label admits the node.
    """
    pattern = rule.pattern
    pivots = []
    for update in delta:
        graph = after if update.is_insertion else before
        if not (graph.has_node(update.source) and graph.has_node(update.target)):
            continue
        for edge in pattern.edges():
            if edge.label != update.label or (edge.source == edge.target and update.source != update.target):
                continue
            if fits(pattern, edge.source, graph.node(update.source)) and fits(pattern, edge.target, graph.node(update.target)):
                seed = (edge.source,) if edge.source == edge.target else (edge.source, edge.target)
                pivots.append(UpdatePivot(rule.name, seed, (update.source, update.target)[: len(seed)], update.is_insertion))
    named = [node for update in delta.insertions for node in (update.source, update.target)]
    lone = [variable for variable in pattern.variables if not pattern.neighbours(variable)]
    for node in dict.fromkeys(node for node in named if not before.has_node(node)):
        pivots.extend(
            UpdatePivot(rule.name, (variable,), (node,), True) for variable in lone if fits(pattern, variable, after.node(node))
        )
    return pivots


def fits(pattern, variable: str, node) -> bool:
    """Return True when ``variable``'s label admits the data ``node``."""
    return pattern.node(variable).label in (WILDCARD, node.label)


def pivot_unit(index: int, rule: NGD, pivot: UpdatePivot, plan, graph: Graph):
    """The work unit a pivot seeds — its variables first, in the plan's order — or
    None when a pattern edge between two seed variables is not an edge of ``graph``."""
    seed = pivot.seed()
    order = plan.order_for_seed(tuple(seed))
    for edge in rule.pattern.edges():
        if edge.source in seed and edge.target in seed and not graph.has_edge(seed[edge.source], seed[edge.target], edge.label):
            return None
    return WorkUnit(index, order, tuple((variable, seed[variable]) for variable in order if variable in seed), pivot.from_insertion)


def proven(unit: WorkUnit, plan, graph: Graph, stats: MatchStatistics) -> bool:
    """Whether no literal of the steps ``unit`` binds refuses it: the schedule's proof, billed to ``stats``."""
    return plan.schedule_for(unit.order).prove(graph.store, [node for _, node in unit.assignment], stats)


def stepped_inc_dect(graph, after, rules, delta, plans, budget=None) -> Stepped:
    run = Stepped(budget)
    graphs, seen = {True: after, False: graph}, {True: set(), False: set()}
    for index, (rule, plan) in enumerate(zip(rules, plans)):
        if run.cost_exhausted():
            break
        stack = []
        for pivot in pivots_by_definition(rule, delta, graph, after):
            unit = pivot_unit(index, rule, pivot, plan, graphs[pivot.from_insertion])
            if unit is not None:
                # a consistent pivot costs its unit, refused by its literals or not
                run.cost += 1.0
                if proven(unit, plan, graphs[pivot.from_insertion], run.stats):
                    stack.append(unit)
        run.drain(stack, graphs, plan, seen)
        if run.stop_reason is not None:
            break
    return run


def assert_same_run(result, stream, stepped: Stepped) -> None:
    assert stream == stepped.stream, "violations streamed in a different order"
    assert result.cost == stepped.cost
    assert result.stop_reason == stepped.stop_reason
    for field in ("candidates_examined", "expansions", "edge_checks", "literal_evaluations", "matches_emitted"):
        assert getattr(result.stats, field) == getattr(stepped.stats, field), field
    assert result.stats.extra == stepped.stats.extra


def dect_both_ways(graph, rules, budget=None, plans=None):
    plans = plans or compile_plans(graph, rules)
    stream, result = finish(iter_dect(graph, rules, budget=budget, plans=plans))
    stepped = stepped_dect(graph, list(rules), plans, budget)
    assert_same_run(result, [(violation, True) for violation in stream], stepped)
    return result


@pytest.fixture(scope="module")
def hub_graph():
    return correlated_hub_graph(roots=40, wide=8, narrow=3, survivor_stride=7)


@pytest.fixture(scope="module")
def hub_rules():
    return build_hub_rules()


def test_lockstep_dect(hub_graph, hub_rules):
    result = dect_both_ways(hub_graph, hub_rules)
    assert len(result.violations) > 0 and not result.stopped_early


def test_lockstep_dect_stops_where_the_stepped_run_stops(hub_graph, hub_rules):
    full = dect_both_ways(hub_graph, hub_rules)
    for share in (0.05, 0.3, 0.6, 0.95):
        capped = dect_both_ways(hub_graph, hub_rules, budget=DetectionBudget(max_cost=full.cost * share))
        assert capped.stop_reason == "max_cost" and capped.cost < full.cost
    for cap in (1, 2, len(full.violations) - 1):
        capped = dect_both_ways(hub_graph, hub_rules, budget=DetectionBudget(max_violations=cap))
        assert capped.stop_reason == "max_violations" and len(capped.violations) == cap


def test_lockstep_dect_with_a_declared_order(hub_graph, hub_rules):
    # a run executes the order it is handed, not the one it would compile
    (compiled,) = compile_plans(hub_graph, hub_rules)
    declared = MatchPlan(compiled.rule, compiled.statistics, ("z", "x", "y"))
    assert declared.order != compiled.order
    result = dect_both_ways(hub_graph, hub_rules, plans=(declared,))
    default = dect_both_ways(hub_graph, hub_rules)
    assert as_pairs(result.violations) == as_pairs(default.violations)
    assert result.stats.total_operations() != default.stats.total_operations()
    capped = dect_both_ways(hub_graph, hub_rules, budget=DetectionBudget(max_cost=result.cost / 2), plans=(declared,))
    assert capped.stop_reason == "max_cost"


def seed_binds_everything_rules() -> RuleSet:
    single = Pattern("single", nodes=[("x", "root")])
    pair = Pattern("pair", nodes=[("x", "root"), ("y", "_")], edges=[("x", "y", "e1")])
    return RuleSet(
        [
            NGD.from_text(single, "", "x.val < 0", name="every_root"),
            NGD.from_text(pair, "", "y.val < 0", name="every_e1_edge"),
        ]
    )


def test_lockstep_dect_when_the_seed_binds_every_variable(hub_graph):
    rules = seed_binds_everything_rules()
    full = dect_both_ways(hub_graph, rules)
    roots = len(hub_graph.nodes_with_label("root"))
    assert len([v for v in full.violations if v.rule == "every_root"]) == roots
    dect_both_ways(hub_graph, rules, budget=DetectionBudget(max_violations=roots // 2))
    dect_both_ways(hub_graph, rules, budget=DetectionBudget(max_cost=full.cost / 3))


@pytest.mark.parametrize("backend", STORES)
def test_lockstep_inc_dect(hub_graph, hub_rules, backend):
    # the second rule's pivots bind its whole two-variable pattern
    rules = RuleSet(list(hub_rules) + list(seed_binds_everything_rules()))
    graph = hub_graph.with_backend(new_store(backend))
    delta = UpdateGenerator(seed=5).generate(graph, 60, insert_ratio=0.5)
    after = apply_update(graph, delta)
    plans = compile_plans(after, rules)

    def both_ways(budget=None):
        events, result = finish(iter_inc_dect(graph, rules, delta, graph_after=after, budget=budget, plans=plans))
        stepped = stepped_inc_dect(graph, after, rules, delta, plans, budget)
        assert_same_run(result, [(event.violation, event.introduced) for event in events], stepped)
        return result

    full = both_ways()
    assert full.delta.total_changes() > 2
    changed = list(full.delta.introduced) + list(full.delta.removed)
    assert any(violation.rule == "every_e1_edge" for violation in changed)
    for share in (0.1, 0.5, 0.9):
        capped = both_ways(DetectionBudget(max_cost=full.cost * share))
        assert capped.stop_reason == "max_cost"
    assert both_ways(DetectionBudget(max_violations=2)).stop_reason == "max_violations"
