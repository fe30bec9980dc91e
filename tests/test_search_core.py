"""The search core against the specification, and against its own single-step form.

Two layers:

* a differential over generated graphs, rules and ΔG batches: the serial
  kernels (Dect and IncDect, both thin drivers over
  :class:`~repro.matching.search.RuleSearch`) must equal the naive reference
  of :mod:`naive_reference` — ``Vio(Σ, G)`` on the mutable and the frozen
  engine, and ``Vio(Σ, G ⊕ ΔG) = Vio(Σ, G) ⊕ ΔVio`` along an update stream —
  and so must the core's matcher view (``HomomorphismMatcher``), which
  enumerates homomorphisms rather than violations; over one plan, the core's
  two leaves split the same bindings;
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
from repro.core.builtin_rules import example_rules
from repro.core.ngd import NGD, RuleSet
from repro.datasets.figure1 import figure1_g2
from repro.detect.dect import iter_dect
from repro.detect.incdect import iter_inc_dect
from repro.detect.observers import DetectionBudget
from repro.detect.parallel.workunits import WorkUnit, expand_work_unit, rule_search
from repro.detect.session import PLAN_DRIFT_TOLERANCE, Detector
from repro.errors import ExecutionError
from repro.experiments.runner import _correlated_hub_graph, _selftuning_rules
from repro.expr.expressions import Add, const, var
from repro.expr.literals import Comparison, Literal
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, NodePayload, UpdateGenerator, apply_update
from repro.matching.adaptive import AdaptiveController
from repro.matching.candidates import MatchStatistics
from repro.matching.incmatch import UpdatePivot
from repro.matching.matchn import HomomorphismMatcher
from repro.matching.plan import GraphStatistics, compile_plans, first_step_candidates
from repro.matching.search import RuleSearch

STORES = ("indexed", "csr")
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
    left = var(draw(st.sampled_from(variables)))
    shift = const(draw(st.integers(min_value=-2, max_value=2)))
    right = draw(st.one_of(st.just(shift), st.sampled_from(variables).map(lambda v: Add(var(v), shift))))
    return Literal(left, draw(st.sampled_from(list(Comparison))), right)


@st.composite
def rule_sets(draw, allow_isolated: bool = True):
    """One to three rules of one to four variables; cycles, self-loops and wildcards included.

    ``allow_isolated=False`` gives every variable an incident pattern edge:
    edge-driven incremental detection can only see a new node through the
    edges inserted with it.
    """
    rules = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        variables = [f"x{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
        pattern = Pattern(f"q{index}")
        for variable in variables:
            pattern.add_node(variable, draw(st.sampled_from(NODE_LABELS + ("_",))))
        edges = set(
            draw(
                st.lists(
                    st.tuples(st.sampled_from(variables), st.sampled_from(variables), st.sampled_from(EDGE_LABELS)),
                    max_size=5,
                )
            )
        )
        if not allow_isolated:
            touched = {endpoint for source, target, _ in edges for endpoint in (source, target)}
            edges |= {(variable, draw(st.sampled_from(variables)), "p") for variable in variables if variable not in touched}
        for edge in sorted(edges):
            pattern.add_edge(*edge)
        premise = draw(st.lists(literals(variables), max_size=2))
        conclusion = draw(st.lists(literals(variables), min_size=1, max_size=2))
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


@settings(max_examples=200, deadline=None)
@given(graphs(), rule_sets())
def test_dect_equals_the_reference_on_both_engines(graph, rules):
    expected = naive_reference.violations(graph, rules)
    for store in STORES:
        stream, result = finish(iter_dect(graph.with_backend(store), rules))
        assert as_pairs(result.violations) == expected, store
        assert len(stream) == len(expected), "a violation streamed twice"


@settings(max_examples=200, deadline=None)
@given(graphs(), rule_sets(allow_isolated=False), st.data())
def test_incdect_maintains_the_reference_along_an_update_stream(graph, rules, data):
    fresh: list = []
    maintained = {store: finish(iter_dect(graph.with_backend(store), rules))[1].violations for store in STORES}
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="batches")):
        delta = draw_batch(data.draw, graph, fresh)
        after = apply_update(graph, delta)
        before_reference = naive_reference.violations(graph, rules)
        after_reference = naive_reference.violations(after, rules)
        for store in STORES:
            _, result = finish(
                iter_inc_dect(graph.with_backend(store), rules, delta, graph_after=after.with_backend(store))
            )
            # ΔVio is exact, not merely sufficient: nothing reported that did not change
            assert as_pairs(result.delta.introduced) == after_reference - before_reference, store
            assert as_pairs(result.delta.removed) == before_reference - after_reference, store
            maintained[store] = maintained[store].apply_delta(result.delta)
            assert as_pairs(maintained[store]) == after_reference, store
        graph = after


@settings(max_examples=100, deadline=None)
@given(graphs(), rule_sets(allow_isolated=False), st.data())
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
    """Wildcards, self-loops and disconnected patterns included; premise pruning on and off."""
    for rule in rules:
        every = {tuple(sorted(h.items())) for h in naive_reference.matches(graph, rule.pattern)}
        in_premise = {h for h in every if naive_reference.satisfies(graph, dict(h), rule.premise)}
        for store in STORES:
            target = graph.with_backend(store)
            statistics = GraphStatistics.from_graph(target)
            for pruning, expected in ((False, every), (True, in_premise)):
                matcher = HomomorphismMatcher(
                    target, rule.pattern, rule.premise, use_literal_pruning=pruning, statistics=statistics
                )
                stream = [tuple(sorted(match.items())) for match in matcher.matches()]
                assert set(stream) == expected, (store, pruning)
                assert len(stream) == len(expected), "a match streamed twice"
                assert matcher.stats.matches_emitted == len(expected)


def self_loop_rule() -> RuleSet:
    pattern = Pattern.from_edges("loop", nodes=[("x", "a"), ("y", "a")], edges=[("x", "x", "p"), ("x", "y", "p")])
    return RuleSet([NGD.from_text(pattern, "", "y.val = 1", name="loop")])


def test_a_seed_must_carry_the_first_variables_self_loop():
    # found by the differential above: no later step verifies that pattern edge
    graph = Graph("loops")
    for node_id in range(3):
        graph.add_node(node_id, "a", {"val": 0})
    for source, target in ((0, 0), (0, 1), (1, 2)):
        graph.add_edge(source, target, "p")
    rules = self_loop_rule()
    assert naive_reference.violations(graph, rules) == {("loop", (0, 0)), ("loop", (0, 1))}
    for store in STORES + ("dict",):
        result = finish(iter_dect(graph.with_backend(store), rules))[1]
        assert as_pairs(result.violations) == {("loop", (0, 0)), ("loop", (0, 1))}, store
    single = RuleSet([NGD.from_text(Pattern.from_edges("one", [("x", "a")], [("x", "x", "p")]), "", "x.val = 1")])
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


def leaves(search: RuleSearch, graph: Graph, order) -> list[tuple]:
    """Drain ``search`` from the empty seed; the bindings its leaf kept, as ``h(x̄)``."""
    search.start(graph, order, ())
    kept = []
    while search.stack:
        kept.extend(violation.nodes for violation in search.step())
    return kept


@pytest.mark.parametrize("store", STORES + ("dict",))
def test_the_two_leaves_split_the_same_bindings(store):
    """Over one plan, the match leaf keeps every homomorphism and the violation leaf those that fail X → Y."""
    base = figure1_g2()
    graph = base.with_backend(store)
    rules = example_rules()
    for rule, plan in zip(rules, compile_plans(graph, rules)):
        every = [h for h in naive_reference.matches(base, rule.pattern)]
        failing = {
            tuple(h[variable] for variable in rule.pattern.variables)
            for h in every
            if naive_reference.satisfies(base, h, rule.premise) and not naive_reference.satisfies(base, h, rule.conclusion)
        }
        stats = MatchStatistics()
        kept = leaves(RuleSearch(plan, False, stats, all_matches=True), graph, plan.order)
        assert sorted(kept, key=repr) == sorted((tuple(h[v] for v in rule.pattern.variables) for h in every), key=repr)
        assert stats.matches_emitted == len(every) and stats.literal_evaluations == 0, "the match leaf reads no literal"
        for pruning in (True, False):
            violating = leaves(rule_search(rule, plan, pruning, MatchStatistics()), graph, plan.order)
            assert set(violating) == failing and len(violating) == len(failing), (rule.name, pruning)
    assert any(naive_reference.violations(base, rules))


def test_a_plan_runs_only_the_rule_it_was_compiled_for():
    graph = figure1_g2()
    first, second = list(example_rules())[:2]
    plan = compile_plans(graph, [first])[0]
    assert rule_search(first, plan, True, MatchStatistics()).rule is first
    with pytest.raises(ExecutionError):
        rule_search(second, plan, True, MatchStatistics())
    # an equal rule is not the rule: the schedule indexes that object's literals
    twin = NGD(first.pattern, first.premise, first.conclusion, name=first.name)
    with pytest.raises(ExecutionError):
        rule_search(twin, plan, True, MatchStatistics())


def test_every_kernel_builds_its_core_through_one_constructor():
    # module objects: the package re-exports functions under the same names
    for name in ("repro.detect.dect", "repro.detect.incdect"):
        assert importlib.import_module(name).rule_search is rule_search, name


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

    def drain(self, stack, graphs, rule, plan, controller, seen) -> None:
        """``graphs`` and ``seen`` are indexed by a unit's ``from_insertion``."""
        while stack and self.stop_reason is None:
            unit = stack.pop()
            outcome = expand_work_unit(
                graphs[unit.from_insertion], rule, unit, True, self.stats, plan=plan, adaptive=controller
            )
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


def stepped_dect(graph, rules, plans, controllers, budget=None) -> Stepped:
    run = Stepped(budget)
    seen = {True: set()}
    for index, (rule, plan) in enumerate(zip(rules, plans)):
        candidates, scan_cost = first_step_candidates(graph, rule, plan, plan.order, True, run.stats, compiled=True)
        run.cost += scan_cost
        if run.cost_exhausted():
            break
        stack = [WorkUnit(index, plan.order, ((plan.order[0], candidate),)) for candidate in candidates]
        if len(plan.order) == 1:
            stack.reverse()  # complete seeds have no subtree: they stream in rank order
        run.drain(stack, {True: graph}, rule, plan, controllers[index], seen)
        if run.stop_reason is not None:
            break
    return run


def pivots_by_definition(rule: NGD, delta: BatchUpdate, before: Graph, after: Graph) -> list[UpdatePivot]:
    """One rule's update pivots (Section 6.2), unit update by unit update, then pattern edge by pattern edge."""
    pivots = []
    for update in delta:
        graph = after if update.is_insertion else before
        if not (graph.has_node(update.source) and graph.has_node(update.target)):
            continue
        source_label, target_label = graph.node(update.source).label, graph.node(update.target).label
        for edge in rule.pattern.edges():
            if edge.label != update.label or (edge.source == edge.target and update.source != update.target):
                continue
            pattern = rule.pattern
            if pattern.node(edge.source).matches_label(source_label) and pattern.node(edge.target).matches_label(
                target_label
            ):
                pivots.append(UpdatePivot(rule.name, edge, update.source, update.target, update.is_insertion))
    return pivots


def pivot_unit(index: int, rule: NGD, pivot: UpdatePivot, plan, graph: Graph):
    """The work unit a pivot seeds — its variables first, in the plan's order — or
    None when a pattern edge between two seed variables is not an edge of ``graph``."""
    seed = pivot.seed()
    order = plan.order_for_seed(tuple(seed))
    for edge in rule.pattern.edges():
        if edge.source in seed and edge.target in seed and not graph.has_edge(seed[edge.source], seed[edge.target], edge.label):
            return None
    return WorkUnit(index, order, tuple((variable, seed[variable]) for variable in order if variable in seed), pivot.from_insertion)


def stepped_inc_dect(graph, after, rules, delta, plans, controllers, budget=None) -> Stepped:
    run = Stepped(budget)
    graphs, seen = {True: after, False: graph}, {True: set(), False: set()}
    for index, (rule, plan) in enumerate(zip(rules, plans)):
        if run.cost_exhausted():
            break
        stack = []
        for pivot in pivots_by_definition(rule, delta, graph, after):
            unit = pivot_unit(index, rule, pivot, plan, graphs[pivot.from_insertion])
            if unit is not None:
                run.cost += 1.0
                stack.append(unit)
        run.drain(stack, graphs, rule, plan, controllers[index], seen)
        if run.stop_reason is not None:
            break
    return run


def controllers_for(plans, threshold):
    return [AdaptiveController(plan, threshold) for plan in plans]


def assert_same_run(result, stream, stepped: Stepped) -> None:
    assert stream == stepped.stream, "violations streamed in a different order"
    assert result.cost == stepped.cost
    assert result.stop_reason == stepped.stop_reason
    for field in ("candidates_examined", "expansions", "edge_checks", "literal_evaluations", "matches_emitted"):
        assert getattr(result.stats, field) == getattr(stepped.stats, field), field
    assert result.stats.extra == stepped.stats.extra


def dect_both_ways(graph, rules, budget=None, threshold=None):
    plans = compile_plans(graph, rules)
    driven = controllers_for(plans, threshold)
    stream, result = finish(iter_dect(graph, rules, budget=budget, plans=plans, adaptive=driven))
    stepped_controllers = controllers_for(plans, threshold)
    stepped = stepped_dect(graph, list(rules), plans, stepped_controllers, budget)
    assert_same_run(result, [(violation, True) for violation in stream], stepped)
    assert [c.replans for c in driven] == [c.replans for c in stepped_controllers]
    assert [c.snapshot() for c in driven] == [c.snapshot() for c in stepped_controllers]
    return result, driven


@pytest.fixture(scope="module")
def hub_graph():
    return _correlated_hub_graph(roots=40, wide=8, narrow=3, survivor_stride=7)


@pytest.fixture(scope="module")
def hub_rules():
    return _selftuning_rules()


@pytest.mark.parametrize("store", STORES)
def test_lockstep_dect(hub_graph, hub_rules, store):
    result, _ = dect_both_ways(hub_graph.with_backend(store), hub_rules)
    assert len(result.violations) > 0 and not result.stopped_early


def naive_reference_on_hub(graph, rules) -> set[tuple]:
    """The hub graph is too large for the product enumeration; the static run is its reference."""
    return as_pairs(finish(iter_dect(graph, rules, adaptive=False))[1].violations)


def test_lockstep_dect_with_a_forced_replan(hub_graph, hub_rules):
    # a drift ratio just above 1: any step whose observed mean is not its estimate re-orders the suffix
    result, controllers = dect_both_ways(hub_graph, hub_rules, threshold=1.000001)
    assert sum(controller.replans for controller in controllers) > 0, "the workload must replan"
    assert as_pairs(result.violations) == naive_reference_on_hub(hub_graph, hub_rules)


def test_lockstep_dect_stops_where_the_stepped_run_stops(hub_graph, hub_rules):
    full, _ = dect_both_ways(hub_graph, hub_rules)
    for share in (0.05, 0.3, 0.6, 0.95):
        capped, _ = dect_both_ways(hub_graph, hub_rules, budget=DetectionBudget(max_cost=full.cost * share))
        assert capped.stop_reason == "max_cost" and capped.cost < full.cost
    for cap in (1, 2, len(full.violations) - 1):
        capped, _ = dect_both_ways(hub_graph, hub_rules, budget=DetectionBudget(max_violations=cap))
        assert capped.stop_reason == "max_violations" and len(capped.violations) == cap
    # budgets and replans together
    dect_both_ways(hub_graph, hub_rules, budget=DetectionBudget(max_cost=full.cost * 0.5), threshold=1.000001)


def seed_binds_everything_rules() -> RuleSet:
    single = Pattern.from_edges("single", nodes=[("x", "root")])
    pair = Pattern.from_edges("pair", nodes=[("x", "root"), ("y", "_")], edges=[("x", "y", "e1")])
    return RuleSet(
        [
            NGD.from_text(single, "", "x.val < 0", name="every_root"),
            NGD.from_text(pair, "", "y.val < 0", name="every_e1_edge"),
        ]
    )


def test_lockstep_dect_when_the_seed_binds_every_variable(hub_graph):
    rules = seed_binds_everything_rules()
    full, _ = dect_both_ways(hub_graph, rules)
    roots = len(hub_graph.nodes_with_label("root"))
    assert len([v for v in full.violations if v.rule == "every_root"]) == roots
    dect_both_ways(hub_graph, rules, budget=DetectionBudget(max_violations=roots // 2))
    dect_both_ways(hub_graph, rules, budget=DetectionBudget(max_cost=full.cost / 3))


@pytest.mark.parametrize("threshold", [None, 1.000001])
def test_lockstep_inc_dect(hub_graph, hub_rules, threshold):
    # the second rule's pivots bind its whole two-variable pattern
    rules = RuleSet(list(hub_rules) + list(seed_binds_everything_rules()))
    delta = UpdateGenerator(seed=5).generate(hub_graph, 60, insert_ratio=0.5)
    after = apply_update(hub_graph, delta)
    plans = compile_plans(after, rules)

    def both_ways(budget=None):
        driven = controllers_for(plans, threshold)
        events, result = finish(
            iter_inc_dect(hub_graph, rules, delta, graph_after=after, budget=budget, plans=plans, adaptive=driven)
        )
        stepped_controllers = controllers_for(plans, threshold)
        stepped = stepped_inc_dect(hub_graph, after, rules, delta, plans, stepped_controllers, budget)
        assert_same_run(result, [(event.violation, event.introduced) for event in events], stepped)
        assert [c.snapshot() for c in driven] == [c.snapshot() for c in stepped_controllers]
        return result

    full = both_ways()
    assert full.delta.total_changes() > 2
    changed = list(full.delta.introduced) + list(full.delta.removed)
    assert any(violation.rule == "every_e1_edge" for violation in changed)
    for share in (0.1, 0.5, 0.9):
        capped = both_ways(DetectionBudget(max_cost=full.cost * share))
        assert capped.stop_reason == "max_cost"
    assert both_ways(DetectionBudget(max_violations=2)).stop_reason == "max_violations"
