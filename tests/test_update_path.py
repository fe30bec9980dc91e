"""The incremental update path: one pivot pass over Σ, seeds straight into the core, |G_dΣ(ΔG)| on demand.

* the Σ-wide pivot pass against a per-rule enumeration written from the
  definition — the same pivots in the same order, and the same seeds (order,
  bound nodes) as the work unit the reference seeds;
* ΔVio against :mod:`naive_reference` along generated streams whose batches
  insert and delete the same edge, on the indexed engine and the dict oracle;
* a node ΔG introduces reaching the rules with an edge-less component, through
  IncDect, simulated and process PIncDect and a service session over HTTP;
* ``neighborhood_size``: no BFS while a default run drains, one on first read;
* the per-update fixed costs: a stored root order, one drift lookup per
  resolution, one plan-estimate sum per plan set.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import naive_reference
from repro.core.ngd import NGD, RuleSet
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import DetectionOptions, Detector
from repro.detect.incdect import iter_inc_dect
from repro.graph import neighborhood
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, NodePayload, UpdateGenerator, apply_update
from repro.matching.candidates import MatchStatistics
from repro.matching.incmatch import find_update_pivots, pivot_index, pivot_seeds, pivots_by_rule
from repro.matching.plan import MatchPlan, compile_plans
from repro.service import DetectionService, ServiceClient

from engines import new_store
from test_search_core import (
    EDGE_LABELS,
    NODE_LABELS,
    as_pairs,
    draw_batch,
    finish,
    graphs,
    literals,
    pivot_unit,
    pivots_by_definition,
    proven,
    rule_sets,
)

#: the mutable engine and the ``dict`` oracle (``tests/engines.py``)
STORES = ("indexed", "dict")

# ----------------------------------------------------------------- strategies


def shaped_rule(draw, name: str, nodes, edges, wildcard: bool = False) -> NGD:
    labels = st.just("_") if wildcard else st.sampled_from(NODE_LABELS + ("_",))
    pattern = Pattern(name, [(variable, draw(labels)) for variable in nodes], edges)
    premise = draw(st.lists(literals(list(nodes)), max_size=1))
    conclusion = draw(st.lists(literals(list(nodes)), min_size=1, max_size=1))
    return NGD(pattern, premise, conclusion, name=name)


@st.composite
def shaped_rule_sets(draw):
    """Generated rules plus the shapes a pivot seed binds more than one edge of.

    A pattern self-loop next to an edge on the same variable, two pattern
    edges between one variable pair in both directions plus a parallel one,
    and wildcard endpoints; every rule draws from the same two edge labels,
    so rules share labels throughout.
    """
    label = st.sampled_from(EDGE_LABELS)
    rules = list(draw(rule_sets()))
    rules.append(shaped_rule(draw, "loop", ("x", "y"), [("x", "x", draw(label)), ("x", "y", draw(label))]))
    rules.append(shaped_rule(draw, "both_ways", ("x", "y"), [("x", "y", "p"), ("y", "x", "p"), ("x", "y", "q")]))
    rules.append(shaped_rule(draw, "wild", ("x", "y"), [("x", "y", draw(label))], wildcard=True))
    return RuleSet(rules)


def draw_churn_batch(draw, graph: Graph, fresh: list) -> BatchUpdate:
    """A ΔG with edges that come and go inside it.

    :func:`draw_batch`'s deletions and insertions (some onto new nodes), then
    absent edges inserted and deleted again (some onto a new node, which
    stays), then existing edges deleted and inserted again.
    """
    delta = draw_batch(draw, graph, fresh)
    taken = {update.edge_key() for update in delta}
    nodes = list(graph.node_ids())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        source, payload = draw(st.sampled_from(nodes)), None
        if draw(st.booleans()):
            target = draw(st.sampled_from(nodes))
        else:
            target = f"new{len(fresh)}"
            fresh.append(target)
            payload = NodePayload(draw(st.sampled_from(NODE_LABELS)), {"val": draw(st.integers(-3, 3))})
        key = (source, target, draw(st.sampled_from(EDGE_LABELS)))
        if key not in taken and not graph.has_edge(*key):
            taken.add(key)
            delta.insert(*key, target_payload=payload).delete(*key)
    existing = [edge.key() for edge in graph.edges() if edge.key() not in taken]
    for key in draw(st.lists(st.sampled_from(existing), max_size=2, unique=True)) if existing else []:
        delta.delete(*key).insert(*key)
    return delta


# ------------------------------------------------ the Σ-wide pivot pass


def seeds_by_work_unit(index, rule, pivots, plan, before, after, stats) -> tuple[int, list[tuple]]:
    """How many pivots are consistent, and ``(order, bound nodes, from insertion)`` per proven one, the way a work unit is seeded."""
    consistent, seeds = 0, []
    for pivot in pivots:
        graph = after if pivot.from_insertion else before
        unit = pivot_unit(index, rule, pivot, plan, graph)
        if unit is not None:
            consistent += 1
            if proven(unit, plan, graph, stats):
                seeds.append((unit.order, tuple(node for _, node in unit.assignment), pivot.from_insertion))
    return consistent, seeds


@settings(max_examples=150, deadline=None)
@given(graphs(), shaped_rule_sets(), st.data())
def test_one_pass_over_sigma_gives_every_rules_pivots_and_seeds(graph, rules, data):
    delta = draw_churn_batch(data.draw, graph, [])
    after = apply_update(graph, delta)
    plans = compile_plans(after, rules)
    found = pivots_by_rule(rules, delta, graph, after)
    assert len(found) == len(rules)
    for index, rule in enumerate(rules):
        expected = pivots_by_definition(rule, delta, graph, after)
        assert [(site.seed, ids, inserted) for site, ids, inserted in found[index]] == [
            (pivot.variables, pivot.nodes, pivot.from_insertion) for pivot in expected
        ]
        assert find_update_pivots(rule, delta, graph, after) == expected
        made, by_unit = MatchStatistics(), MatchStatistics()
        seeds = pivot_seeds(plans[index], found[index], lambda inserted: after if inserted else graph, made)
        assert seeds == seeds_by_work_unit(index, rule, expected, plans[index], graph, after, by_unit)
        assert made.literal_evaluations == by_unit.literal_evaluations


@settings(max_examples=60, deadline=None)
@given(graphs(), shaped_rule_sets(), st.data())
def test_incdect_maintains_the_reference_through_edges_that_come_and_go(graph, rules, data):
    fresh: list = []
    maintained = {store: naive_reference.violations(graph, rules) for store in STORES}
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="batches")):
        delta = draw_churn_batch(data.draw, graph, fresh)
        after = apply_update(graph, delta)
        before_reference = naive_reference.violations(graph, rules)
        after_reference = naive_reference.violations(after, rules)
        for store in maintained:
            _, result = finish(
                iter_inc_dect(
                    graph.with_backend(new_store(store)), rules, delta, graph_after=after.with_backend(new_store(store))
                )
            )
            introduced, removed = as_pairs(result.delta.introduced), as_pairs(result.delta.removed)
            # an edge deleted and re-inserted may report a violation on both sides; nothing else may
            assert after_reference - before_reference <= introduced <= after_reference, store
            assert before_reference - after_reference <= removed <= before_reference, store
            maintained[store] = (maintained[store] - removed) | introduced
            assert maintained[store] == after_reference, store
        graph = after


def edge_rule() -> RuleSet:
    pattern = Pattern("edge", [("x", "a"), ("y", "a")], [("x", "y", "p")])
    return RuleSet([NGD.from_text(pattern, "", "y.val = 1", name="edge")])


def test_an_edge_inserted_and_deleted_in_one_update_is_no_match():
    graph = Graph("pair")
    graph.add_node(0, "a", {"val": 0})
    graph.add_node(1, "a", {"val": 0})
    graph.add_edge(1, 0, "p")
    for store in STORES:
        churn = BatchUpdate().insert(0, 1, "p").delete(0, 1, "p")
        result = finish(iter_inc_dect(graph.with_backend(new_store(store)), edge_rule(), churn))[1]
        assert result.delta.total_changes() == 0, store
        # deleted and re-inserted: on both sides, so Vio ⊕ ΔVio keeps it
        again = BatchUpdate().delete(1, 0, "p").insert(1, 0, "p")
        result = finish(iter_inc_dect(graph.with_backend(new_store(store)), edge_rule(), again))[1]
        assert as_pairs(result.delta.removed) == as_pairs(result.delta.introduced) == {("edge", (1, 0))}


def test_the_pivot_index_is_built_once_per_rule_set():
    loop = Pattern("loop", [("x", "a")], [("x", "x", "q")])
    lone = Pattern("lone", [("x", "a"), ("y", "_")], [("x", "x", "p")])
    rules = RuleSet(
        [*edge_rule(), NGD.from_text(loop, "", "x.val = 1", name="loop"), NGD.from_text(lone, "", "y.val = 1", name="lone")]
    )
    index = pivot_index(rules)
    assert pivot_index(rules) is index and list(index) == ["p", "q", None]
    [(rule_index, site)] = index["q"]
    assert rule_index == 1 and site.seed == ("x",) and site.internal == ((0, 0, "q"),)
    # the component without an edge: a new node of any label seeds y
    [(rule_index, node_site)] = index[None]
    assert rule_index == 2 and node_site.seed == ("y",) and node_site.label is None
    again = pivot_index(RuleSet(rules))
    assert again is not index and again["p"][0][1] is index["p"][0][1], "a pattern keeps its sites"
    assert rules.diameter() == 1


# ------------------------------------------------- nodes that ΔG introduces


def introduced_node_probe() -> tuple[Graph, RuleSet, BatchUpdate]:
    """One person ``a``; ΔG links it to a new person ``b`` that breaks two rules with an edge-less component.

    ``nonneg`` is a one-node pattern and ``spread`` two variables with no
    edge between them, so no update pivot lands on either: only the node
    ΔG introduces can seed their search.
    """
    graph = Graph("probe")
    graph.add_node("a", "person", {"age": 5})
    one = Pattern("one", [("x", "person")])
    two = Pattern("two", [("x", "person"), ("y", "person")])
    rules = RuleSet(
        [
            NGD.from_text(one, "", "x.age >= 0", name="nonneg"),
            NGD.from_text(two, "", "x.age <= y.age + 3", name="spread"),
        ]
    )
    delta = BatchUpdate().insert("a", "b", "knows", target_payload=NodePayload("person", {"age": -1}))
    return graph, rules, delta


def probe_over_http(graph: Graph, rules: RuleSet, delta: BatchUpdate) -> tuple[set, set]:
    """ΔVio as a continuous service session reports it for the one posted update."""
    with DetectionService(port=0) as service:
        client = ServiceClient(service.url)
        client.register_graph("probe", graph)
        session = client.create_session("probe", rules=rules)["session"]
        client.post_update("probe", delta)
        (reported,) = client.session_deltas(session)["deltas"]
    return tuple({(v["rule"], tuple(v["nodes"])) for v in reported[side]} for side in ("introduced", "removed"))


def probe_through(path: str, graph: Graph, rules: RuleSet, delta: BatchUpdate) -> tuple[set, set]:
    if path == "http-session":
        return probe_over_http(graph, rules, delta)
    detector = {
        "incdect": lambda: Detector(rules, engine="incremental"),
        "simulated-pincdect": lambda: Detector(rules, engine="parallel", processors=2),
        "process-pincdect": lambda: Detector(
            rules, engine="parallel", processors=2, options=DetectionOptions(execution="processes")
        ),
    }[path]()
    result = detector.run_incremental(graph, delta)
    return as_pairs(result.delta.introduced), as_pairs(result.delta.removed)


@pytest.mark.parametrize("path", ("incdect", "simulated-pincdect", "process-pincdect", "http-session"))
def test_a_node_that_delta_introduces_seeds_every_edgeless_component_it_fits(path):
    graph, rules, delta = introduced_node_probe()
    after = apply_update(graph, delta)
    expected = naive_reference.violations(after, rules) - naive_reference.violations(graph, rules)
    assert expected == {("nonneg", ("b",)), ("spread", ("a", "b"))}
    assert probe_through(path, graph, rules, delta) == (expected, set())


def test_spawned_workers_seed_the_new_node_from_pickled_plans(force_start_method):
    force_start_method("spawn")
    graph, rules, delta = introduced_node_probe()
    introduced, _ = probe_through("process-pincdect", graph, rules, delta)
    assert introduced == {("nonneg", ("b",)), ("spread", ("a", "b"))}


# ------------------------------------------------------ the lazy neighbourhood


#: what IncDect reported on :func:`kb` while it still charged the BFS of
#: ``G_dΣ(ΔG)``, and PIncDect's makespan at four processors; both since the
#: pivots that their own literals refuse start no search
REFERENCE_COSTS = (578.0, 197.75)


@pytest.fixture(scope="module")
def kb():
    """The KB of ``test_detection.py`` with 40 unit updates; every count below was read at the parent."""
    graph = knowledge_graph(
        KBConfig(
            name="kb-test",
            num_entities=120,
            num_entity_types=4,
            num_value_relations=4,
            num_link_relations=3,
            values_per_entity=3,
            links_per_entity=1.5,
            error_rate=0.1,
            seed=5,
        )
    )
    rules = benchmark_rules(graph, count=10, max_diameter=4, seed=1)
    return graph, rules, UpdateGenerator(seed=11).generate(graph, 40, insert_ratio=0.5)


BFS = neighborhood.multi_source_nodes_within_hops


@pytest.fixture
def bfs_calls(monkeypatch):
    """Count every multi-source BFS, whichever module imported the function."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return BFS(*args, **kwargs)

    monkeypatch.setattr(neighborhood, "multi_source_nodes_within_hops", counted)
    for module in ("repro.detect.incdect", "repro.detect.parallel.pincdect"):
        monkeypatch.setattr(f"{module}.multi_source_nodes_within_hops", counted, raising=False)
    return calls


def test_a_default_update_counts_its_neighbourhood_only_when_asked(kb, bfs_calls):
    graph, rules, delta = kb
    detector = Detector(rules, engine="incremental")
    events = list(detector.stream_incremental(graph, delta))
    result = detector.last_result
    assert bfs_calls == [], "the BFS ran while the update drained"
    assert len(events) == result.total_changes() == 4
    eager = len(BFS(apply_update(graph, delta), delta.touched_nodes(), max(rules.diameter(), 1)))
    assert result.neighborhood_size == eager == 459
    assert len(bfs_calls) == 1
    assert result.neighborhood_size == 459 and len(bfs_calls) == 1
    # what the search touched; the 459 BFS nodes were once charged on top
    assert result.cost + 459 == REFERENCE_COSTS[0]


def test_a_pickled_result_carries_the_count_not_the_snapshot(kb, bfs_calls):
    graph, rules, delta = kb
    result = Detector(rules, engine="incremental").run_incremental(graph, delta)
    loaded = pickle.loads(pickle.dumps(result))
    assert len(bfs_calls) == 1
    assert vars(loaded)["_neighborhood_size"] == 459 and "_pending_neighborhood" not in vars(loaded)
    assert loaded.neighborhood_size == result.neighborhood_size == 459 and len(bfs_calls) == 1
    assert loaded == result


def test_parallel_runs_measure_it_up_front_as_before(kb, bfs_calls):
    graph, rules, delta = kb
    parallel = Detector(rules, engine="parallel", processors=4).run_incremental(graph, delta)
    assert len(bfs_calls) == 1
    assert (parallel.neighborhood_size, parallel.cost, parallel.total_changes()) == (459, REFERENCE_COSTS[1], 4)
    assert len(bfs_calls) == 1


# ------------------------------------------------------ per-update fixed costs


def test_a_plan_stores_its_root_order(kb):
    graph, rules, _ = kb
    for plan in compile_plans(graph, rules):
        assert plan.order is plan.order == tuple(step.variable for step in plan.steps)
        assert pickle.loads(pickle.dumps(plan)).order == plan.order


def test_the_plan_estimate_is_summed_once_per_plan_set(kb, monkeypatch):
    graph, rules, delta = kb
    detector = Detector(rules, engine="incremental")
    plans = detector.compile_plans(graph)
    summed = []
    real = MatchPlan.estimated_unit_cost
    monkeypatch.setattr(MatchPlan, "estimated_unit_cost", lambda plan, depth: summed.append(depth) or real(plan, depth))
    for _ in range(3):
        detector.run_incremental(graph, delta)
    assert len(summed) == len(plans)
