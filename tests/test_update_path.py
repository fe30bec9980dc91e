"""The incremental update path: one pivot pass over Σ, seeds straight into the core, |G_dΣ(ΔG)| on demand.

* the Σ-wide pivot pass against a per-rule enumeration written from the
  definition — the same pivots in the same order, and the same seeds (order,
  bound nodes) as the work unit the reference seeds;
* ΔVio against :mod:`naive_reference` along generated streams whose batches
  insert and delete the same edge, on the indexed, dict and persistent engines;
* ``neighborhood_size``: no BFS while a default run drains, one on first read;
* the per-update fixed costs: a stored root order, one drift lookup per
  resolution, one plan-estimate sum per plan set.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import naive_reference
from repro import obs
from repro.core.ngd import NGD, RuleSet
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import DetectionOptions, Detector
from repro.detect.incdect import iter_inc_dect
from repro.graph import neighborhood
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, NodePayload, UpdateGenerator, apply_update
from repro.matching import adaptive
from repro.matching.incmatch import find_update_pivots, pivot_index, pivots_by_rule
from repro.matching.plan import MatchPlan, compile_plans
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
    rule_sets,
)

STORES = ("indexed", "dict", "persistent")

# ----------------------------------------------------------------- strategies


def shaped_rule(draw, name: str, nodes, edges, wildcard: bool = False) -> NGD:
    labels = st.just("_") if wildcard else st.sampled_from(NODE_LABELS + ("_",))
    pattern = Pattern.from_edges(name, [(variable, draw(labels)) for variable in nodes], edges)
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
    rules = list(draw(rule_sets(allow_isolated=False)))
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


def seeds_by_work_unit(index, rule, pivots, plan, before, after) -> list[tuple]:
    """``(order, bound nodes, from insertion)`` per consistent pivot, the way a work unit is seeded."""
    seeds = []
    for pivot in pivots:
        unit = pivot_unit(index, rule, pivot, plan, after if pivot.from_insertion else before)
        if unit is not None:
            seeds.append((unit.order, tuple(node for _, node in unit.assignment), pivot.from_insertion))
    return seeds


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
        assert [(site.edge, u.source, u.target, u.is_insertion) for site, u in found[index]] == [
            (pivot.pattern_edge, pivot.source_node, pivot.target_node, pivot.from_insertion) for pivot in expected
        ]
        assert find_update_pivots(rule, delta, graph, after) == expected
        seeds = []
        for site, update in found[index]:
            ids = site.ids(update)
            if site.holds_in((after if update.is_insertion else graph).store, ids):
                seeds.append((site.order(plans[index]), ids, update.is_insertion))
        assert seeds == seeds_by_work_unit(index, rule, expected, plans[index], graph, after)


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
                iter_inc_dect(graph.with_backend(store), rules, delta, graph_after=after.with_backend(store))
            )
            introduced, removed = as_pairs(result.delta.introduced), as_pairs(result.delta.removed)
            # an edge deleted and re-inserted may report a violation on both sides; nothing else may
            assert after_reference - before_reference <= introduced <= after_reference, store
            assert before_reference - after_reference <= removed <= before_reference, store
            maintained[store] = (maintained[store] - removed) | introduced
            assert maintained[store] == after_reference, store
        graph = after


def edge_rule() -> RuleSet:
    pattern = Pattern.from_edges("edge", [("x", "a"), ("y", "a")], [("x", "y", "p")])
    return RuleSet([NGD.from_text(pattern, "", "y.val = 1", name="edge")])


def test_an_edge_inserted_and_deleted_in_one_update_is_no_match():
    graph = Graph("pair")
    graph.add_node(0, "a", {"val": 0})
    graph.add_node(1, "a", {"val": 0})
    graph.add_edge(1, 0, "p")
    for store in STORES:
        churn = BatchUpdate().insert(0, 1, "p").delete(0, 1, "p")
        result = finish(iter_inc_dect(graph.with_backend(store), edge_rule(), churn))[1]
        assert result.delta.total_changes() == 0, store
        # deleted and re-inserted: on both sides, so Vio ⊕ ΔVio keeps it
        again = BatchUpdate().delete(1, 0, "p").insert(1, 0, "p")
        result = finish(iter_inc_dect(graph.with_backend(store), edge_rule(), again))[1]
        assert as_pairs(result.delta.removed) == as_pairs(result.delta.introduced) == {("edge", (1, 0))}


def test_the_pivot_index_is_kept_per_rule_set_until_a_rule_is_added():
    rules = edge_rule()
    index = pivot_index(rules)
    assert pivot_index(rules) is index and list(index) == ["p"]
    loop = Pattern.from_edges("loop", [("x", "a")], [("x", "x", "q")])
    rules.add(NGD.from_text(loop, "", "x.val = 1", name="loop"))
    rebuilt = pivot_index(rules)
    assert rebuilt is not index and sorted(rebuilt) == ["p", "q"]
    [(rule_index, site)] = rebuilt["q"]
    assert rule_index == 1 and site.seed == ("x",) and site.internal == ((0, 0, "q"),)
    assert rebuilt["p"][0][1] is index["p"][0][1], "a pattern keeps its sites"
    assert rules.diameter() == 1


# ------------------------------------------------------ the lazy neighbourhood


#: what the parent commit reported on :func:`kb`: (IncDect cost, restricted
#: IncDect cost, PIncDect makespan at four processors)
PARENT_COSTS = (589.0, 1105.0, 205.75)


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
    # what the search touched; the parent charged the 459 BFS nodes on top
    assert result.cost + 459 == PARENT_COSTS[0]


def test_a_pickled_result_carries_the_count_not_the_snapshot(kb, bfs_calls):
    graph, rules, delta = kb
    result = Detector(rules, engine="incremental").run_incremental(graph, delta)
    loaded = pickle.loads(pickle.dumps(result))
    assert len(bfs_calls) == 1
    assert vars(loaded)["_neighborhood_size"] == 459 and "_pending_neighborhood" not in vars(loaded)
    assert loaded.neighborhood_size == result.neighborhood_size == 459 and len(bfs_calls) == 1
    assert loaded == result


def test_restricted_and_parallel_runs_measure_it_up_front_as_before(kb, bfs_calls):
    graph, rules, delta = kb
    restricted = Detector(
        rules, engine="incremental", options=DetectionOptions(restrict_to_neighborhood=True)
    ).run_incremental(graph, delta)
    assert len(bfs_calls) == 2  # G_dΣ(ΔG) extracted in G and in G ⊕ ΔG
    _, restricted_cost, parallel_cost = PARENT_COSTS
    assert (restricted.neighborhood_size, restricted.cost, restricted.total_changes()) == (975, restricted_cost, 4)
    parallel = Detector(rules, engine="parallel", processors=4).run_incremental(graph, delta)
    assert len(bfs_calls) == 3
    assert (parallel.neighborhood_size, parallel.cost, parallel.total_changes()) == (459, parallel_cost, 4)
    assert len(bfs_calls) == 3


# ------------------------------------------------------ per-update fixed costs


def test_a_plan_stores_its_root_order(kb):
    graph, rules, _ = kb
    for plan in compile_plans(graph, rules):
        assert plan.order is plan.order == tuple(step.variable for step in plan.steps)
        assert pickle.loads(pickle.dumps(plan)).order == plan.order


def test_resolving_controllers_reads_the_drift_setting_once(kb, monkeypatch):
    graph, rules, _ = kb
    plans = compile_plans(graph, rules)
    reads = []
    monkeypatch.setattr(adaptive, "drift_threshold", lambda: reads.append(1) or 3.0)
    controllers = adaptive.resolve_adaptive(plans, True)
    assert len(reads) == 1 and {controller.threshold for controller in controllers} == {3.0}


def test_the_plan_estimate_is_summed_once_per_plan_set(kb, monkeypatch):
    graph, rules, delta = kb
    detector = Detector(rules, engine="incremental")
    plans = detector.compile_plans(graph)
    summed = []
    real = MatchPlan.estimated_unit_cost
    monkeypatch.setattr(MatchPlan, "estimated_unit_cost", lambda plan, depth: summed.append(depth) or real(plan, depth))
    for _ in range(3):
        detector.run_incremental(graph, delta)
    assert len(summed) == (len(plans) if obs.enabled() else 0)
