"""One plan per run, run as compiled.

Every kernel executes the plans it is handed in their compiled order: no run
re-orders a plan mid-search, folds what an earlier run observed into a
compile, or trades its plans for ones compiled over an extracted region.
The hub workload of :mod:`hub_workload` is where a run that did any of that
would show it, because its compiled order is not its cheapest one.
"""

from __future__ import annotations

import pytest

from repro.core.violations import ViolationDelta
from repro.detect import DetectionOptions, Detector
from repro.graph.updates import BatchUpdate, UpdateGenerator, apply_update
from repro.matching.plan import MatchPlan, compile_plans

from engines import new_store
from hub_workload import correlated_hub_graph, hub_rules


@pytest.fixture(scope="module")
def hub_graph():
    return correlated_hub_graph(roots=120, wide=20, narrow=3, survivor_stride=97)


@pytest.fixture(scope="module")
def rules():
    return hub_rules()


def _counts(result) -> tuple:
    return (result.cost, result.stats, result.violations.to_json())


def test_a_default_run_bills_the_compiled_order(hub_graph, rules):
    assert compile_plans(hub_graph, rules)[0].order == ("x", "y", "z")
    result = Detector(rules, engine="batch").run(hub_graph)
    # the order the statistics choose expands every a-node before the
    # near-empty b step prunes
    assert result.stats.total_operations() == 15_750
    assert len(result.violations) == 75


@pytest.mark.parametrize("backend", ("dict", "indexed"))
@pytest.mark.parametrize("engine,processors", [("batch", None), ("parallel", 4)])
def test_every_engine_and_backend_bills_the_compiled_order(hub_graph, rules, engine, processors, backend):
    reference = Detector(rules, engine="batch").run(hub_graph.with_backend(new_store("dict")))
    result = Detector(rules, engine=engine, processors=processors).run(hub_graph.with_backend(new_store(backend)))
    assert result.violations.to_json() == reference.violations.to_json()
    assert result.stats == reference.stats
    assert result.stats.total_operations() == 15_750


@pytest.fixture(scope="module")
def pinned_plan(hub_graph, rules):
    """The hub rule's plan pinned to ``x, z, y``, where a compile orders ``x, y, z``."""
    (plan,) = compile_plans(hub_graph, rules)
    return MatchPlan(plan.rule, plan.statistics, ("x", "z", "y"))


def test_a_pinned_plan_runs_its_order(hub_graph, rules, pinned_plan):
    assert pinned_plan.order == ("x", "z", "y") != compile_plans(hub_graph, rules)[0].order
    # the estimates come from the statistics alone
    assert [step.estimated_candidates for step in pinned_plan.steps] == [120.0, 20.0, 3.0]

    handed = Detector(rules, engine="batch").run(hub_graph, plans=(pinned_plan,))
    default = Detector(rules, engine="batch").run(hub_graph)
    assert (handed.cost, handed.stats.total_operations()) == (2695.0, 5245)
    assert handed.violations.to_json() == default.violations.to_json()
    assert handed.stats.total_operations() < default.stats.total_operations()


@pytest.mark.parametrize("backend", ("dict", "indexed"))
@pytest.mark.parametrize("engine,processors,cost", [("incremental", None, 14.0), ("parallel", 4, 84.0)])
def test_a_pinned_plan_updates_like_two_batch_runs(hub_graph, rules, pinned_plan, engine, processors, cost, backend):
    graph = hub_graph.with_backend(new_store(backend))
    # b0_0 and b4_17 are premise survivors: r1 gains one, r4 loses its only one
    delta = BatchUpdate().insert("r1", "b0_0", "e2").delete("r4", "b4_17", "e2")
    handed = Detector(rules, engine=engine, processors=processors).run_incremental(
        graph, delta, plans=(pinned_plan,)
    )
    # ΔVio by its definition, from two full runs (the naive matcher is too slow on 2,880 nodes)
    batch = Detector(rules, engine="batch")
    oracle = ViolationDelta.from_sets(batch.run(graph).violations, batch.run(apply_update(graph, delta)).violations)
    assert (len(handed.delta.introduced), len(handed.delta.removed)) == (3, 3)
    assert handed.delta == oracle
    assert (handed.cost, handed.stats.total_operations()) == (cost, 26)


@pytest.mark.parametrize("method", ("fork", "spawn"))
def test_a_pinned_plan_ships_to_process_workers(hub_graph, rules, pinned_plan, force_start_method, method):
    # a spawned worker receives the plan pickled, its order and steps included
    serial = Detector(rules, engine="batch").run(hub_graph, plans=(pinned_plan,))
    force_start_method(method)
    processes = Detector(
        rules, engine="parallel", processors=2, options=DetectionOptions(execution="processes")
    ).run(hub_graph, plans=(pinned_plan,))
    assert processes.violations.to_json() == serial.violations.to_json()
    assert (processes.cost, processes.stats) == (serial.cost, serial.stats)
    assert processes.stats.total_operations() == 5245


@pytest.mark.parametrize("option", ["adaptive", "restrict_to_neighborhood"])
def test_the_replanning_options_are_gone(option):
    with pytest.raises(TypeError):
        DetectionOptions(**{option: True})


@pytest.mark.parametrize("name,value", [("REPRO_ADAPTIVE_REPLAN", "off"), ("REPRO_ADAPTIVE_DRIFT", "1.01")])
def test_the_replanning_switches_change_no_count(hub_graph, rules, monkeypatch, name, value):
    delta = UpdateGenerator(seed=5).generate(hub_graph, 60, insert_ratio=0.5)

    def runs():
        return (
            _counts(Detector(rules, engine="batch").run(hub_graph)),
            _counts(Detector(rules, engine="parallel", processors=4).run(hub_graph)),
            Detector(rules, engine="incremental").run_incremental(hub_graph, delta),
        )

    before = runs()
    monkeypatch.setenv(name, value)
    after = runs()
    assert before[:2] == after[:2]
    assert (before[2].cost, before[2].stats, before[2].delta) == (after[2].cost, after[2].stats, after[2].delta)
