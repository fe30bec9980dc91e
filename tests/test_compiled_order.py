"""One plan per run, run as compiled.

Every kernel executes the plans it is handed in their compiled order: no run
re-orders a plan mid-search, folds what an earlier run observed into a
compile, or trades its plans for ones compiled over an extracted region.
The hub workload of :mod:`hub_workload` is where a run that did any of that
would show it, because its compiled order is not its cheapest one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.detect import DetectionOptions, Detector
from repro.graph.updates import BatchUpdate, UpdateGenerator
from repro.matching.plan import compile_plans, load_plans, save_plans

from engines import new_store
from hub_workload import correlated_hub_graph, hub_rules

#: A plan document in the format that still carried observations: the hub
#: rule's plan compiled with an observed prior, so its stored order is
#: ``x, z, y`` where a cold compile orders ``x, y, z``, with that prior as a
#: per-plan ``"observed"`` list and the observations as a ``"history"`` block.
PLANS_WITH_HISTORY = Path(__file__).parent / "data" / "plans_with_history.json"


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
    assert result.stats.total_operations() == 15_900
    assert len(result.violations) == 75


@pytest.mark.parametrize("backend", ("dict", "indexed"))
@pytest.mark.parametrize("engine,processors", [("batch", None), ("parallel", 4)])
def test_every_engine_and_backend_bills_the_compiled_order(hub_graph, rules, engine, processors, backend):
    reference = Detector(rules, engine="batch").run(hub_graph.with_backend(new_store("dict")))
    result = Detector(rules, engine=engine, processors=processors).run(hub_graph.with_backend(new_store(backend)))
    assert result.violations.to_json() == reference.violations.to_json()
    assert result.stats == reference.stats
    assert result.stats.total_operations() == 15_900


def test_a_plan_document_with_observations_runs_its_stored_order(hub_graph, rules, tmp_path):
    document = json.loads(PLANS_WITH_HISTORY.read_text(encoding="utf-8"))
    assert "history" in document and "observed" in document["plans"][0]
    (plan,) = load_plans(PLANS_WITH_HISTORY, rules)
    assert plan.order == ("x", "z", "y") != compile_plans(hub_graph, rules)[0].order
    # the estimates come from the stored statistics alone
    assert [step.estimated_candidates for step in plan.steps] == [120.0, 20.0, 3.0]

    from_file = Detector(rules, engine="batch", plans_file=str(PLANS_WITH_HISTORY)).run(hub_graph)
    handed = Detector(rules, engine="batch").run(hub_graph, plans=(plan,))
    default = Detector(rules, engine="batch").run(hub_graph)
    assert _counts(from_file) == _counts(handed)
    assert from_file.violations.to_json() == default.violations.to_json()
    assert from_file.stats.total_operations() < default.stats.total_operations()

    # saved again, it keeps its order and drops both blocks
    path = tmp_path / "plans.json"
    save_plans((plan,), path)
    document = json.loads(path.read_text(encoding="utf-8"))
    assert "history" not in document and "observed" not in document["plans"][0]
    assert document["plans"][0]["order"] == ["x", "z", "y"]


@pytest.mark.parametrize("backend", ("dict", "indexed"))
@pytest.mark.parametrize("engine,processors", [("incremental", None), ("parallel", 4)])
def test_a_plan_document_with_observations_updates_like_the_batch_diff(hub_graph, rules, engine, processors, backend):
    graph = hub_graph.with_backend(new_store(backend))
    # b0_0 and b4_17 are premise survivors: r1 gains one, r4 loses its only one
    delta = BatchUpdate().insert("r1", "b0_0", "e2").delete("r4", "b4_17", "e2")
    (plan,) = load_plans(PLANS_WITH_HISTORY, rules)
    from_file = Detector(
        rules, engine=engine, processors=processors, plans_file=str(PLANS_WITH_HISTORY)
    ).run_incremental(graph, delta)
    handed = Detector(rules, engine=engine, processors=processors).run_incremental(graph, delta, plans=(plan,))
    oracle = Detector(rules, engine="batch").run_incremental(graph, delta)
    assert (len(from_file.delta.introduced), len(from_file.delta.removed)) == (3, 3)
    assert from_file.delta == oracle.delta
    assert (from_file.cost, from_file.stats, from_file.delta) == (handed.cost, handed.stats, handed.delta)


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
