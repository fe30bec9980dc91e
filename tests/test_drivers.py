"""The generated drivers against the stack of frames they replace.

A driver (:attr:`~repro.matching.plan.Schedule.drivers`) runs a bound
frame's whole subtree as nested loops, its bills summed in locals.  The
reference here is the serial loop it replaced, written out in place of
:meth:`~repro.matching.search.RuleSearch.drive`: a LIFO stack of frames,
one :meth:`~repro.matching.search.RuleSearch.step` each, the cost charged
and the budget tested after every step.  On the generated G, Σ and
ΔG streams of :mod:`test_one_oracle`, Dect and IncDect through the drivers
must match it in the violations they stream (order included), the
statistics (``extra`` included), the cost, and the point where every
``max_violations`` cap and a spread of ``max_cost`` caps stop the run.

A pattern deeper than a driver nests (``_LEVELS``) continues in the driver
of the depth it reached: a 30-variable path, searched by every entry and
through the CLI, against :mod:`naive_reference`.
"""

from __future__ import annotations

import itertools
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

import naive_reference
from repro.core.ngd import NGD, RuleSet
from repro.detect.dect import iter_dect
from repro.detect.incdect import iter_inc_dect
from repro.detect.observers import DetectionBudget
from repro.graph.graph import Graph
from repro.graph.io import save_graph, save_update
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, apply_update
from repro.matching import compiled
from repro.matching.plan import compile_plans
from repro.matching.search import RuleSearch

from test_one_oracle import draw_versions
from test_search_core import as_pairs, finish


def frame_loop(search, run, graph, order, prefix, nodes, introduced, dedupe):
    """The serial search as a stack of frames, one :meth:`RuleSearch.step` each: the drivers' reference."""
    if prefix:
        search.start(graph, order, [*prefix, nodes[0].id])  # a pivot's last node is its one entry
    else:
        search.seed(graph, order, nodes)
    while search.stack:
        found = search.step()
        run.cost += (search.filtering or 1) + search.verification
        if found and (yield from run.emit(found, introduced, dedupe)):
            return True
        if run.cost_exhausted():
            return True
    return False


def both_ways(kernel, *args, **kwargs):
    """Run ``kernel`` through the drivers and through :func:`frame_loop`; assert the runs alike; return the result."""
    stream, result = finish(kernel(*args, **kwargs))
    with mock.patch.object(RuleSearch, "drive", frame_loop):
        expected, reference = finish(kernel(*args, **kwargs))
    assert stream == expected, "violations streamed in a different order"
    assert result.stats == reference.stats  # extra included
    assert (result.cost, result.stop_reason) == (reference.cost, reference.stop_reason)
    return result


def caps(full) -> list[DetectionBudget]:
    """Every violation cap below the run's count, and cost caps spread from 1 to the run's cost."""
    count = len(full.violations) if hasattr(full, "violations") else full.delta.total_changes()
    costs = sorted({1.0 + (full.cost - 1.0) * share / 8 for share in range(9)}) if full.cost >= 1 else []
    return [DetectionBudget(max_violations=cap) for cap in range(1, count)] + [DetectionBudget(max_cost=cost) for cost in costs]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_drivers_run_dect_and_incdect_as_the_frame_stack_does(data):
    rules, drawn = draw_versions(data)
    for graph, _, _ in drawn:
        plans = compile_plans(graph, rules)
        full = both_ways(iter_dect, graph, rules, plans=plans)
        for budget in caps(full):
            both_ways(iter_dect, graph, rules, budget=budget, plans=plans)
    for (before, _, _), (after, delta, _) in itertools.pairwise(drawn):
        plans = compile_plans(after, rules)
        full = both_ways(iter_inc_dect, before, rules, delta, graph_after=after, plans=plans)
        for budget in caps(full):
            both_ways(iter_inc_dect, before, rules, delta, graph_after=after, budget=budget, plans=plans)


# ------------------------------------------------ patterns deeper than a driver


PATH = 30


def path_graph(length: int = 36) -> Graph:
    """A chain ``0 -> 1 -> … -> length - 1`` of ``next`` edges, with a few shortcuts, vals cycling through 0…6."""
    graph = Graph("chain")
    for node_id in range(length):
        graph.add_node(node_id, "n", {"val": (node_id * 3) % 7})
    for node_id in range(length - 1):
        graph.add_edge(node_id, node_id + 1, "next")
    for source in range(0, length - 2, 5):
        graph.add_edge(source, source + 2, "next")
    return graph


def path_rule() -> RuleSet:
    """``x0 -next-> x1 -> … -> x29``: where x0.val <= 3, x29.val <= x0.val + 2."""
    variables = [f"x{index}" for index in range(PATH)]
    pattern = Pattern("path30", [(variable, "n") for variable in variables], [(a, b, "next") for a, b in itertools.pairwise(variables)])
    return RuleSet([NGD.from_text(pattern, "x0.val <= 3", f"{variables[-1]}.val <= x0.val + 2", name="deep")])


def test_a_pattern_deeper_than_a_driver_continues_in_the_next(tmp_path, capsys):
    from repro.cli import main

    graph, rules = path_graph(), path_rule()
    assert PATH > 2 * compiled._LEVELS  # three drivers deep
    expected = naive_reference.violations(graph, rules)
    assert expected
    result = both_ways(iter_dect, graph, rules, plans=compile_plans(graph, rules))
    assert as_pairs(result.violations) == expected
    delta = BatchUpdate().delete(12, 13, "next").insert(12, 14, "next").insert(35, 0, "next")
    after = apply_update(graph, delta)
    changed = both_ways(iter_inc_dect, graph, rules, delta, graph_after=after, plans=compile_plans(after, rules))
    expected_after = naive_reference.violations(after, rules)
    assert as_pairs(changed.delta.introduced) == expected_after - expected
    assert as_pairs(changed.delta.removed) == expected - expected_after
    assert changed.delta.total_changes() > 0
    # the CLI: the plan binds the path link by link, and the runs report the reference
    save_graph(graph, tmp_path / "g.json")
    save_update(delta, tmp_path / "delta.json")
    rules.save(tmp_path / "rules.json")
    common = ["--rules-file", str(tmp_path / "rules.json"), "--format", "json"]
    assert main(["explain", str(tmp_path / "g.json"), *common]) == 0
    (plan,) = json.loads(capsys.readouterr().out)["plans"]
    assert len(plan["steps"]) == PATH and all(step["strategy"] == "anchored" for step in plan["steps"][1:])
    assert main(["run", str(tmp_path / "g.json"), "--engine", "batch", *common]) == 1
    document = json.loads(capsys.readouterr().out)
    assert {(v["rule"], tuple(v["nodes"])) for v in document["violations"]} == expected
    assert main(["incremental", str(tmp_path / "g.json"), "--update", str(tmp_path / "delta.json"), *common]) == 1
    document = json.loads(capsys.readouterr().out)
    assert {(v["rule"], tuple(v["nodes"])) for v in document["introduced"]} == expected_after - expected
    assert {(v["rule"], tuple(v["nodes"])) for v in document["removed"]} == expected - expected_after
