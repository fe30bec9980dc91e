"""Budgeted runs pinned to a recorded run: where Dect and IncDect stop, and what they bill up to there.

``tests/data/budget_stops.json`` holds, for three ``max_cost`` caps and for
``max_violations`` ∈ {1, 5}, the violations each run emitted (in emission
order), its ``cost``, its ``stop_reason`` and its ``MatchStatistics``
(the five counters and the per-step scan counts).  The inputs are Figure-1
G2 under φ1–φ4 and a generated KB graph under 12 benchmark rules, for Dect,
and that KB graph with one ΔG for IncDect.  How a kernel pushes its seeds,
when it tests the budget and what a step charges must reproduce every stop
point exactly.

Regenerate (only when the billing itself is meant to change) with::

    PYTHONPATH=src python tests/test_budget_stops.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.builtin_rules import example_rules
from repro.datasets.figure1 import figure1_g2
from repro.datasets.kb import yago_like
from repro.datasets.rules import benchmark_rules
from repro.detect import DetectionOptions, Detector
from repro.graph.updates import UpdateGenerator
from repro.matching.candidates import STEP_COUNT_PREFIX

GOLDEN = Path(__file__).parent / "data" / "budget_stops.json"
STAT_FIELDS = ("candidates_examined", "expansions", "edge_checks", "literal_evaluations", "matches_emitted")

#: (input, engine, max_cost caps): a full run costs 7 (G2), 1699 (KB) and 242 (KB, ΔG)
INPUTS = (("g2", "batch", (2, 4, 6)), ("kb", "batch", (200, 800, 1500)), ("kb", "incremental", (30, 120, 240)))


def _inputs(name: str):
    if name == "g2":
        return figure1_g2(), example_rules()
    graph = yago_like(scale=0.3)
    return graph, benchmark_rules(graph, count=12, max_diameter=3, seed=2)


def _budgets(caps):
    return [{"max_cost": cap} for cap in caps] + [{"max_violations": cap} for cap in (1, 5)]


def _run(name: str, engine: str, budget: dict) -> dict:
    graph, rules = _inputs(name)
    detector = Detector(rules, engine=engine, options=DetectionOptions(**budget))
    if engine == "batch":
        emitted = [violation.to_dict() for violation in detector.stream(graph)]
    else:
        delta = UpdateGenerator(seed=5).generate(graph, 150)
        emitted = [
            [event.introduced, event.violation.to_dict()] for event in detector.stream_incremental(graph, delta)
        ]
    result = detector.last_result
    stats = result.stats
    return {
        "emitted": emitted,
        "cost": result.cost,
        "stop_reason": result.stop_reason,
        "stats": {field: getattr(stats, field) for field in STAT_FIELDS},
        "scans": {key: count for key, count in sorted(stats.extra.items()) if key.startswith(STEP_COUNT_PREFIX)},
    }


def _case_id(name: str, engine: str, budget: dict) -> str:
    (limit, cap), = budget.items()
    return f"{name}-{engine}-{limit}={cap}"


CASES = [(name, engine, budget) for name, engine, caps in INPUTS for budget in _budgets(caps)]


def capture() -> dict:
    return {_case_id(*case): _run(*case) for case in CASES}


@pytest.mark.parametrize("name, engine, budget", CASES, ids=[_case_id(*case) for case in CASES])
def test_the_run_stops_where_it_stopped(name, engine, budget):
    golden = json.loads(GOLDEN.read_text())[_case_id(name, engine, budget)]
    assert json.loads(json.dumps(_run(name, engine, budget))) == golden


def test_the_recording_covers_every_limit():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == {_case_id(*case) for case in CASES}
    # each input stops early on every max_cost cap, and max_violations=1 stops every run at one violation
    for case in CASES:
        recorded = golden[_case_id(*case)]
        if "max_cost" in case[2]:
            assert recorded["stop_reason"] == "max_cost"
        elif case[2]["max_violations"] == 1:
            assert recorded["stop_reason"] == "max_violations" and len(recorded["emitted"]) == 1


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
