"""Per-rule telemetry pinned to a recorded run: counters and ``detect.rule`` span attributes.

``tests/data/telemetry_golden.json`` holds what one Dect and a 20-ΔG IncDect
stream emitted: every ``(name, labels, value)`` counter of the registry and
the attributes of every ``detect.rule`` span, in recording order.  Any change
to how the kernels attribute work to rules must reproduce both exactly.

Regenerate (only when the attribution itself is meant to change) with::

    PYTHONPATH=src python tests/test_telemetry_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.datasets.kb import yago_like
from repro.datasets.rules import benchmark_rules
from repro.detect import Detector
from repro.graph.updates import UpdateGenerator, apply_update

GOLDEN = Path(__file__).parent / "data" / "telemetry_golden.json"
STAT_FIELDS = ("candidates_examined", "expansions", "edge_checks", "literal_evaluations", "matches_emitted")


def _inputs():
    graph = yago_like(scale=0.3)
    return graph, benchmark_rules(graph, count=12, max_diameter=3, seed=2)


def capture() -> dict:
    """Run one Dect and a 20-ΔG IncDect stream; return their counters and rule-span attributes."""
    obs.configure()
    graph, rules = _inputs()
    Detector(rules, engine="batch").run(graph)
    detector = Detector(rules, engine="incremental")
    generator = UpdateGenerator(seed=5)
    for _ in range(20):
        delta = generator.generate(graph, 10)
        after = apply_update(graph, delta)
        detector.run_incremental(graph, delta, graph_after=after)
        graph = after
    counters = sorted([name, [list(kv) for kv in labels], value] for name, labels, value in obs.metrics().snapshot()["counters"])
    spans = [span["attributes"] for span in obs.traces() if span["name"] == "detect.rule"]
    return {"counters": counters, "rule_spans": spans}


@pytest.fixture(autouse=True)
def fresh_observability():
    yield
    obs.configure()


def test_counters_and_rule_spans_match_the_recording():
    golden = json.loads(GOLDEN.read_text())
    captured = json.loads(json.dumps(capture()))
    assert captured["counters"] == golden["counters"]
    assert captured["rule_spans"] == golden["rule_spans"]


@pytest.mark.parametrize(
    "engine, processors, incremental",
    [("batch", 1, False), ("incremental", 1, True), ("parallel", 3, False), ("parallel", 3, True)],
    ids=["Dect", "IncDect", "PDect", "PIncDect"],
)
def test_rule_spans_sum_to_match_statistics(engine, processors, incremental):
    obs.configure()
    graph, rules = _inputs()
    detector = Detector(rules, engine=engine, processors=processors)
    if incremental:
        delta = UpdateGenerator(seed=9).generate(graph, 12)
        result = detector.run_incremental(graph, delta)
        violations = result.total_changes()
    else:
        result = detector.run(graph)
        violations = result.violation_count()
    spans = [span for span in obs.traces() if span["name"] == "detect.rule" and span["trace_id"] == result.trace_id]
    assert spans
    for field in STAT_FIELDS:
        assert sum(span["attributes"][field] for span in spans) == getattr(result.stats, field), field
    assert sum(span["attributes"]["violations"] for span in spans) == violations


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
