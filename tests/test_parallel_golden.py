"""The simulated cost model pinned to a recorded run: makespans, worker traces, violations.

``tests/data/parallel_golden.json`` holds what simulated PDect and PIncDect
reported on a fixed set of inputs, under each of the four
:class:`BalancingPolicy` variants at 4 and 16 processors: the ``cost``
(makespan), every field of every :class:`WorkerTrace`, the match
statistics, a digest of the violation (or ΔVio) set's JSON, a digest of the
order the stream yielded it in, and the ``stop_reason``.  The inputs are chosen so every branch of the
cost model runs:

* a KB with 12 rules and a ΔG of 40 at latency 1, where redistribution
  sheds units;
* the correlated-hub star at latency 1 and 60, where splitting fires;
* the single-variable rules phi5–phi9, which PDect decides while seeding;
* runs capped by ``max_violations``, one of them while seeding.

Any change to the scheduling loops must reproduce every case exactly.
Regenerate (only when the cost model itself is meant to change) with::

    PYTHONPATH=src python tests/test_parallel_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from hub_workload import correlated_hub_graph, hub_rules
from repro.core.builtin_rules import phi5, phi6, phi7, phi8, phi9
from repro.core.ngd import RuleSet
from repro.datasets.kb import yago_like
from repro.datasets.rules import benchmark_rules
from repro.detect import DetectionOptions, Detector
from repro.detect.parallel.balancing import BalancingPolicy
from repro.graph.updates import UpdateGenerator, apply_update

GOLDEN = Path(__file__).parent / "data" / "parallel_golden.json"

POLICIES = {
    "hybrid": BalancingPolicy.hybrid,
    "ns": BalancingPolicy.no_splitting,
    "nb": BalancingPolicy.no_rebalancing,
    "NO": BalancingPolicy.none,
}
PROCESSORS = (4, 16)
STAT_FIELDS = ("candidates_examined", "expansions", "edge_checks", "literal_evaluations", "matches_emitted")


@lru_cache(maxsize=None)
def _kb():
    graph = yago_like(scale=0.3)
    rules = benchmark_rules(graph, count=12)
    delta = UpdateGenerator(seed=5).generate(graph, 40)
    return graph, rules, delta, apply_update(graph, delta)


@lru_cache(maxsize=None)
def _hub():
    return correlated_hub_graph(12, 400, 5, 7), hub_rules()


@lru_cache(maxsize=None)
def _single_variable():
    return yago_like(scale=0.3), RuleSet([phi5(), phi6(), phi7(), phi8(), phi9()])


# name -> (inputs, latency, incremental, max_violations)
WORKLOADS = {
    "kb_pdect": (_kb, 1.0, False, None),
    "kb_pincdect": (_kb, 1.0, True, None),
    "hub_latency1": (_hub, 1.0, False, None),
    "hub_latency60": (_hub, 60.0, False, None),
    "phi5_9": (_single_variable, 60.0, False, None),
    "kb_pdect_capped": (_kb, 1.0, False, 3),
    "kb_pincdect_capped": (_kb, 1.0, True, 2),
    "phi5_9_capped": (_single_variable, 60.0, False, 20),
}


def _digest(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()[:16]


def run_case(workload: str, policy: str, processors: int) -> dict:
    """Run one simulated case through the session and return what it pins."""
    inputs, latency, incremental, max_violations = WORKLOADS[workload]
    options = DetectionOptions(policy=POLICIES[policy](latency=latency), max_violations=max_violations)
    prepared = inputs()
    detector = Detector(prepared[1], engine="parallel", processors=processors, options=options)
    if incremental:
        graph, _, delta, after = prepared
        stream = [[event.violation.to_dict(), event.introduced] for event in detector.stream_incremental(graph, delta, after)]
        result = detector.last_result
        found = result.delta.to_dict()
    else:
        stream = [violation.to_dict() for violation in detector.stream(prepared[0])]
        result = detector.last_result
        found = result.violations.to_dict()
    return {
        "cost": result.cost,
        "worker_traces": [dataclasses.asdict(trace) for trace in result.worker_traces],
        "stats": [getattr(result.stats, name) for name in STAT_FIELDS],
        "violations": _digest(found),
        "stream": _digest(stream),
        "stop_reason": result.stop_reason,
    }


CASES = [(w, p, n) for w in WORKLOADS for p in POLICIES for n in PROCESSORS]


def capture() -> dict:
    return {f"{w}/{p}/{n}": run_case(w, p, n) for w, p, n in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workload, policy, processors", CASES, ids=[f"{w}-{p}-p{n}" for w, p, n in CASES])
def test_simulated_run_matches_the_recording(golden, workload, policy, processors):
    assert json.loads(json.dumps(run_case(workload, policy, processors))) == golden[f"{workload}/{policy}/{processors}"]


def test_recording_exercises_every_branch(golden):
    """The inputs still shed units, split steps, seed single-variable rules and stop on the cap."""
    assert sum(trace["units_shed"] for trace in golden["kb_pdect/hybrid/16"]["worker_traces"]) > 0
    assert golden["hub_latency1/hybrid/4"]["cost"] != golden["hub_latency1/ns/4"]["cost"]
    assert golden["phi5_9/NO/4"]["cost"] > 0
    for capped in ("kb_pdect_capped", "kb_pincdect_capped", "phi5_9_capped"):
        assert golden[f"{capped}/hybrid/4"]["stop_reason"] == "max_violations"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
