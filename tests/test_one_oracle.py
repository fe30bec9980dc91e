"""One oracle: every live configuration against the naive reference.

The paper defines correctness twice: ``Vio(Σ, G)``, and
``Vio(Σ, G ⊕ ΔG) = Vio(Σ, G) ⊕ ΔVio``.  :mod:`naive_reference` runs those
definitions as written.  This module draws G, Σ and a stream of ΔG batches
that bring new nodes (the strategies of :mod:`test_search_core`) and holds
every way the library runs a detection to that reference — ``Vio`` after
each version for the full kernels, and ΔVio, exactly, for each update for
the incremental ones:

* Dect and IncDect;
* simulated PDect and PIncDect at p ∈ {1, 3}, under every
  :class:`BalancingPolicy` variant, its latency, interval and η set so that
  splitting and redistribution fire on graphs of six nodes;
* process PDect and PIncDect at p = 2, forked and spawned, also with worker
  0 killed at its first seed (``REPRO_FAULTS``): the answer is the same, the
  run is not degraded, the dead worker is replaced whenever it had seeds,
  and every seed is searched once — the work counts are the serial
  kernels'.  Each first runs a pinned input whose every run seeds both
  workers (:func:`pinned_versions`), so every process id searches on a
  worker;
* a continuous session and a one-shot detect stream over HTTP, on an
  in-process :class:`DetectionService` with inline rules.

Each algorithm under each configuration is a test of its own, so a failure
names the one that broke.  The example counts share one budget of about
23 s on 2 CPUs.  An in-process example costs milliseconds, most of them
spent drawing the input and running the reference, and each test draws its
own: the serial kernels, which every other configuration is built on, take
100 each, and the sixteen simulated ones 25 each (400 inputs between them).
A forked run costs tens of milliseconds, a spawned one a few hundred (each
worker starts an interpreter and imports the package), and a killed
worker's replacement doubles that; an HTTP example costs a request per
update and per version.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import naive_reference
from repro import obs
from repro.core.ngd import NGD, RuleSet
from repro.core.violations import Violation, ViolationDelta, ViolationSet
from repro.detect import BalancingPolicy, DetectionOptions, Detector
from repro.expr.expressions import var
from repro.expr.literals import Comparison, Literal
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import BatchUpdate, apply_update
from repro.service import DetectionService, ServiceClient
from repro.testing.faults import FAULTS_ENV

from test_search_core import as_pairs, draw_batch, graphs, rule_sets

#: Every balancing variant, tuned to act on a handful of seeds: a split pays
#: from a scan of two candidates, and a queue of four above the others'
#: average is shed at the first interval.
POLICIES = {
    name: dataclasses.replace(factory(), latency=0.5, interval=1.0, eta=1.5)
    for name, factory in (
        ("hybrid", BalancingPolicy.hybrid),
        ("ns", BalancingPolicy.no_splitting),
        ("nb", BalancingPolicy.no_rebalancing),
        ("NO", BalancingPolicy.none),
    )
}

#: id → ``(processors, options, examples)``: the serial kernels, then the
#: simulated ones at p ∈ {1, 3} under each policy
CONFIGURATIONS = {
    "serial": (None, {}, 100),
    **{
        f"p{processors}-{name}": (processors, {"policy": policy}, 25)
        for processors, (name, policy) in itertools.product((1, 3), POLICIES.items())
    },
}

WORKER_DEATH = "worker_death:worker=0,epoch=0,after=1"


def draw_versions(data) -> tuple:
    """Draw Σ and G_0 … G_n with ``(G_i, ΔG_i, Vio(Σ, G_i))`` each; ΔG_0 is None."""
    graph = data.draw(graphs(), label="G")
    rules = data.draw(rule_sets(), label="Σ")
    fresh: list = []
    drawn = [(graph, None, naive_reference.violations(graph, rules))]
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="batches")):
        delta = draw_batch(data.draw, graph, fresh)
        graph = apply_update(graph, delta)
        drawn.append((graph, delta, naive_reference.violations(graph, rules)))
    return rules, drawn


def pinned_versions() -> tuple:
    """Σ and three versions of a ring of six nodes, each of whose runs at p = 2 seeds both workers.

    A drawn input often gives a process run no seed at all, and then no
    worker searches: every process test runs this one first.  Each ΔG
    inserts two edges and deletes two whose binding violates r0 (a pivot
    whose one-literal Y holds is refused where it is made).
    """
    graph = Graph("ring")
    for node_id in range(6):
        graph.add_node(node_id, "a", {"val": node_id % 3})
    for node_id in range(6):
        graph.add_edge(node_id, (node_id + 1) % 6, "p")
    rules = RuleSet([NGD(Pattern("q0", [("x0", "a"), ("x1", "a")], [("x0", "x1", "p")]), [], [Literal(var("x0"), Comparison.LE, var("x1"))], name="r0")])
    drawn = [(graph, None, naive_reference.violations(graph, rules))]
    for delta in (
        BatchUpdate().delete(0, 1, "p").delete(3, 4, "p").insert(1, 3, "p").insert(4, 0, "p"),
        BatchUpdate().delete(2, 3, "p").delete(5, 0, "p").insert(2, 0, "p").insert(5, 3, "p"),
    ):
        graph = apply_update(graph, delta)
        drawn.append((graph, delta, naive_reference.violations(graph, rules)))
    return rules, drawn


def reference_set(rules, pairs) -> ViolationSet:
    """The reference's ``{(rule name, h(x̄))}`` as a :class:`ViolationSet`."""
    variables = {rule.name: tuple(rule.pattern.variables) for rule in rules}
    return ViolationSet(Violation(rule, variables[rule], nodes) for rule, nodes in pairs)


def hold_full_to_the_reference(drawn, full, name: str) -> None:
    """``full(G)`` returns ``(streamed violations, result)``: Vio of every version."""
    for graph, _, expected in drawn:
        stream, result = full(graph)
        assert as_pairs(result.violations) == expected, name
        assert len(stream) == len(expected), f"{name}: a violation streamed twice"


def hold_incremental_to_the_reference(rules, drawn, incremental, name: str) -> None:
    """``incremental(G, ΔG, G ⊕ ΔG)`` returns the result: ΔVio of every update."""
    maintained = reference_set(rules, drawn[0][2])
    for (before, _, previous), (after, delta, expected) in itertools.pairwise(drawn):
        changed = incremental(before, delta, after)
        # ΔVio is exact, not merely sufficient: nothing reported that did not change
        assert as_pairs(changed.delta.introduced) == expected - previous, name
        assert as_pairs(changed.delta.removed) == previous - expected, name
        maintained = maintained.apply_delta(changed.delta)
        assert as_pairs(maintained) == expected, name


def full_leg(rules, processors=None, **options):
    """``full(G)`` of one batch (p = None) or parallel detector kept across the versions."""
    detector = Detector(
        rules,
        engine="batch" if processors is None else "parallel",
        processors=processors,
        options=DetectionOptions(**options),
    )

    def full(graph):
        stream = list(detector.stream(graph))
        return stream, detector.last_result

    return full


def incremental_leg(rules, processors=None, **options):
    """``incremental(G, ΔG, G ⊕ ΔG)`` of one incremental or parallel detector kept across the updates."""
    detector = Detector(
        rules,
        engine="incremental" if processors is None else "parallel",
        processors=processors,
        options=DetectionOptions(**options),
    )

    def incremental(before, delta, after):
        return detector.run_incremental(before, delta, graph_after=after)

    return incremental


# --------------------------------------------------------- in-process kernels


@pytest.mark.parametrize("configuration", tuple(CONFIGURATIONS))
def test_full_kernels_equal_the_reference(configuration):
    processors, options, examples = CONFIGURATIONS[configuration]

    @settings(max_examples=examples, deadline=None)
    @given(st.data())
    def run(data):
        rules, drawn = draw_versions(data)
        full = full_leg(rules, processors, **options)
        hold_full_to_the_reference(drawn, full, f"Dect/PDect {configuration}")

    run()


@pytest.mark.parametrize("configuration", tuple(CONFIGURATIONS))
def test_incremental_kernels_maintain_the_reference(configuration):
    processors, options, examples = CONFIGURATIONS[configuration]

    @settings(max_examples=examples, deadline=None)
    @given(st.data())
    def run(data):
        rules, drawn = draw_versions(data)
        incremental = incremental_leg(rules, processors, **options)
        hold_incremental_to_the_reference(rules, drawn, incremental, f"IncDect/PIncDect {configuration}")

    run()


# ------------------------------------------------------------ process backend

#: examples per start method; a spawned example starts two interpreters per run
PROCESS_EXAMPLES = {"fork": 25, "spawn": 3}

process_configurations = pytest.mark.parametrize(
    ("method", "faults"),
    [
        pytest.param(method, faults, id=f"{method}-{kind}")
        for method in PROCESS_EXAMPLES
        for kind, faults in (("clean", None), ("worker_death", WORKER_DEATH))
    ],
)


@pytest.fixture
def supervise(method, faults, force_start_method, monkeypatch):
    """Start processes by ``method``, with ``faults`` armed; return the check of a run.

    ``supervise(result, serial)`` holds a process run to the serial kernel's
    run on the same input: the same work counts (every seed searched once,
    none lost with a dead worker), not degraded, and — under a fault plan — a
    restart exactly when worker 0 had seeds.
    """
    force_start_method(method)
    if faults is not None:
        monkeypatch.setenv(FAULTS_ENV, faults)
    restarts = [obs.metrics().total("repro_worker_restarts_total")]

    def check(result, serial) -> None:
        assert result.stats == serial.stats
        assert not result.degraded
        if faults is not None:
            before, restarts[0] = restarts[0], obs.metrics().total("repro_worker_restarts_total")
            assert (restarts[0] > before) == (result.worker_traces[0].work_units_processed > 0)

    return check


def on_workers(check, method: str) -> None:
    """Run ``check(rules, drawn)`` on the pinned versions, then on drawn ones.

    ``check`` returns the seeds each worker searched, per run; on the pinned
    versions every worker of every run must have searched some.
    """
    worked = check(*pinned_versions())
    assert worked and all(all(seeds) for seeds in worked), worked

    @settings(max_examples=PROCESS_EXAMPLES[method], deadline=None)
    @given(st.data())
    def run(data):
        check(*draw_versions(data))

    run()


@process_configurations
def test_process_pdect_equals_the_reference(method, faults, supervise):
    def check(rules, drawn) -> list:
        serial_full = full_leg(rules)
        full = full_leg(rules, 2, execution="processes")
        worked = []

        def checked_full(graph):
            stream, result = full(graph)
            serial = serial_full(graph)[1]
            assert result.cost == serial.cost
            supervise(result, serial)
            worked.append([trace.work_units_processed for trace in result.worker_traces])
            return stream, result

        hold_full_to_the_reference(drawn, checked_full, f"PDect processes/{method}")
        return worked

    on_workers(check, method)


@process_configurations
def test_process_pincdect_maintains_the_reference(method, faults, supervise):
    def check(rules, drawn) -> list:
        serial_incremental = incremental_leg(rules)
        incremental = incremental_leg(rules, 2, execution="processes")
        worked = []

        def checked_incremental(before, delta, after):
            result = incremental(before, delta, after)
            supervise(result, serial_incremental(before, delta, after))
            worked.append([trace.work_units_processed for trace in result.worker_traces])
            return result

        hold_incremental_to_the_reference(rules, drawn, checked_incremental, f"PIncDect processes/{method}")
        return worked

    on_workers(check, method)


# ------------------------------------------------------------------- service

HTTP_EXAMPLES = 20

_graph_names = itertools.count()


@pytest.fixture(scope="module")
def client():
    with DetectionService(port=0) as service:
        yield ServiceClient(service.url)


def register(client, graph) -> str:
    """Register ``graph`` under a name no other example used; return the name."""
    name = f"drawn{next(_graph_names)}"
    client.register_graph(name, graph)
    return name


def test_a_session_over_http_maintains_the_reference(client):
    @settings(max_examples=HTTP_EXAMPLES, deadline=None)
    @given(st.data())
    def run(data):
        rules, drawn = draw_versions(data)
        name = register(client, drawn[0][0])
        session = client.create_session(name, rules=rules)["session"]
        try:
            for version, (_, delta, expected) in enumerate(drawn, start=1):
                if delta is not None:
                    assert client.post_update(name, delta)["version"] == version
                    (record,) = client.session_deltas(session, since=version - 1)["deltas"]
                    change = ViolationDelta.from_dict(record)
                    previous = drawn[version - 2][2]
                    assert record["version"] == version
                    assert as_pairs(change.introduced) == expected - previous
                    assert as_pairs(change.removed) == previous - expected
                state = client.session_state(session)
                assert state["current_version"] == version
                assert as_pairs(ViolationSet.from_dict(state)) == expected
        finally:
            client.close_session(session)

    run()


def test_a_detect_stream_over_http_equals_the_reference(client):
    @settings(max_examples=HTTP_EXAMPLES, deadline=None)
    @given(st.data())
    def run(data):
        rules, drawn = draw_versions(data)
        name = register(client, drawn[0][0])
        for version, (_, delta, expected) in enumerate(drawn, start=1):
            if delta is not None:
                assert client.post_update(name, delta)["version"] == version
            records = list(client.stream_detect(name, rules=rules))
            found = [Violation.from_dict(r) for r in records if r["type"] == "violation"]
            assert records[-1]["graph_version"] == version
            assert as_pairs(found) == expected and len(found) == len(expected)

    run()
