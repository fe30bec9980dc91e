"""Tests for the parallel algorithms (PDect, PIncDect), cluster simulator and balancing policy."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.builtin_rules import phi7
from repro.core.ngd import NGD, RuleSet
from repro.core.validation import find_violations
from repro.datasets.kb import KBConfig, knowledge_graph, yago_like
from repro.datasets.rules import benchmark_rules
from repro.detect import BalancingPolicy, DetectionOptions, Detector
from repro.detect.parallel.balancing import plan_rebalancing, should_split_planned, skewness
from repro.detect.parallel.cluster import ClusterSimulator
from repro.detect.parallel.workunits import WorkUnit, expand_work_unit
from repro.errors import ClusterError
from repro.graph.graph import Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import EdgeInsertion, UpdateGenerator
from repro.matching.candidates import MatchStatistics
from repro.matching.incmatch import PivotSite
from repro.matching.plan import compile_plan


@pytest.fixture(scope="module")
def kb_graph():
    config = KBConfig(
        name="kb-parallel",
        num_entities=150,
        num_entity_types=4,
        num_value_relations=4,
        num_link_relations=3,
        values_per_entity=3,
        links_per_entity=2.0,
        error_rate=0.08,
        seed=8,
        hub_link_fraction=0.4,
        num_hubs=2,
    )
    return knowledge_graph(config)


@pytest.fixture(scope="module")
def kb_rules(kb_graph):
    return benchmark_rules(kb_graph, count=12, max_diameter=4, seed=2)


@pytest.fixture(scope="module")
def kb_delta(kb_graph):
    return UpdateGenerator(seed=21).generate(kb_graph, 80, insert_ratio=0.5)


class TestClusterSimulator:
    def test_requires_valid_configuration(self):
        with pytest.raises(ClusterError):
            ClusterSimulator(0, 10)
        with pytest.raises(ClusterError):
            ClusterSimulator(2, -1)

    def test_charges_advance_clocks(self):
        cluster = ClusterSimulator(3, latency=5)
        cluster.charge(0, 10)
        cluster.charge(1, 4)
        assert cluster.makespan() == 10

    def test_broadcast_charges_all_and_origin_extra(self):
        cluster = ClusterSimulator(4, latency=5)
        cluster.charge_broadcast(2, per_worker_amount=3, setup_cost=7)
        traces = cluster.traces()
        assert traces[0].busy_time == 3
        assert traces[2].busy_time == 10
        assert cluster.total_messages == 4

    def test_queue_operations(self):
        cluster = ClusterSimulator(2, latency=1)
        cluster.enqueue(0, "u1")
        cluster.enqueue(0, "u2")
        assert cluster.queue_lengths() == [2, 0]
        assert cluster.next_busy_worker() == 0
        assert cluster.pop_unit(0) == "u2"  # LIFO
        assert cluster.has_pending_work()
        with pytest.raises(ClusterError):
            cluster.pop_unit(1)

    def test_move_units(self):
        cluster = ClusterSimulator(2, latency=2)
        for index in range(5):
            cluster.enqueue(0, f"u{index}")
        moved = cluster.move_units(0, 1, 3)
        assert moved == 3
        assert cluster.queue_lengths() == [2, 3]
        # one message counted, no clock charged: the balancing round charges its participants
        assert cluster.traces()[0].units_shed == 3
        assert cluster.traces()[1].units_received == 3
        assert (cluster.traces()[0].messages_sent, cluster.total_messages) == (1, 1)
        assert cluster.makespan() == 0

    def test_negative_charge_rejected(self):
        cluster = ClusterSimulator(1, latency=0)
        with pytest.raises(ClusterError):
            cluster.charge(0, -1)


class TestBalancingPolicy:
    def test_variant_suffixes(self):
        assert BalancingPolicy.hybrid().variant_suffix() == ""
        assert BalancingPolicy.no_splitting().variant_suffix() == "ns"
        assert BalancingPolicy.no_rebalancing().variant_suffix() == "nb"
        assert BalancingPolicy.none().variant_suffix() == "NO"

    def test_should_split_threshold(self):
        # an estimate of 0.0 leaves the paper's test on the adjacency alone:
        # sequential cost 1000 vs parallel 60*(1+1) + 1000/8 = 245 → split
        assert should_split_planned(0.0, 1000, matched_depth=1, processors=8, latency=60)
        # tiny adjacency is never worth a broadcast
        assert not should_split_planned(0.0, 10, matched_depth=1, processors=8, latency=60)
        # a single processor can never split
        assert not should_split_planned(0.0, 10_000, matched_depth=1, processors=1, latency=60)

    def test_skewness(self):
        values = skewness([9, 1, 1, 1])
        assert values[0] == pytest.approx(3.0)
        assert skewness([0, 0]) == [0.0, 0.0]

    def test_plan_rebalancing_moves_excess_to_idle(self):
        moves = plan_rebalancing([40, 0, 0, 0], eta=3.0, eta_prime=0.7)
        assert moves
        assert all(origin == 0 for origin, _, _ in moves)
        assert sum(count for _, _, count in moves) == 30  # excess above the average of 10

    def test_plan_rebalancing_no_receivers(self):
        assert plan_rebalancing([5, 5, 5, 5]) == []

    def test_plan_rebalancing_limits_receivers_to_excess(self):
        # the straggler's excess is 3 units; only 3 of the 7 idle workers should be involved
        moves = plan_rebalancing([4, 0, 0, 0, 0, 0, 0, 0], eta=3.0, eta_prime=0.7)
        assert len(moves) == 3
        assert sum(count for _, _, count in moves) == 3


class TestWorkUnits:
    def test_pivot_site_seeds_its_edge_first(self, kb_rules):
        rule = kb_rules[1]
        edge = rule.pattern.edges()[0]
        site = PivotSite(rule.pattern, edge)
        assert site.ids(EdgeInsertion("s", "t", edge.label)) == (("s",) if site.loop else ("s", "t"))
        order = compile_plan(Graph(), rule).order_for_seed(site.seed)
        assert order[: len(site.seed)] == site.seed and sorted(order) == sorted(rule.pattern.variables)

    def test_expand_respects_labels_and_edges(self, triangle_graph, knows_rule):
        unit = WorkUnit(0, order=("x", "y"), assignment=(("x", "a"),))
        outcome = expand_work_unit(triangle_graph, unit, MatchStatistics(), compile_plan(triangle_graph, knows_rule))
        assert outcome.new_units == []  # the only extension completes the match
        assert len(outcome.violations) == 1

    def test_expand_complete_unit_checks_violation(self, triangle_graph, knows_rule):
        unit = WorkUnit(0, order=("x", "y"), assignment=(("x", "a"), ("y", "b")))
        outcome = expand_work_unit(triangle_graph, unit, MatchStatistics(), compile_plan(triangle_graph, knows_rule))
        assert len(outcome.violations) == 1

    def test_pivot_site_checks_the_edges_inside_its_seed(self, triangle_graph, knows_rule):
        site = PivotSite(knows_rule.pattern, knows_rule.pattern.edges()[0])
        assert site.holds_in(triangle_graph.store, ("a", "b"))
        assert not site.holds_in(triangle_graph.store, ("b", "a"))


class TestPDect:
    def test_makespan_decreases_with_processors(self, kb_graph, kb_rules):
        few = Detector(kb_rules, engine="parallel", processors=2).run(kb_graph).cost
        many = Detector(kb_rules, engine="parallel", processors=16).run(kb_graph).cost
        assert many < few

    @pytest.mark.parametrize("execution", ("simulated", "processes"))
    def test_single_variable_seeds_are_decided_by_the_core(self, execution):
        # a one-node pattern's seed is a complete binding: the parent decides
        # it with the core's violation leaf (self-loop and premise included)
        graph = Graph("singles")
        for index, value in enumerate((5, -1, 0, 7, -3)):
            graph.add_node(index, "item", {"val": value, "cap": 4})
        graph.add_node(9, "item", {"cap": 4})  # no val: the conclusion cannot hold
        for node in (0, 1, 2, 9):
            graph.add_edge(node, node, "self")
        pattern = Pattern("one", nodes=[("x", "item")], edges=[("x", "x", "self")])
        rules = [NGD.from_text(pattern, "x.cap > 0", "x.val >= 0", name="nonnegative")]
        expected = find_violations(graph, rules)
        assert {violation.nodes for violation in expected} == {(1,), (9,)}
        result = Detector(
            rules, engine="parallel", processors=3, options=DetectionOptions(execution=execution)
        ).run(graph)
        assert result.violations.to_json() == expected.to_json()

    @pytest.mark.parametrize("name", ("threaded_dect", "threaded_inc_dect"))
    def test_there_is_no_thread_backend(self, name):
        import repro.detect.parallel as parallel

        assert name not in parallel.__all__ and name not in dir(parallel)
        with pytest.raises(AttributeError):
            getattr(parallel, name)


class TestPIncDect:
    def test_variant_names_follow_policy(self, kb_graph, kb_rules, kb_delta):
        hybrid = Detector(kb_rules, engine="parallel", processors=4)
        assert hybrid.run_incremental(kb_graph, kb_delta).algorithm == "PIncDect"
        options = DetectionOptions(policy=BalancingPolicy.none())
        neither = Detector(kb_rules, engine="parallel", processors=4, options=options)
        assert neither.run_incremental(kb_graph, kb_delta).algorithm == "PIncDectNO"

    def test_makespan_decreases_with_processors(self, kb_graph, kb_rules, kb_delta):
        p4 = Detector(kb_rules, engine="parallel", processors=4).run_incremental(kb_graph, kb_delta).cost
        p16 = Detector(kb_rules, engine="parallel", processors=16).run_incremental(kb_graph, kb_delta).cost
        assert p16 < p4

    def test_parallel_beats_sequential_yardstick(self, kb_graph, kb_rules, kb_delta):
        sequential = Detector(kb_rules, engine="incremental").run_incremental(kb_graph, kb_delta).cost
        parallel = Detector(kb_rules, engine="parallel", processors=8).run_incremental(kb_graph, kb_delta).cost
        assert parallel < sequential

    def test_incremental_parallel_beats_batch_parallel_for_small_updates(self, kb_graph, kb_rules):
        delta = UpdateGenerator(seed=5).generate(kb_graph, max(1, kb_graph.edge_count() // 20))
        incremental = Detector(kb_rules, engine="parallel", processors=8).run_incremental(kb_graph, delta).cost
        batch = Detector(kb_rules, engine="parallel", processors=8).run(kb_graph).cost
        assert incremental < batch

    def test_worker_traces_account_all_units(self, kb_graph, kb_rules, kb_delta):
        result = Detector(kb_rules, engine="parallel", processors=8).run_incremental(kb_graph, kb_delta)
        assert len(result.worker_traces) == 8
        assert sum(trace.work_units_processed for trace in result.worker_traces) > 0

    def test_empty_delta(self, kb_graph, kb_rules):
        from repro.graph.updates import BatchUpdate

        result = Detector(kb_rules, engine="parallel", processors=4).run_incremental(kb_graph, BatchUpdate())
        assert result.delta.is_empty()


@pytest.fixture(scope="module")
def yago():
    return yago_like(scale=0.3)


class TestEarlyStops:
    @pytest.fixture(autouse=True)
    def fresh_observability(self):
        yield
        obs.configure()

    @pytest.mark.parametrize(
        "incremental, execution",
        [(False, "simulated"), (True, "simulated"), (False, "processes")],
        ids=["PDect", "PIncDect", "PDect-processes"],
    )
    def test_a_stream_closed_early_keeps_its_rule_attribution(self, yago, incremental, execution):
        # a consumer that takes one violation and closes the stream (a take(n),
        # a disconnected NDJSON client) still gets the rows of the work done
        obs.configure()
        options = DetectionOptions(execution=execution)
        detector = Detector(benchmark_rules(yago, count=12), engine="parallel", processors=2, options=options)
        if incremental:
            stream = detector.stream_incremental(yago, UpdateGenerator(seed=5).generate(yago, 40))
        else:
            stream = detector.stream(yago)
        next(stream)
        stream.close()
        spans = [span["attributes"] for span in obs.traces() if span["name"] == "detect.rule"]
        assert sum(span["violations"] for span in spans) == 1
        if execution == "simulated":
            counters = obs.metrics().snapshot()["counters"]
            assert sum(value for name, _, value in counters if name == "repro_detect_candidates_total") > 0

    def test_max_cost_stops_single_variable_rules(self, yago):
        # PDect decides a single-variable rule's candidates while seeding; the
        # cost budget holds there as it does for Dect
        rules = RuleSet([phi7()])
        capped = DetectionOptions(max_cost=5)
        serial = Detector(rules, engine="batch", options=capped).run(yago)
        assert serial.stop_reason == "max_cost"
        result = Detector(rules, engine="parallel", processors=4, options=capped).run(yago)
        assert result.stopped_early and result.stop_reason == "max_cost"
        full = Detector(rules, engine="parallel", processors=4).run(yago)
        assert result.cost <= full.cost
