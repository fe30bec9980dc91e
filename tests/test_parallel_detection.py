"""Tests for the parallel algorithms (PDect, PIncDect), cluster simulator and balancing policy."""

from __future__ import annotations

import pytest

from repro.core.validation import find_violations
from repro.core.violations import ViolationDelta
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import BalancingPolicy, dect, inc_dect, p_dect, pinc_dect
from repro.detect.parallel.balancing import plan_rebalancing, should_split, skewness
from repro.detect.parallel.cluster import ClusterSimulator
from repro.detect.parallel.workunits import WorkUnit, expand_work_unit
from repro.errors import ClusterError
from repro.graph.updates import EdgeInsertion, UpdateGenerator, apply_update
from repro.matching.incmatch import PivotSite


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
        assert cluster.global_time() == 10

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
        # charged one message to both endpoints
        assert cluster.traces()[0].units_shed == 3
        assert cluster.makespan() == 2

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
        # sequential cost 1000 vs parallel 60*(1+1) + 1000/8 = 245 → split
        assert should_split(1000, matched_depth=1, processors=8, latency=60)
        # tiny adjacency is never worth a broadcast
        assert not should_split(10, matched_depth=1, processors=8, latency=60)
        # a single processor can never split
        assert not should_split(10_000, matched_depth=1, processors=1, latency=60)

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
        order = site.order(None)
        assert order[: len(site.seed)] == site.seed and sorted(order) == sorted(rule.pattern.variables)

    def test_expand_respects_labels_and_edges(self, triangle_graph, knows_rule):
        unit = WorkUnit(0, order=("x", "y"), assignment=(("x", "a"),))
        outcome = expand_work_unit(triangle_graph, knows_rule, unit)
        assert outcome.new_units == []  # the only extension completes the match
        assert len(outcome.violations) == 1

    def test_expand_complete_unit_checks_violation(self, triangle_graph, knows_rule):
        unit = WorkUnit(0, order=("x", "y"), assignment=(("x", "a"), ("y", "b")))
        outcome = expand_work_unit(triangle_graph, knows_rule, unit)
        assert len(outcome.violations) == 1

    def test_pivot_site_checks_the_edges_inside_its_seed(self, triangle_graph, knows_rule):
        site = PivotSite(knows_rule.pattern, knows_rule.pattern.edges()[0])
        assert site.holds_in(triangle_graph.store, ("a", "b"))
        assert not site.holds_in(triangle_graph.store, ("b", "a"))


class TestPDect:
    def test_matches_sequential_batch(self, kb_graph, kb_rules):
        expected = find_violations(kb_graph, kb_rules)
        for processors in (1, 4, 8):
            result = p_dect(kb_graph, kb_rules, processors=processors)
            assert result.violations == expected

    def test_makespan_decreases_with_processors(self, kb_graph, kb_rules):
        few = p_dect(kb_graph, kb_rules, processors=2).cost
        many = p_dect(kb_graph, kb_rules, processors=16).cost
        assert many < few


class TestPIncDect:
    def _ground_truth(self, graph, rules, delta):
        before = find_violations(graph, rules)
        after = find_violations(apply_update(graph, delta), rules)
        return ViolationDelta.from_sets(before, after)

    @pytest.mark.parametrize("processors", [1, 2, 8, 16])
    def test_matches_ground_truth(self, kb_graph, kb_rules, kb_delta, processors):
        expected = self._ground_truth(kb_graph, kb_rules, kb_delta)
        result = pinc_dect(kb_graph, kb_rules, kb_delta, processors=processors)
        assert result.delta == expected

    @pytest.mark.parametrize(
        "policy_factory",
        [BalancingPolicy.hybrid, BalancingPolicy.no_splitting, BalancingPolicy.no_rebalancing, BalancingPolicy.none],
    )
    def test_all_variants_are_correct(self, kb_graph, kb_rules, kb_delta, policy_factory):
        expected = self._ground_truth(kb_graph, kb_rules, kb_delta)
        result = pinc_dect(kb_graph, kb_rules, kb_delta, processors=8, policy=policy_factory())
        assert result.delta == expected

    def test_variant_names_follow_policy(self, kb_graph, kb_rules, kb_delta):
        assert pinc_dect(kb_graph, kb_rules, kb_delta, processors=4).algorithm == "PIncDect"
        assert (
            pinc_dect(kb_graph, kb_rules, kb_delta, processors=4, policy=BalancingPolicy.none()).algorithm
            == "PIncDectNO"
        )

    def test_makespan_decreases_with_processors(self, kb_graph, kb_rules, kb_delta):
        p4 = pinc_dect(kb_graph, kb_rules, kb_delta, processors=4).cost
        p16 = pinc_dect(kb_graph, kb_rules, kb_delta, processors=16).cost
        assert p16 < p4

    def test_parallel_beats_sequential_yardstick(self, kb_graph, kb_rules, kb_delta):
        sequential = inc_dect(kb_graph, kb_rules, kb_delta).cost
        parallel = pinc_dect(kb_graph, kb_rules, kb_delta, processors=8).cost
        assert parallel < sequential

    def test_incremental_parallel_beats_batch_parallel_for_small_updates(self, kb_graph, kb_rules):
        delta = UpdateGenerator(seed=5).generate(kb_graph, max(1, kb_graph.edge_count() // 20))
        incremental = pinc_dect(kb_graph, kb_rules, delta, processors=8).cost
        batch = p_dect(kb_graph, kb_rules, processors=8).cost
        assert incremental < batch

    def test_worker_traces_account_all_units(self, kb_graph, kb_rules, kb_delta):
        result = pinc_dect(kb_graph, kb_rules, kb_delta, processors=8)
        assert len(result.worker_traces) == 8
        assert sum(trace.work_units_processed for trace in result.worker_traces) > 0

    def test_empty_delta(self, kb_graph, kb_rules):
        from repro.graph.updates import BatchUpdate

        result = pinc_dect(kb_graph, kb_rules, BatchUpdate(), processors=4)
        assert result.delta.is_empty()
