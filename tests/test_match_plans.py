"""The plan compiler's unit tests and the planned kernels against their oracles.

For every dataset rule set, every storage backend (the two mutable engines
plus the frozen CSR store) and every kernel, planned detection yields
**byte-identical** ``ViolationSet``s and deterministic costs: against the
naive reference where the graph is small enough, against the dict engine
across backends, and against the batch-diff oracle for ΔVio.
"""

from __future__ import annotations

import json

import pytest

import naive_reference
from repro.core.builtin_rules import example_rules
from repro.core.ngd import NGD
from repro.datasets.figure1 import figure1_g1, figure1_g2
from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect.dect import iter_dect
from repro.detect.observers import drain
from repro.detect.session import DetectionOptions, Detector
from repro.graph.graph import WILDCARD, Graph
from repro.graph.pattern import Pattern
from repro.graph.updates import UpdateGenerator, apply_update
from repro.matching.candidates import MatchStatistics
from repro.matching.matchn import HomomorphismMatcher
from repro.matching.plan import (
    GraphStatistics,
    MatchPlan,
    compile_plan,
    compile_plans,
    format_plan,
)
from repro.matching.search import RuleSearch

BACKENDS = ("dict", "indexed", "csr")


def _kb_graph(store=None) -> Graph:
    config = KBConfig(
        name="plans",
        num_entities=90,
        num_entity_types=4,
        num_value_relations=3,
        num_link_relations=3,
        values_per_entity=3,
        links_per_entity=1.0,
        seed=13,
    )
    return knowledge_graph(config, store=store)


def _kb_rules(graph: Graph):
    return benchmark_rules(graph, count=6, max_diameter=3, seed=0)


def _detector(rules, engine="batch", processors=None, **extra) -> Detector:
    return Detector(rules, engine=engine, processors=processors, options=DetectionOptions(**extra))


# ------------------------------------------------------------------- compiler


class TestPlanCompiler:
    def test_order_starts_from_rarest_label(self):
        graph = Graph()
        for index in range(50):
            graph.add_node(f"c{index}", "common", {"val": index})
        graph.add_node("r", "rare", {"val": 1})
        for index in range(50):
            graph.add_edge(f"c{index}", "r", "points")
        pattern = Pattern.from_edges(
            "Q", nodes=[("x", "common"), ("y", "rare")], edges=[("x", "y", "points")]
        )
        rule = NGD.from_text(pattern, "", "x.val < y.val", name="r")
        plan = compile_plan(graph, rule)
        # static order starts at x (declaration order); the planner starts at
        # the rare label and anchors the common side through the index
        assert plan.order == ("y", "x")
        assert plan.steps[0].strategy == "scan"
        assert plan.steps[1].strategy == "anchored"
        assert plan.steps[1].anchors[0].variable == "y"

    def test_plans_identical_across_backends(self):
        base = _kb_graph()
        rules = _kb_rules(base)
        reference = [plan.to_dict() for plan in compile_plans(base, rules)]
        for backend in BACKENDS:
            converted = base.with_backend(backend)
            assert [p.to_dict() for p in compile_plans(converted, rules)] == reference

    def test_literal_schedule_fires_each_premise_literal_once(self):
        graph = _kb_graph()
        for plan in compile_plans(graph, _kb_rules(graph)):
            scheduled = [
                index
                for step in plan.steps
                for index in (*step.unary_premise, *step.premise_checks)
            ]
            assert sorted(scheduled) == list(range(len(plan.rule.premise.literals())))
            assert len(set(scheduled)) == len(scheduled)
            # the conclusion check appears at most once, at the step where a
            # single-literal conclusion is fully bound
            assert sum(step.check_conclusion for step in plan.steps) <= 1

    def test_seeded_order_keeps_seed_first(self):
        graph = _kb_graph()
        rules = _kb_rules(graph)
        plan = compile_plans(graph, rules)[0]
        variables = plan.rule.pattern.variables
        seed = (variables[1], variables[0])
        order = plan.order_for_seed(seed)
        assert order[:2] == seed
        assert sorted(order) == sorted(variables)
        # a connected pattern: every later variable is anchored by an earlier one
        for index in range(2, len(order)):
            assert plan.rule.pattern.neighbours(order[index]) & set(order[:index])
        schedule = plan.schedule_for(order)
        assert tuple(step.variable for step in schedule) == order

    def test_statistics_snapshot(self):
        graph = figure1_g2()
        stats = GraphStatistics.from_graph(graph)
        assert stats.node_count == graph.node_count()
        assert stats.edge_count == graph.edge_count()
        assert stats.label_cardinality(WILDCARD) == graph.node_count()
        assert sum(stats.edge_label_counts.values()) == graph.edge_count()

    def test_format_plan_mentions_every_variable(self):
        graph = figure1_g2()
        for plan in compile_plans(graph, example_rules()):
            rendered = format_plan(plan)
            for variable in plan.rule.pattern.variables:
                assert f" {variable}:" in rendered


# ------------------------------------------------------------- oracle parity


@pytest.mark.parametrize("backend", BACKENDS)
class TestPlannerOracleParity:
    """Planned runs against their oracles, on every storage backend."""

    def test_batch_violations_byte_identical(self, backend):
        base = _kb_graph()
        rules = _kb_rules(base)
        planned = _detector(rules).run(base.with_backend(backend))
        assert planned.violations.to_json() == _detector(rules).run(base).violations.to_json()

    def test_figure1_rules_byte_identical(self, backend):
        for build in (figure1_g1, figure1_g2):
            graph = build().with_backend(backend)
            planned = _detector(example_rules()).run(graph)
            expected = naive_reference.violations(build(), example_rules())
            assert {(v.rule, v.nodes) for v in planned.violations} == expected

    def test_parallel_batch_matches_sequential(self, backend):
        base = _kb_graph()
        rules = _kb_rules(base)
        graph = base.with_backend(backend)
        planned = _detector(rules, engine="parallel", processors=4).run(graph)
        sequential = _detector(rules).run(graph)
        assert planned.violations.to_json() == sequential.violations.to_json()

    def test_costs_deterministic_across_repeated_runs(self, backend):
        base = _kb_graph()
        rules = _kb_rules(base)
        graph = base.with_backend(backend)
        outcomes = set()
        for _ in range(2):
            result = _detector(rules).run(graph)
            outcomes.add((result.cost, result.stats.total_operations()))
        assert len(outcomes) == 1

    def test_costs_identical_across_backends(self, backend):
        base = _kb_graph()
        rules = _kb_rules(base)
        reference = _detector(rules).run(base.with_backend("dict"))
        result = _detector(rules).run(base.with_backend(backend))
        assert result.cost == reference.cost
        assert result.stats.total_operations() == reference.stats.total_operations()


class TestIncrementalPlannerParity:
    """Planned ΔVio against the batch-diff oracle (the CSR store is frozen, so
    the two mutable engines carry the incremental legs)."""

    @pytest.mark.parametrize("backend", ("dict", "indexed"))
    @pytest.mark.parametrize("engine,processors", [("incremental", None), ("parallel", 4)])
    def test_delta_byte_identical(self, backend, engine, processors):
        base = _kb_graph(store=backend)
        rules = _kb_rules(base)
        delta = UpdateGenerator(seed=23).generate(base, size=max(1, base.edge_count() // 8))
        updated = apply_update(base, delta)
        planned = _detector(rules, engine=engine, processors=processors).run_incremental(
            base, delta, graph_after=updated
        )
        oracle = _detector(rules, engine="batch").run_incremental(base, delta, graph_after=updated)
        assert planned.introduced().to_json() == oracle.introduced().to_json()
        assert planned.removed().to_json() == oracle.removed().to_json()

    def test_restricted_neighborhood_matches_batch_diff(self):
        base = _kb_graph()
        rules = _kb_rules(base)
        delta = UpdateGenerator(seed=5).generate(base, size=max(1, base.edge_count() // 10))
        planned = _detector(
            rules, engine="incremental", restrict_to_neighborhood=True
        ).run_incremental(base, delta)
        oracle = _detector(rules, engine="batch").run_incremental(base, delta)
        assert planned.introduced().to_json() == oracle.introduced().to_json()
        assert planned.removed().to_json() == oracle.removed().to_json()


# ----------------------------------------------------------- planner benefits


class TestPlannerWins:
    def test_planned_ordering_beats_static_on_skewed_labels(self):
        """The acceptance workload: skewed label cardinalities.

        A plan pinned to the declaration order (common side first) scans the
        big label bucket; the cost-based order starts from the rare side.
        """
        graph = Graph()
        for index in range(400):
            graph.add_node(f"acct{index}", "account", {"val": index % 37})
        for index in range(8):
            graph.add_node(f"flag{index}", "flag", {"val": index})
        for index in range(0, 400, 25):
            graph.add_edge(f"acct{index}", f"flag{(index // 25) % 8}", "flagged")
        pattern = Pattern.from_edges(
            "skew", nodes=[("x", "account"), ("y", "flag")], edges=[("x", "y", "flagged")]
        )
        rules = [NGD.from_text(pattern, "x.val >= 0", "y.val < x.val", name="skew_rule")]
        plan = compile_plan(graph, rules[0])
        assert plan.order == ("y", "x")
        declared = MatchPlan.from_dict(dict(plan.to_dict(), order=["x", "y"]), rules[0])
        planned = drain(iter_dect(graph, rules, plans=(plan,), adaptive=False))
        static = drain(iter_dect(graph, rules, plans=(declared,), adaptive=False))
        assert planned.violations.to_json() == static.violations.to_json()
        ratio = static.stats.total_operations() / max(1, planned.stats.total_operations())
        assert ratio >= 1.5, f"planned ordering only {ratio:.2f}x better"

    def test_matcher_executes_plan_directly(self):
        """The matcher view runs the cost-based plan of its pattern and premise."""
        graph = _kb_graph()
        statistics = GraphStatistics.from_graph(graph)
        reordered = 0
        for rule in _kb_rules(graph):
            matcher = HomomorphismMatcher(graph, rule.pattern, rule.premise, statistics=statistics)
            assert matcher.plan.order == compile_plan(graph, matcher.plan.rule, statistics).order
            found = [tuple(sorted(match.items())) for match in matcher.matches()]
            assert len(found) == len(set(found)) > 0
            # a plan pinned to the reverse order reaches the same bindings
            backwards = list(reversed(matcher.plan.order))
            reordered += backwards != list(matcher.plan.order)
            pinned = MatchPlan.from_dict(dict(matcher.plan.to_dict(), order=backwards), matcher.plan.rule)
            search = RuleSearch(pinned, True, MatchStatistics(), all_matches=True)
            search.start(graph, pinned.order, ())
            reached = set()
            while search.stack:
                reached.update(tuple(sorted(leaf.mapping().items())) for leaf in search.step())
            assert reached == set(found), rule.name
        assert reordered > 0, "some pattern must have two variables"


# --------------------------------------------------------------- plan caching


class TestSessionPlanCache:
    def test_same_snapshot_compiles_once(self):
        graph = _kb_graph()
        rules = _kb_rules(graph)
        detector = _detector(rules)
        first = detector.compile_plans(graph)
        second = detector.compile_plans(graph)
        assert first is second
        detector.clear_plan_cache()
        assert detector.compile_plans(graph) is not first

    def test_plans_survive_apply_update(self):
        """``run_incremental(G, ΔG)`` without ``plans=`` compiles once over a stream of new stores."""
        graph = _kb_graph()
        rules = _kb_rules(graph)
        default = _detector(rules, engine="incremental")
        holding = _detector(rules, engine="incremental")
        held = holding.compile_plans(graph)
        maintained = _detector(rules).run(graph).violations
        generator = UpdateGenerator(seed=5)
        for _ in range(60):
            delta = generator.generate(graph, size=4)
            after = apply_update(graph, delta)
            assert after.store is not graph.store
            result = default.run_incremental(graph, delta, graph_after=after)
            expected = holding.run_incremental(graph, delta, graph_after=after, plans=held)
            assert result.delta.to_dict() == expected.delta.to_dict()
            assert result.cost == expected.cost
            maintained = maintained.apply_delta(result.delta)
            graph = after
        assert default.plan_compilations == 1
        assert maintained.to_json() == _detector(rules).run(graph).violations.to_json()

    def test_plans_recompile_once_the_graph_has_drifted(self):
        graph = _kb_graph()
        detector = _detector(_kb_rules(graph))
        first = detector.compile_plans(graph)
        grown = graph.copy()
        tolerated = int(0.2 * graph.total_size())
        for index in range(tolerated):
            grown.add_node(f"extra{index}", "filler")
        assert detector.compile_plans(grown) is first
        grown.add_node("one-too-many", "filler")
        assert detector.compile_plans(grown) is not first
        assert (detector.plan_compilations, detector.plan_size) == (2, grown.total_size())

    def test_explicit_plans_override(self):
        graph = _kb_graph()
        rules = _kb_rules(graph)
        detector = _detector(rules)
        plans = detector.compile_plans(graph)
        result = detector.run(graph, plans=plans)
        assert result.violations.to_json() == _detector(rules).run(graph).violations.to_json()


# ----------------------------------------------------------------- CLI explain


class TestExplainCli:
    def _graph_file(self, tmp_path):
        from repro.graph.io import save_graph

        path = tmp_path / "g.json"
        save_graph(figure1_g2(), path)
        return str(path)

    def test_text_output(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["explain", self._graph_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "match plans for" in out
        assert "phi2" in out and "anchored intersection" in out

    def test_json_output_lists_every_rule(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["explain", self._graph_file(tmp_path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [p["rule"] for p in document["plans"]] == [r.name for r in example_rules()]
        for plan in document["plans"]:
            assert plan["order"]
            assert all("strategy" in step for step in plan["steps"])
