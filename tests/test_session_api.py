"""Tests for the unified ``Detector`` session API: engines, streaming, sinks, budgets."""

from __future__ import annotations

import pytest

from repro.core.builtin_rules import example_rules, phi2
from repro.core.validation import find_violations
from repro.core.violations import ViolationSet
from repro.datasets.figure1 import figure1_g2, figure1_graphs
from repro.detect import (
    CallbackSink,
    CollectingSink,
    DetectionOptions,
    Detector,
    dect,
    inc_dect,
    p_dect,
    pinc_dect,
)
from repro.errors import SessionError
from repro.graph.graph import Graph
from repro.graph.updates import BatchUpdate


def _many_violations_graph(copies: int = 6) -> Graph:
    """A graph with ``copies`` independent φ2 violations (wrong population totals)."""
    graph = Graph("many-vio")
    for index in range(copies):
        area = f"area{index}"
        graph.add_node(area, "area")
        graph.add_node(f"{area}/f", "integer", {"val": 100 + index})
        graph.add_node(f"{area}/m", "integer", {"val": 200 + index})
        graph.add_node(f"{area}/t", "integer", {"val": 999_000 + index})  # wrong total
        graph.add_edge(area, f"{area}/f", "femalePopulation")
        graph.add_edge(area, f"{area}/m", "malePopulation")
        graph.add_edge(area, f"{area}/t", "populationTotal")
    return graph


class TestEngines:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SessionError):
            Detector(example_rules(), engine="quantum")

    def test_unknown_store_rejected(self):
        with pytest.raises(SessionError):
            Detector(example_rules(), store="csr-from-the-future")

    def test_bad_processors_rejected(self):
        with pytest.raises(SessionError):
            Detector(example_rules(), processors=0)

    def test_incremental_engine_refuses_full_run(self):
        detector = Detector(example_rules(), engine="incremental")
        with pytest.raises(SessionError):
            detector.run(figure1_g2())

    def test_auto_engine_selects_parallel_with_processors(self):
        graph = figure1_g2()
        result = Detector(example_rules(), processors=4).run(graph)
        assert result.algorithm == "PDect"
        assert result.processors == 4
        result = Detector(example_rules()).run(graph)
        assert result.algorithm == "Dect"

    def test_rules_accepts_plain_list(self):
        result = Detector([phi2()]).run(figure1_g2())
        assert result.violation_count() == 1

    def test_store_conversion(self):
        graph = figure1_g2().with_backend("indexed")
        detector = Detector(example_rules(), store="dict")
        result = detector.run(graph)
        assert result.violation_count() == 1
        # the caller's graph is untouched
        assert graph.store_backend == "indexed"

    @pytest.mark.parametrize("option", ("use_planner", "compiled"))
    def test_there_is_no_pipeline_option(self, option):
        # every run is planned and closure-compiled: no other pipeline to pick
        with pytest.raises(TypeError):
            DetectionOptions(**{option: False})

    @pytest.mark.parametrize("switch", ("REPRO_MATCH_PLANNER", "REPRO_COMPILED_EVAL"))
    def test_no_environment_switch_turns_the_pipeline_off(self, switch, monkeypatch):
        graph = figure1_g2()
        expected = Detector(example_rules()).run(graph)
        monkeypatch.setenv(switch, "off")
        detector = Detector(example_rules())
        result = detector.run(graph)
        assert detector.plan_compilations == 1
        assert result.violations.to_json() == expected.violations.to_json()
        assert result.stats.total_operations() == expected.stats.total_operations()


class TestLegacyShims:
    """The module-level functions must behave exactly like the sessions they wrap."""

    def test_dect_matches_detector_on_figure1(self):
        rules = example_rules()
        for name, graph in figure1_graphs().items():
            legacy = dect(graph, rules)
            session = Detector(rules, engine="batch").run(graph)
            assert legacy.violations == session.violations, name
            assert legacy.cost == session.cost, name
            assert legacy.algorithm == session.algorithm == "Dect"

    def test_p_dect_matches_detector_on_figure1(self):
        rules = example_rules()
        for name, graph in figure1_graphs().items():
            legacy = p_dect(graph, rules, processors=4)
            session = Detector(rules, engine="parallel", processors=4).run(graph)
            assert legacy.violations == session.violations, name
            assert legacy.cost == session.cost, name

    def test_incremental_shims_match_detector(self):
        rules = example_rules()
        graph = figure1_g2()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")

        legacy = inc_dect(graph, rules, delta)
        session = Detector(rules, engine="incremental").run_incremental(graph, delta)
        assert legacy.delta == session.delta
        assert legacy.cost == session.cost

        legacy_p = pinc_dect(graph, rules, delta, processors=4)
        session_p = Detector(rules, engine="parallel", processors=4).run_incremental(graph, delta)
        assert legacy_p.delta == session_p.delta
        assert legacy_p.cost == session_p.cost

    def test_legacy_positional_signatures_still_work(self):
        graph = figure1_g2()
        rules = example_rules()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        assert dect(graph, rules, False).violation_count() == 1
        assert inc_dect(graph, rules, delta, True, False, None).total_changes() == 1
        assert p_dect(graph, rules, 4, None, True).violation_count() == 1
        assert pinc_dect(graph, rules, delta, 4, None, True, None).total_changes() == 1


class TestStreaming:
    @pytest.mark.parametrize("backend", ["dict", "indexed"])
    def test_stream_matches_dect_on_both_backends(self, backend):
        rules = example_rules()
        for name, graph in figure1_graphs().items():
            graph = graph.with_backend(backend)
            streamed = ViolationSet(Detector(rules).stream(graph))
            assert streamed == dect(graph, rules).violations, (name, backend)

    def test_stream_sets_last_result(self):
        graph = figure1_g2()
        detector = Detector(example_rules())
        assert detector.last_result is None
        list(detector.stream(graph))
        assert detector.last_result is not None
        assert detector.last_result.violation_count() == 1

    def test_stream_matches_ground_truth_matcher(self):
        graph = _many_violations_graph()
        rules = example_rules()
        streamed = ViolationSet(Detector(rules).stream(graph))
        assert streamed == ViolationSet(find_violations(graph, rules))

    def test_stream_incremental_yields_signed_events(self):
        graph = figure1_g2()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        events = list(Detector(example_rules()).stream_incremental(graph, delta))
        assert len(events) == 1
        assert events[0].introduced is False
        assert events[0].violation.rule == "phi2"

    def test_parallel_stream_matches_p_dect(self):
        graph = _many_violations_graph()
        rules = example_rules()
        streamed = ViolationSet(Detector(rules, engine="parallel", processors=4).stream(graph))
        assert streamed == p_dect(graph, rules, processors=4).violations


class TestSinks:
    def test_collecting_sink_observes_batch_run(self):
        sink = CollectingSink()
        result = Detector(example_rules(), sinks=[sink]).run(_many_violations_graph())
        assert sink.violations == result.violations
        assert sink.results == [result]

    def test_callback_sink_sees_stream_order(self):
        seen: list = []
        detector = Detector(example_rules()).add_sink(
            CallbackSink(lambda violation, introduced: seen.append(violation))
        )
        streamed = list(detector.stream(_many_violations_graph()))
        assert seen == streamed

    def test_sink_observes_incremental_directions(self):
        graph = figure1_g2()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        sink = CollectingSink()
        result = Detector(example_rules(), sinks=[sink]).run_incremental(graph, delta)
        assert sink.removed == result.removed()
        assert not sink.introduced

    def test_multiple_sinks_fan_out(self):
        first, second = CollectingSink(), CollectingSink()
        Detector(example_rules(), sinks=[first, second]).run(figure1_g2())
        assert first.violations == second.violations
        assert len(first.violations) == 1


class TestBudgets:
    def test_max_violations_stops_early_with_less_cost(self):
        graph = _many_violations_graph(copies=6)
        rules = example_rules()
        full = Detector(rules).run(graph)
        assert full.violation_count() == 6
        assert not full.stopped_early

        capped = Detector(rules, options=DetectionOptions(max_violations=1)).run(graph)
        assert capped.violation_count() == 1
        assert capped.stopped_early
        assert capped.stop_reason == "max_violations"
        assert capped.cost < full.cost
        # the capped finding is a genuine member of the full answer
        assert capped.violations.as_set() <= full.violations.as_set()

    def test_max_violations_stops_stream(self):
        graph = _many_violations_graph(copies=6)
        detector = Detector(example_rules(), options=DetectionOptions(max_violations=2))
        assert len(list(detector.stream(graph))) == 2
        assert detector.last_result.stopped_early

    def test_max_cost_stops_early(self):
        graph = _many_violations_graph(copies=6)
        rules = example_rules()
        full = Detector(rules).run(graph)
        capped = Detector(rules, options=DetectionOptions(max_cost=full.cost / 4)).run(graph)
        assert capped.stopped_early
        assert capped.stop_reason == "max_cost"
        assert capped.cost < full.cost

    def test_nonpositive_caps_rejected(self):
        from repro.detect import DetectionBudget

        with pytest.raises(SessionError):
            DetectionBudget(max_violations=0)
        with pytest.raises(SessionError):
            DetectionBudget(max_cost=0.0)
        with pytest.raises(SessionError):
            Detector(example_rules(), options=DetectionOptions(max_violations=-1)).run(
                figure1_g2()
            )

    def test_budget_applies_to_parallel_engine(self):
        graph = _many_violations_graph(copies=6)
        options = DetectionOptions(max_violations=1)
        capped = Detector(example_rules(), engine="parallel", processors=4, options=options).run(graph)
        assert capped.violation_count() == 1
        assert capped.stopped_early

    def test_budget_applies_to_incremental_engine(self):
        graph = _many_violations_graph(copies=6)
        delta = BatchUpdate()
        for index in range(6):
            delta.delete(f"area{index}", f"area{index}/t", "populationTotal")
        options = DetectionOptions(max_violations=1)
        capped = Detector(example_rules(), options=options).run_incremental(graph, delta)
        assert capped.total_changes() == 1
        assert capped.stopped_early
        full = Detector(example_rules()).run_incremental(graph, delta)
        assert full.total_changes() == 6
        assert capped.cost < full.cost


class TestBatchDiffMode:
    def test_engine_batch_run_incremental_matches_inc_dect(self):
        graph = figure1_g2()
        rules = example_rules()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        oracle = Detector(rules, engine="batch").run_incremental(graph, delta)
        incremental = inc_dect(graph, rules, delta)
        assert oracle.delta == incremental.delta
        assert oracle.algorithm == "BatchDiff"

    def test_batch_diff_streams_after_completion(self):
        graph = _many_violations_graph(copies=3)
        delta = BatchUpdate().delete("area0", "area0/t", "populationTotal")
        events = list(Detector(example_rules(), engine="batch").stream_incremental(graph, delta))
        assert len(events) == 1
        assert events[0].introduced is False

    def test_batch_diff_rejects_budgets(self):
        # a capped batch run would make the diff unsound — refuse loudly
        graph = figure1_g2()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        detector = Detector(
            example_rules(), engine="batch", options=DetectionOptions(max_violations=1)
        )
        assert detector.run(graph).stopped_early  # full runs still honour budgets
        with pytest.raises(SessionError):
            detector.run_incremental(graph, delta)
