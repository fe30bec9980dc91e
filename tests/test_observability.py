"""End-to-end tests for the observability subsystem (:mod:`repro.obs`).

Covers the ISSUE's hard requirements:

* metrics registry units — counters/gauges/histograms with label sets,
  exact totals under many short-lived threads with no per-thread state
  left behind, Prometheus exposition, worker-dump absorption;
* span tracing — parent/child correctness via the contextvar under nested
  scopes and concurrent threads, the flight-recorder ring bound;
* the **observe, never steer** invariant: every traced run's violations
  equal the naive reference detector's, across every storage backend ×
  execution mode, the real multi-process backend included;
* the ``--profile`` invariant: summing the ``detect.rule`` spans of one
  trace reproduces the run's ``MatchStatistics``;
* the stream consumer contract on all four kernels (a consumer that
  raises mid-stream gets its own exception back, the abandoned run is
  traced as an error and counted as no run, and the session's next run
  gives the clean answer);
* the service surfaces: ``/metrics`` scrape-able during an active NDJSON
  stream, ``/debug/traces``, ``X-Repro-Trace`` + summary ``trace_id``
  agreement, the structured access log, and the extended ``/health``,
  whose ``fault_tolerance`` block totals the registry's supervision
  counters.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core.builtin_rules import example_rules
from repro.datasets.figure1 import figure1_g2
from repro.detect import DetectionOptions, Detector
from repro.detect import session as session_module
from repro.graph.graph import Graph
from repro.graph.updates import UpdateGenerator
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.tracing import FlightRecorder, Span, format_span_tree, new_id
from repro.service import DetectionService, ServiceClient

import naive_reference
from engines import new_store

ALL_STORES = ("dict", "indexed")  # the oracle and the shipped layout


@pytest.fixture(autouse=True)
def fresh_observability():
    """Every test starts from an empty registry/recorder pair, and leaves one behind."""
    obs.configure()
    yield
    obs.configure()


@pytest.fixture
def delta(g2):
    return UpdateGenerator(seed=21).generate(g2, 12, insert_ratio=0.5)


# ------------------------------------------------------------------- metrics


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.counter_inc("req_total", {"route": "/a"})
        registry.counter_inc("req_total", {"route": "/a"}, 2.0)
        registry.counter_inc("req_total", {"route": "/b"}, 5.0)
        registry.counter_inc("req_total")
        assert registry.value("req_total", {"route": "/a"}) == 3.0
        assert registry.value("req_total", {"route": "/b"}) == 5.0
        assert registry.value("req_total") == 1.0
        assert registry.total("req_total") == 9.0

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        registry.gauge_set("jobs_active", value=4.0)
        registry.gauge_add("jobs_active", amount=-1.0)
        assert registry.value("jobs_active") == 3.0
        registry.gauge_set("jobs_active", value=0.0)
        assert registry.value("jobs_active") == 0.0

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        registry.describe("latency", "histogram", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            registry.histogram_observe("latency", value=value)
        snap = registry.snapshot()
        [(name, key, cells)] = snap["histograms"]
        assert name == "latency" and key == []
        # per-bucket (non-cumulative) counts + [sum, count] at the tail;
        # 50.0 overflows every bound and lands only in sum/count
        assert cells == [1.0, 2.0, 1.0, 56.05, 5.0]

    def test_thread_shards_merge_on_read(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.counter_inc("hits", {"k": "v"})

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.value("hits", {"k": "v"}) == 8000.0

    def test_short_lived_threads_leave_exact_totals_and_no_per_thread_state(self):
        """One thread per request or job: 2,000 writers, and the registry keeps only their samples."""
        registry = MetricsRegistry()
        registry.describe("wait", "histogram", buckets=(0.5, 1.0))

        def request():
            registry.counter_inc("requests_total", {"route": "/health"})
            registry.histogram_observe("wait", value=0.25)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
        try:
            for _ in range(20):
                batch = [threading.Thread(target=request) for _ in range(100)]
                for thread in batch:
                    thread.start()
                for thread in batch:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert registry.value("requests_total", {"route": "/health"}) == 2000.0
        [(name, _, cells)] = registry.snapshot()["histograms"]
        assert name == "wait" and cells == [2000.0, 0.0, 500.0, 2000.0]
        # what the registry holds is its lock, the family table and one map per kind
        assert set(vars(registry)) == {"_lock", "_families", "_counters", "_gauges", "_histograms"}
        assert len(registry._counters) == len(registry._histograms) == 1

    def test_exposition_is_valid_prometheus_text(self):
        registry = MetricsRegistry()
        registry.describe("req_total", "counter", "requests served")
        registry.counter_inc("req_total", {"route": "/a", "status": "200"}, 3)
        registry.gauge_set("temp", value=1.5)
        registry.describe("lat", "histogram", buckets=(0.5, 1.0))
        registry.histogram_observe("lat", value=0.2)
        text = registry.exposition()
        assert "# HELP req_total requests served" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{route="/a",status="200"} 3' in text
        assert "# TYPE temp gauge" in text
        assert "temp 1.5" in text
        # histogram exposition: cumulative buckets, +Inf == _count, plus sum
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert text.endswith("\n")

    def test_exposition_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter_inc("c", {"path": 'a"b\\c\nd'})
        assert 'path="a\\"b\\\\c\\nd"' in registry.exposition()

    def test_absorb_applies_worker_label(self):
        worker = MetricsRegistry()
        worker.counter_inc("units_total", {"rule": "r1"}, 7)
        worker.histogram_observe("wait", value=0.2)
        worker.gauge_add("inflight", amount=2)
        parent = MetricsRegistry()
        parent.absorb(worker.dump(), extra_labels={"worker": 3})
        assert parent.value("units_total", {"rule": "r1", "worker": 3}) == 7.0
        assert parent.value("inflight", {"worker": 3}) == 2.0
        [(name, key, cells)] = parent.snapshot()["histograms"]
        assert name == "wait" and ["worker", "3"] in key and cells[-1] == 1.0

    def test_absorb_is_additive_across_payloads(self):
        parent = MetricsRegistry()
        for _ in range(3):
            worker = MetricsRegistry()
            worker.counter_inc("units_total", amount=2)
            parent.absorb(worker.dump(), extra_labels={"worker": 0})
        assert parent.value("units_total", {"worker": 0}) == 6.0

    def test_render_prometheus_of_empty_snapshot(self):
        text = render_prometheus({"families": {}, "counters": [], "gauges": [], "histograms": []})
        assert text == "\n"


# ------------------------------------------------------------------- tracing


class TestTracing:
    def test_new_id_shape(self):
        identifier = new_id()
        assert len(identifier) == 16
        int(identifier, 16)  # raises if not hex

    def test_nested_spans_share_trace_and_parent(self):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
            assert obs.current_span() is outer
        assert obs.current_span() is None
        recorded = obs.traces()
        assert [span["name"] for span in recorded] == ["inner", "outer"]

    def test_span_parenting_is_correct_under_threads(self):
        """Each thread gets its own contextvar: no cross-thread parent leaks."""
        results = {}

        def run(tag):
            with obs.span(f"root-{tag}") as root:
                with obs.span(f"child-{tag}") as child:
                    results[tag] = (root, child)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        trace_ids = set()
        for tag, (root, child) in results.items():
            assert child.parent_id == root.span_id
            assert child.trace_id == root.trace_id
            trace_ids.add(root.trace_id)
        assert len(trace_ids) == 6  # six independent traces, no sharing

    def test_flight_recorder_ring_bound(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            span = Span(f"s{index}")
            span.finish()
            recorder.record(span)
        names = [span["name"] for span in recorder.snapshot()]
        assert names == ["s6", "s7", "s8", "s9"]
        assert [span["name"] for span in recorder.snapshot(limit=2)] == ["s8", "s9"]

    def test_format_span_tree_indents_children(self):
        with obs.span("parent", graph="g1"):
            with obs.span("child"):
                pass
        tree = format_span_tree(obs.traces())
        lines = tree.splitlines()
        assert lines[0].startswith("- parent") and "graph=g1" in lines[0]
        assert lines[1].startswith("  - child")


# ------------------------------------------------- detector trace correctness


class TestDetectorTraces:
    def test_run_produces_one_trace_with_rule_spans(self, g1, figure1_rules):
        result = Detector(figure1_rules, engine="batch").run(g1)
        assert result.trace_id is not None
        spans = [span for span in obs.traces() if span["trace_id"] == result.trace_id]
        roots = [span for span in spans if span["name"] == "detect.run"]
        assert len(roots) == 1
        root = roots[0]
        assert root["attributes"]["violations"] == result.violation_count()
        rule_spans = [span for span in spans if span["name"] == "detect.rule"]
        assert {span["parent_id"] for span in rule_spans} == {root["span_id"]}
        assert len(rule_spans) == len(figure1_rules)

    def test_profile_invariant_rule_spans_sum_to_match_statistics(self, g1, figure1_rules):
        """Summing detect.rule spans reproduces MatchStatistics (--profile)."""
        result = Detector(figure1_rules, engine="batch").run(g1)
        rule_spans = [
            span
            for span in obs.traces()
            if span["name"] == "detect.rule" and span["trace_id"] == result.trace_id
        ]
        for field in (
            "candidates_examined",
            "expansions",
            "edge_checks",
            "literal_evaluations",
            "matches_emitted",
        ):
            summed = sum(span["attributes"][field] for span in rule_spans)
            assert summed == getattr(result.stats, field), field
        assert sum(span["attributes"]["violations"] for span in rule_spans) == (
            result.violation_count()
        )

    def test_run_counters_cover_detection_families(self, g1, figure1_rules):
        result = Detector(figure1_rules, engine="batch").run(g1)
        registry = obs.metrics()
        assert registry.value("repro_detect_runs_total", {"algorithm": "Dect"}) == 1.0
        assert registry.total("repro_detect_candidates_total") > 0
        assert registry.total("repro_match_candidates_examined") > 0
        # one evaluator, so the literal count carries no label
        assert registry.value("repro_literal_evals_total") == result.stats.literal_evaluations > 0

    def test_incremental_run_is_traced(self, g2, figure1_rules, delta):
        result = Detector(figure1_rules, engine="incremental").run_incremental(g2, delta)
        assert result.trace_id is not None
        names = {
            span["name"] for span in obs.traces() if span["trace_id"] == result.trace_id
        }
        assert "detect.run_incremental" in names

    def test_slow_plan_log_fires_over_threshold(self, g1, figure1_rules, monkeypatch, caplog):
        monkeypatch.setattr(session_module, "DEFAULT_SLOW_PLAN_RATIO", 0.000001)
        with caplog.at_level("WARNING", logger="repro.detect.slowplan"):
            Detector(figure1_rules, engine="batch").run(g1)
        assert any("slow plan" in message for message in caplog.messages)
        assert obs.metrics().total("repro_slow_plans_total") == 1.0

    def test_a_simulated_makespan_is_not_a_slow_plan(self, g2, figure1_rules, caplog):
        # the makespan carries the scan broadcast's latency C = 60, which no planner estimate counts
        with caplog.at_level("WARNING", logger="repro.detect.slowplan"):
            result = Detector(figure1_rules, engine="parallel", processors=2).run(g2)
        assert result.worker_traces and result.cost >= 60
        assert not caplog.messages
        assert obs.metrics().total("repro_slow_plans_total") == 0.0


# ----------------------------------------------- observe-never-steer parity


def _run(graph: Graph, execution: str):
    if execution == "serial":
        detector = Detector(example_rules(), engine="batch")
    else:
        detector = Detector(
            example_rules(),
            engine="parallel",
            processors=2,
            options=DetectionOptions(execution="processes"),
        )
    return detector.run(graph)


def _pairs(violations) -> set[tuple]:
    return {(violation.rule, violation.nodes) for violation in violations}


class TestOnOffParity:
    """Observe, never steer: every run records its trace, and its answer is the naive reference's."""

    @pytest.mark.parametrize("backend", ALL_STORES)
    @pytest.mark.parametrize("execution", ("serial", "processes"))
    def test_violations_byte_identical(self, backend, execution):
        graph = figure1_g2().with_backend(new_store(backend))
        result = _run(graph, execution)
        assert result.trace_id is not None
        assert any(span["trace_id"] == result.trace_id for span in obs.traces())
        assert len(result.violations) > 0
        assert _pairs(result.violations) == naive_reference.violations(figure1_g2(), example_rules())

    def test_incremental_byte_identical(self, g2, figure1_rules, delta):
        from repro.graph.updates import apply_update

        result = Detector(figure1_rules, engine="incremental").run_incremental(g2, delta)
        assert result.trace_id is not None
        before = naive_reference.violations(g2, figure1_rules)
        after = naive_reference.violations(apply_update(g2, delta), figure1_rules)
        assert _pairs(result.introduced()) == after - before
        assert _pairs(result.removed()) == before - after


# ------------------------------------------ cross-process metric/span shipping


class TestCrossProcessShipping:
    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_worker_spans_and_metrics_ship_home(self, start_method, force_start_method):
        graph = figure1_g2()
        force_start_method(start_method)
        result = Detector(
            example_rules(),
            engine="parallel",
            processors=2,
            options=DetectionOptions(execution="processes"),
        ).run(graph)
        assert result.algorithm == "PDect"
        assert len(result.violations) > 0
        spans = obs.traces()
        worker_spans = [span for span in spans if span["name"] == "executor.worker"]
        assert worker_spans, "workers must ship their spans back over the result queue"
        # worker metric deltas arrive labelled with the shipping worker's id
        snap = obs.snapshot()
        worker_labelled = [
            (name, dict(key))
            for name, key, _ in snap["counters"]
            if any(k == "worker" for k, _ in key)
        ]
        assert worker_labelled, "worker counter deltas must be absorbed with a worker label"
        assert obs.metrics().total("repro_executor_units_total") > 0

    def test_fork_worker_spans_join_the_run_trace(self, force_start_method):
        """fork children inherit the contextvar: their spans join the run tree."""
        graph = figure1_g2()
        force_start_method("fork")
        result = Detector(
            example_rules(),
            engine="parallel",
            processors=2,
            options=DetectionOptions(execution="processes"),
        ).run(graph)
        worker_spans = [span for span in obs.traces() if span["name"] == "executor.worker"]
        assert worker_spans
        assert {span["trace_id"] for span in worker_spans} == {result.trace_id}


# --------------------------------------------------- stream consumer contract


class ConsumerError(Exception):
    """Raised by a test's stream consumer after the first event."""


def _abandon_after_first(stream) -> None:
    with pytest.raises(ConsumerError):
        for _event in stream:
            raise ConsumerError("consumer gave up")
    stream.close()


class TestStreamConsumerErrors:
    """A consumer that raises mid-stream, on all four kernels, abandons that run
    only: the abandoned run's root span records the error, no completed run is
    counted, ``last_result`` keeps its old value, and the session's next run
    gives the clean answer."""

    @staticmethod
    def _check_abandoned_run(detector, algorithm, root_name):
        assert detector.last_result is None
        registry = obs.metrics()
        assert registry.value("repro_detect_runs_total", {"algorithm": algorithm}) == 0.0
        roots = [span for span in obs.traces() if span["name"] == root_name]
        assert len(roots) == 1
        assert roots[0]["attributes"]["error"] == "GeneratorExit"

    @pytest.mark.parametrize("engine,processors,algorithm", [
        ("batch", None, "Dect"),
        ("parallel", 2, "PDect"),
    ])
    def test_batch_kernels_survive_raising_consumer(self, g2, figure1_rules, engine, processors, algorithm):
        clean = Detector(figure1_rules, engine=engine, processors=processors).run(g2)
        obs.configure()
        detector = Detector(figure1_rules, engine=engine, processors=processors)
        _abandon_after_first(detector.stream(g2))
        self._check_abandoned_run(detector, algorithm, "detect.run")
        again = detector.run(g2)
        assert again.algorithm == algorithm
        assert again.violations.to_json() == clean.violations.to_json()
        assert again.cost == clean.cost
        assert obs.metrics().value("repro_detect_runs_total", {"algorithm": algorithm}) == 1.0
        assert detector.last_result is again

    @pytest.mark.parametrize("engine,processors,algorithm", [
        ("incremental", None, "IncDect"),
        ("parallel", 2, "PIncDect"),
    ])
    def test_incremental_kernels_survive_raising_consumer(
        self, g2, figure1_rules, delta, engine, processors, algorithm
    ):
        clean = Detector(figure1_rules, engine=engine, processors=processors).run_incremental(
            g2, delta
        )
        obs.configure()
        detector = Detector(figure1_rules, engine=engine, processors=processors)
        _abandon_after_first(detector.stream_incremental(g2, delta))
        self._check_abandoned_run(detector, algorithm, "detect.run_incremental")
        again = detector.run_incremental(g2, delta)
        assert again.algorithm == algorithm
        assert again.introduced().to_json() == clean.introduced().to_json()
        assert again.removed().to_json() == clean.removed().to_json()
        assert again.cost == clean.cost
        assert obs.metrics().value("repro_detect_runs_total", {"algorithm": algorithm}) == 1.0


# ------------------------------------------------------------ service surface


def multi_area_graph(areas: int = 6, name: str = "areas") -> Graph:
    """Every area violates φ2 — a stream with ``areas`` violation records."""
    graph = Graph(name)
    for i in range(areas):
        graph.add_node(f"area{i}", "area")
        graph.add_node(f"f{i}", "integer", {"val": 100 + i})
        graph.add_node(f"m{i}", "integer", {"val": 200 + i})
        graph.add_node(f"t{i}", "integer", {"val": 999})
        graph.add_edge(f"area{i}", f"f{i}", "femalePopulation")
        graph.add_edge(f"area{i}", f"m{i}", "malePopulation")
        graph.add_edge(f"area{i}", f"t{i}", "populationTotal")
    return graph


@pytest.fixture
def service():
    svc = DetectionService(port=0)
    svc.manager.register_catalog("example", example_rules())
    with svc:
        yield svc


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


def _get(service, path):
    with urllib.request.urlopen(f"{service.url}{path}", timeout=10) as response:
        return response.status, dict(response.headers), response.read().decode("utf-8")


class TestServiceObservability:
    def test_metrics_scrape_during_active_stream(self, service, client, monkeypatch):
        # the stream is held after its first record until the mid-stream
        # scrape is done: the socket buffers swallow a whole stream, so no
        # stream length guarantees a job is still running when we look
        scraped = threading.Event()
        manager = service.manager
        stream_detection = manager.stream_detection

        def held_stream_detection(name, request):
            records, trace_id = stream_detection(name, request)

            def held():
                for index, record in enumerate(records):
                    yield record
                    if index == 0:
                        assert scraped.wait(timeout=30)
            return held(), trace_id

        monkeypatch.setattr(manager, "stream_detection", held_stream_detection)
        client.register_graph("areas", multi_area_graph(areas=300))
        records = client.stream_detect("areas", catalog="example", engine="batch")
        first = next(records)
        assert first["type"] == "violation"
        try:
            status, headers, text = _get(service, "/metrics")
        finally:
            scraped.set()
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        assert "repro_jobs_active 1" in text
        assert "repro_jobs_total 1" in text
        remaining = list(records)
        summary = remaining[-1]
        assert summary["type"] == "summary"
        assert summary["trace_id"]
        # post-run scrape reflects the completed work; the scrape's own
        # request line is counted once it has been answered, so poll (bounded)
        # until every post-run line is there
        expected = (
            "repro_jobs_active 0",
            'repro_detect_runs_total{algorithm="Dect"} 1',
            'repro_http_requests_total{method="GET",route="/metrics",status="200"}',
        )
        for _ in range(100):
            _, _, text = _get(service, "/metrics")
            if all(line in text for line in expected):
                break
            time.sleep(0.05)
        for line in expected:
            assert line in text

    def test_trace_header_matches_summary_trace_id(self, service, client):
        client.register_graph("areas", multi_area_graph(areas=2))
        request = urllib.request.Request(
            f"{service.url}/graphs/areas/detect",
            data=json.dumps({"catalog": "example"}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            header_trace = response.headers.get("X-Repro-Trace")
            records = [json.loads(line) for line in response if line.strip()]
        assert header_trace
        summary = records[-1]
        assert summary["type"] == "summary"
        assert summary["trace_id"] == header_trace
        # the whole run landed in the flight recorder under that one trace
        trace_names = {
            span["name"] for span in obs.traces() if span["trace_id"] == header_trace
        }
        assert "service.detect" in trace_names
        assert "detect.run" in trace_names

    def test_debug_traces_endpoint(self, service, client):
        client.register_graph("areas", multi_area_graph(areas=2))
        client.detect("areas", catalog="example")
        status, _, text = _get(service, "/debug/traces?limit=50")
        assert status == 200
        document = json.loads(text)
        assert set(document) == {"count", "spans"}
        assert document["count"] == len(document["spans"]) > 0
        names = {span["name"] for span in document["spans"]}
        assert "detect.run" in names
        # limit is honoured
        _, _, text = _get(service, "/debug/traces?limit=1")
        assert len(json.loads(text)["spans"]) == 1

    def test_debug_traces_rejects_bad_limit(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(service, "/debug/traces?limit=potato")
        assert excinfo.value.code == 400

    def test_health_reports_observability_and_uptime(self, service, client):
        health = client.health()
        assert health["status"] == "ok"
        assert "observability" not in health
        # the supervision tallies, totalled from the metrics registry
        assert health["fault_tolerance"] == {"worker_restarts": 0, "units_retried": 0, "degraded_runs": 0}
        assert health["uptime_seconds"] >= 0

    def test_access_log_line_per_request(self, capfd):
        svc = DetectionService(port=0, access_log=True)
        with svc:
            ServiceClient(svc.url).health()
        err = capfd.readouterr().err
        lines = [line for line in err.splitlines() if "path=/health" in line]
        assert lines, f"expected an access-log line, stderr was: {err!r}"
        assert "method=GET" in lines[0]
        assert "status=200" in lines[0]
        assert "duration_ms=" in lines[0]

    def test_quiet_service_logs_nothing(self, capfd):
        svc = DetectionService(port=0, access_log=False)
        with svc:
            ServiceClient(svc.url).health()
        err = capfd.readouterr().err
        assert "path=/health" not in err

    def test_unknown_paths_share_one_route_label(self, service):
        # a label per path would let any client grow the registry without bound
        paths = [
            f"/{family}/{i}"
            for i in range(10)
            for family in ("health", "metrics", "graphs/g", "sessions/s1", "nowhere")
        ]
        for path in paths:
            with pytest.raises(urllib.error.HTTPError):
                _get(service, path)
        families = ("repro_http_requests_total", "repro_http_request_seconds")
        # the handler counts a request after its reply is sent: poll (bounded)
        for _ in range(100):
            snapshot = obs.snapshot()
            counted = sum(value for name, _, value in snapshot["counters"] if name == families[0])
            if counted >= len(paths):
                break
            time.sleep(0.05)
        assert counted == len(paths)
        routes = {
            dict(labels)["route"]
            for kind in ("counters", "histograms")
            for name, labels, _ in snapshot[kind]
            if name in families
        }
        assert routes == {"/unknown"}
