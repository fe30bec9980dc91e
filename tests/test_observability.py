"""End-to-end tests for the observability subsystem (:mod:`repro.obs`).

Covers the ISSUE's hard requirements:

* metrics registry units — counters/gauges/histograms with label sets,
  per-thread shard merging, Prometheus exposition, worker-dump absorption;
* span tracing — parent/child correctness via the contextvar under nested
  scopes and concurrent threads, the flight-recorder ring bound;
* the **observe, never steer** invariant: byte-identical ``ViolationSet``s
  with ``REPRO_OBS`` on and off across every storage backend × execution
  mode, including the real multi-process backend under both ``fork`` and
  ``spawn`` start methods;
* the ``--profile`` invariant: summing the ``detect.rule`` spans of one
  trace reproduces the run's ``MatchStatistics``;
* the sink error contract on all four kernels (a raising sink is logged
  and counted, never aborts the run, never changes its output);
* the service surfaces: ``/metrics`` scrape-able during an active NDJSON
  stream, ``/debug/traces``, ``X-Repro-Trace`` + summary ``trace_id``
  agreement, the structured access log, and the extended ``/health``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core.builtin_rules import example_rules
from repro.datasets.figure1 import figure1_g1, figure1_g2
from repro.detect import DetectionOptions, Detector, ViolationSink
from repro.graph.graph import Graph
from repro.graph.store import STORE_REGISTRY
from repro.graph.updates import UpdateGenerator
from repro.obs.metrics import MetricsRegistry, NullRegistry, render_prometheus
from repro.obs.tracing import FlightRecorder, Span, format_span_tree, new_id
from repro.service import DetectionService, ServiceClient

ALL_STORES = tuple(sorted(STORE_REGISTRY))  # csr, dict, indexed, persistent


@pytest.fixture(autouse=True)
def fresh_observability():
    """Every test starts from an empty, enabled registry/recorder pair."""
    obs.configure(True)
    yield
    obs.configure()  # restore the REPRO_OBS-driven default for later suites


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

    def test_null_registry_is_inert(self):
        null = NullRegistry()
        null.counter_inc("anything", {"a": "b"}, 5)
        null.histogram_observe("h", value=1.0)
        assert null.snapshot() == {"families": {}, "counters": [], "gauges": [], "histograms": []}
        assert null.value("anything") == 0.0
        assert "disabled" in null.exposition()

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

    def test_disabled_span_is_null(self):
        obs.configure(False)
        with obs.span("ignored") as span:
            assert span.trace_id is None
            span.set(anything=1)
        assert obs.traces() == []
        assert obs.current_span() is None


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
        result = Detector(figure1_rules, engine="batch").run_incremental(g2, delta)
        assert result.trace_id is not None
        names = {
            span["name"] for span in obs.traces() if span["trace_id"] == result.trace_id
        }
        assert "detect.run_incremental" in names

    def test_trace_id_is_none_when_disabled(self, g1, figure1_rules):
        obs.configure(False)
        result = Detector(figure1_rules, engine="batch").run(g1)
        assert result.trace_id is None

    def test_slow_plan_log_fires_over_threshold(self, g1, figure1_rules, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_SLOW_PLAN_RATIO", "0.000001")
        with caplog.at_level("WARNING", logger="repro.detect.slowplan"):
            Detector(figure1_rules, engine="batch").run(g1)
        assert any("slow plan" in message for message in caplog.messages)
        assert obs.metrics().total("repro_slow_plans_total") == 1.0


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


class TestOnOffParity:
    """Hard requirement: byte-identical ViolationSets with obs on and off."""

    @pytest.mark.parametrize("backend", ALL_STORES)
    @pytest.mark.parametrize("execution", ("serial", "processes"))
    def test_violations_byte_identical(self, backend, execution):
        graph = figure1_g2().with_backend(backend)
        obs.configure(True)
        with_obs = _run(graph, execution)
        assert with_obs.trace_id is not None
        obs.configure(False)
        without_obs = _run(graph, execution)
        assert without_obs.trace_id is None
        assert with_obs.violations.to_json() == without_obs.violations.to_json()
        assert len(with_obs.violations) > 0
        assert with_obs.cost == without_obs.cost

    def test_incremental_byte_identical(self, g2, figure1_rules, delta):
        obs.configure(True)
        with_obs = Detector(figure1_rules, engine="batch").run_incremental(g2, delta)
        obs.configure(False)
        without_obs = Detector(figure1_rules, engine="batch").run_incremental(g2, delta)
        assert with_obs.introduced().to_json() == without_obs.introduced().to_json()
        assert with_obs.removed().to_json() == without_obs.removed().to_json()


# ------------------------------------------ cross-process metric/span shipping


class TestCrossProcessShipping:
    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_worker_spans_and_metrics_ship_home(self, start_method):
        graph = figure1_g2()
        result = Detector(
            example_rules(),
            engine="parallel",
            processors=2,
            options=DetectionOptions(execution="processes", start_method=start_method),
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

    def test_fork_worker_spans_join_the_run_trace(self):
        """fork children inherit the contextvar: their spans join the run tree."""
        graph = figure1_g2()
        result = Detector(
            example_rules(),
            engine="parallel",
            processors=2,
            options=DetectionOptions(execution="processes", start_method="fork"),
        ).run(graph)
        worker_spans = [span for span in obs.traces() if span["name"] == "executor.worker"]
        assert worker_spans
        assert {span["trace_id"] for span in worker_spans} == {result.trace_id}


# ------------------------------------------------------- sink error contract


class ExplodingSink(ViolationSink):
    """Raises in every callback; the kernels must shrug it off."""

    def __init__(self):
        self.calls = []

    def on_start(self, detector):
        self.calls.append("on_start")
        raise RuntimeError("boom in on_start")

    def on_violation(self, violation, introduced=True):
        self.calls.append("on_violation")
        raise RuntimeError("boom in on_violation")

    def on_finish(self, result):
        self.calls.append("on_finish")
        raise RuntimeError("boom in on_finish")


class TestSinkErrorContract:
    """A raising sink never aborts the stream or changes the output — on all
    four kernels — and every swallowed exception is logged and counted."""

    @pytest.mark.parametrize("engine,processors,algorithm", [
        ("batch", None, "Dect"),
        ("parallel", 2, "PDect"),
    ])
    def test_batch_kernels_survive_raising_sink(self, g2, figure1_rules, engine, processors, algorithm):
        clean = Detector(figure1_rules, engine=engine, processors=processors).run(g2)
        sink = ExplodingSink()
        noisy = Detector(
            figure1_rules, engine=engine, processors=processors, sinks=[sink]
        ).run(g2)
        assert noisy.algorithm == algorithm
        assert noisy.violations.to_json() == clean.violations.to_json()
        assert "on_start" in sink.calls and "on_finish" in sink.calls
        assert sink.calls.count("on_violation") == len(clean.violations)
        registry = obs.metrics()
        assert registry.value("repro_sink_errors_total", {"method": "on_start"}) == 1.0
        assert registry.value("repro_sink_errors_total", {"method": "on_finish"}) == 1.0
        assert registry.value("repro_sink_errors_total", {"method": "on_violation"}) == float(
            len(clean.violations)
        )

    @pytest.mark.parametrize("engine,processors,algorithm", [
        ("incremental", None, "IncDect"),
        ("parallel", 2, "PIncDect"),
    ])
    def test_incremental_kernels_survive_raising_sink(
        self, g2, figure1_rules, delta, engine, processors, algorithm
    ):
        clean = Detector(figure1_rules, engine=engine, processors=processors).run_incremental(
            g2, delta
        )
        sink = ExplodingSink()
        noisy = Detector(
            figure1_rules, engine=engine, processors=processors, sinks=[sink]
        ).run_incremental(g2, delta)
        assert noisy.algorithm == algorithm
        assert noisy.introduced().to_json() == clean.introduced().to_json()
        assert noisy.removed().to_json() == clean.removed().to_json()
        assert "on_start" in sink.calls and "on_finish" in sink.calls
        assert obs.metrics().total("repro_sink_errors_total") >= 2.0

    def test_sink_errors_are_logged(self, g1, figure1_rules, caplog):
        with caplog.at_level("WARNING", logger="repro.detect.sink"):
            Detector(figure1_rules, engine="batch", sinks=[ExplodingSink()]).run(g1)
        assert any("violation sink raised" in message for message in caplog.messages)


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
        # the producer is held after its first record until the mid-stream
        # scrape is done: the socket buffers swallow a whole stream, so no
        # stream length guarantees a job is still running when we look
        scraped = threading.Event()
        pool = service.manager.job_pool
        run_stream = pool.run_stream

        def held_run_stream(records, timeout_seconds=None):
            def held():
                for index, record in enumerate(records):
                    yield record
                    if index == 0:
                        assert scraped.wait(timeout=30)
            return run_stream(held(), timeout_seconds)

        monkeypatch.setattr(pool, "run_stream", held_run_stream)
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
        # post-run scrape reflects the completed work: the producer thread
        # counts the run and drops the gauge just after handing over the final
        # record, so poll (bounded) until every post-run line is there
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
        assert document["enabled"] is True
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
        assert health["observability"] is True
        assert health["uptime_seconds"] >= 0
        assert "executor_pools" in health

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

    def test_metrics_endpoint_with_obs_disabled(self, service):
        obs.configure(False)
        status, _, text = _get(service, "/metrics")
        assert status == 200
        assert "disabled" in text
        _, _, body = _get(service, "/debug/traces")
        assert json.loads(body)["enabled"] is False
