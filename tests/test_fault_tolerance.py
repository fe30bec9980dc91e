"""Fault-tolerance suite: supervision, recovery parity, and degradation.

The contract under test: a worker SIGKILLed mid-run must not change the
answer.  The parent re-executes the dead worker's unconfirmed units (on a
respawned replacement or the survivors) and its dedup sets absorb the
duplicates, so the recovered run's ``ViolationSet`` is **byte-identical**
to the serial oracle — under fork and spawn, across storage backends.
When the restart budget is spent or a unit
keeps killing its worker, the run *degrades* (finishes on the parent's
serial path, ``degraded=True``) instead of failing.

Every fault here is injected deterministically through ``REPRO_FAULTS``
(:mod:`repro.testing.faults`); nothing in this file kills processes by
timing races.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.datasets.kb import KBConfig, knowledge_graph
from repro.datasets.rules import benchmark_rules
from repro.detect import DetectionOptions, Detector
from repro.detect.parallel.executor import (
    WarmExecutorPool,
    fault_tolerance_counters,
)
from repro.errors import DeadlineExceededError, ReproError, ServiceError
from repro.graph.updates import UpdateGenerator
from repro.service import DetectionService, ServiceClient
from repro.service.jobs import DetectionJobPool
from repro.service.protocol import error_record, parse_detect_request
from repro.storage.wal import WriteAheadLog
from repro.testing.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    resolve_fault_plan,
    wal_fault_injector,
)


@pytest.fixture(scope="module")
def kb_graph():
    config = KBConfig(
        name="kb-faults",
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


@pytest.fixture(scope="module")
def serial_result(kb_graph, kb_rules):
    return Detector(kb_rules, engine="batch").run(kb_graph)


def _options(**overrides) -> DetectionOptions:
    return DetectionOptions(execution="processes", **overrides)


# ------------------------------------------------------------ faults module


class TestFaultPlan:
    def test_parse_round_trips(self):
        text = "worker_death:worker=0,epoch=0,after=5;wal_fsync:after=2,times=3"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.to_text()).to_text() == plan.to_text()
        assert len(plan.specs) == 2

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ReproError):
            FaultPlan.parse("meteor_strike")

    def test_unknown_field_is_refused(self):
        with pytest.raises(ReproError):
            FaultPlan.parse("worker_death:wrkr=0")

    def test_trigger_point_is_deterministic(self):
        a = FaultSpec(kind="worker_death", worker=1, seed=7)
        b = FaultSpec(kind="worker_death", worker=1, seed=7)
        assert a.trigger_point() == b.trigger_point()
        assert FaultSpec(kind="worker_death", after=5).trigger_point() == 5

    def test_worker_and_epoch_selectors(self):
        plan = FaultPlan.parse("worker_death:worker=1,epoch=0")
        assert plan.for_worker(1, 0) is not None
        assert plan.for_worker(0, 0) is None
        assert plan.for_worker(1, 1) is None
        # no selectors: matches every incarnation
        broad = FaultPlan.parse("worker_death")
        assert broad.for_worker(3, 2) is not None

    def test_resolution_defaults_to_off(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert resolve_fault_plan() is None
        assert wal_fault_injector() is None
        monkeypatch.setenv(FAULTS_ENV, "wal_fsync:after=1")
        assert wal_fault_injector() is not None
        assert resolve_fault_plan().for_worker(0, 0) is None  # wal-only plan


# --------------------------------------------------- crash recovery parity


class TestCrashRecoveryParity:
    @pytest.mark.parametrize("backend", ("indexed", "csr"))
    @pytest.mark.parametrize("adaptive", (True, False), ids=("adaptive", "static"))
    def test_sigkilled_worker_is_byte_identical_fork(self, kb_graph, kb_rules, backend, adaptive, monkeypatch):
        graph = kb_graph.with_backend(backend)
        serial = Detector(kb_rules, engine="batch", options=DetectionOptions(adaptive=adaptive)).run(graph)
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=3")
        result = Detector(
            kb_rules,
            engine="parallel",
            processors=2,
            options=_options(start_method="fork", adaptive=adaptive),
        ).run(graph)
        assert len(serial.violations) > 0
        assert result.violations.to_json() == serial.violations.to_json()
        assert not result.degraded
        assert not result.stopped_early

    def test_sigkilled_worker_is_byte_identical_spawn(
        self, kb_graph, kb_rules, serial_result, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=3")
        result = Detector(
            kb_rules,
            engine="parallel",
            processors=2,
            options=_options(start_method="spawn"),
        ).run(kb_graph)
        assert result.violations.to_json() == serial_result.violations.to_json()
        assert not result.degraded

    def test_restarts_are_counted(self, kb_graph, kb_rules, serial_result, monkeypatch):
        before = fault_tolerance_counters()
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=2")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run(kb_graph)
        after = fault_tolerance_counters()
        assert result.violations.to_json() == serial_result.violations.to_json()
        assert after["worker_restarts"] > before["worker_restarts"]
        assert after["units_retried"] > before["units_retried"]

    def test_incremental_crash_parity(self, kb_graph, kb_rules, kb_delta, monkeypatch):
        serial = Detector(kb_rules, engine="incremental").run_incremental(
            kb_graph, kb_delta
        )
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,epoch=0,after=3")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run_incremental(kb_graph, kb_delta)
        assert serial.total_changes() > 0
        assert result.introduced().to_json() == serial.introduced().to_json()
        assert result.removed().to_json() == serial.removed().to_json()
        assert not result.degraded


# -------------------------------------------------- degradation and quarantine


class TestGracefulDegradation:
    def test_poison_unit_is_quarantined(
        self, kb_graph, kb_rules, serial_result, monkeypatch
    ):
        # worker 0 dies on its first unit in *every* incarnation: the unit
        # exhausts its retry cap, is quarantined, and completes on the
        # parent's serial path — with the exact same answer
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,after=1")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run(kb_graph)
        assert result.violations.to_json() == serial_result.violations.to_json()
        assert result.degraded
        assert result.stop_reason == "units_quarantined"
        assert not result.stopped_early

    def test_restart_budget_exhaustion_degrades(
        self, kb_graph, kb_rules, serial_result, monkeypatch
    ):
        before = fault_tolerance_counters()
        monkeypatch.setenv(FAULTS_ENV, "worker_death:after=2")
        monkeypatch.setenv("REPRO_WORKER_RESTARTS", "0")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run(kb_graph)
        after = fault_tolerance_counters()
        assert result.violations.to_json() == serial_result.violations.to_json()
        assert result.degraded
        assert after["degraded_runs"] > before["degraded_runs"]

    def test_hung_worker_is_recovered_by_heartbeat(
        self, kb_graph, kb_rules, serial_result, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "hang_worker:worker=0,epoch=0,after=2")
        monkeypatch.setenv("REPRO_WORKER_HEARTBEAT_PERIOD", "0.2")
        monkeypatch.setenv("REPRO_WORKER_HEARTBEAT_TIMEOUT", "2.0")
        result = Detector(
            kb_rules, engine="parallel", processors=2, options=_options()
        ).run(kb_graph)
        assert result.violations.to_json() == serial_result.violations.to_json()

    def test_stuck_worker_shutdown_is_bounded(self, kb_graph, kb_rules, monkeypatch):
        # worker 0 hangs (ignoring SIGTERM) while the cost budget stops the
        # run: shutdown must escalate join -> terminate -> kill within the
        # configured grace instead of waiting on the hung worker forever
        monkeypatch.setenv(FAULTS_ENV, "hang_worker:worker=0,after=1")
        monkeypatch.setenv("REPRO_SHUTDOWN_GRACE", "1.0")
        started = time.monotonic()
        result = Detector(
            kb_rules,
            engine="parallel",
            processors=2,
            options=_options(max_cost=5.0),
        ).run(kb_graph)
        elapsed = time.monotonic() - started
        assert result.stopped_early
        assert result.stop_reason == "max_cost"
        assert elapsed < 30.0

    def test_warm_pool_evicts_dead_crews(self, kb_graph, kb_rules, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        pool = WarmExecutorPool(2)
        try:
            detector = Detector(
                kb_rules,
                engine="parallel",
                processors=2,
                options=_options(),
                executor_pool=pool,
            )
            detector.run(kb_graph)
            assert pool.stats()["warm"]
            # kill the warm crew out from under the pool
            for worker in pool._crew.workers:
                worker.kill()
                worker.join(5.0)
            assert pool.maintain() is True
            assert pool.stats()["evictions"] == 1
            assert not pool.stats()["warm"]
        finally:
            pool.shutdown()


# ------------------------------------------------------------- WAL faults


class TestWalFsyncFailure:
    def test_fsync_failure_rolls_back_and_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "wal_fsync:after=2,times=1")
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"kind": "a"})
        with pytest.raises(ReproError, match="could not be made durable"):
            wal.append({"kind": "b"})
        # the failed record never became durable; the log is still usable
        assert wal.last_lsn == 1
        wal.append({"kind": "c"})
        assert [r["kind"] for r in wal.records()] == ["a", "c"]
        wal.close()
        # the data dir is recoverable: reopen scans cleanly
        monkeypatch.delenv(FAULTS_ENV)
        reopened = WriteAheadLog(path)
        assert reopened.last_lsn == 2
        assert [r["kind"] for r in reopened.records()] == ["a", "c"]
        reopened.close()

    def test_every_append_failing_keeps_file_empty(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "wal_fsync:after=1,times=100")
        wal = WriteAheadLog(tmp_path / "wal.log")
        for _ in range(3):
            with pytest.raises(ReproError):
                wal.append({"kind": "x"})
        assert wal.last_lsn == 0
        assert list(wal.records()) == []
        wal.close()


# ------------------------------------------------------- service deadlines


class TestRequestDeadlines:
    def test_timeout_seconds_round_trips(self):
        request = parse_detect_request({"catalog": "c", "timeout_seconds": 2.5})
        assert request.timeout_seconds == 2.5
        assert parse_detect_request(request.to_document()) == request

    def test_non_positive_timeout_is_refused(self):
        with pytest.raises(ServiceError):
            parse_detect_request({"catalog": "c", "timeout_seconds": 0})

    def test_error_record_retryable_flag(self):
        assert "retryable" not in error_record("boom")
        assert error_record("boom", retryable=True)["retryable"] is True

    def test_deadline_before_first_record(self):
        pool = DetectionJobPool(max_jobs=1)
        release = threading.Event()

        def slow():
            release.wait(10.0)
            yield {"type": "summary"}

        stream = pool.run_stream(slow(), timeout_seconds=0.2)
        try:
            with pytest.raises(DeadlineExceededError):
                next(stream)
        finally:
            release.set()
            stream.close()

    def test_deadline_mid_stream(self):
        pool = DetectionJobPool(max_jobs=1)
        release = threading.Event()

        def slow():
            yield {"type": "violation"}
            release.wait(10.0)
            yield {"type": "summary"}

        stream = pool.run_stream(slow(), timeout_seconds=0.3)
        try:
            assert next(stream)["type"] == "violation"
            with pytest.raises(DeadlineExceededError):
                next(stream)
        finally:
            release.set()
            stream.close()

    def test_no_deadline_streams_to_completion(self):
        pool = DetectionJobPool(max_jobs=1)
        stream = pool.run_stream(iter([{"type": "summary"}]))
        assert [r["type"] for r in stream] == ["summary"]


# --------------------------------------------------------- service surface


class TestServiceFaultSurface:
    def test_degraded_summary_and_health_counters(
        self, kb_graph, kb_rules, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "worker_death:worker=0,after=1")
        before = fault_tolerance_counters()["worker_restarts"]
        service = DetectionService(port=0)
        service.register_graph("kb", kb_graph)
        service.manager.register_catalog("bench", kb_rules)
        with service:
            client = ServiceClient(service.url)
            reply = client.detect(
                "kb", catalog="bench", execution="processes", processors=2
            )
            assert reply.summary["degraded"] is True
            health = client.health()
            assert health["fault_tolerance"]["worker_restarts"] > before
            assert health["fault_tolerance"]["degraded_runs"] >= 1

    def test_summary_degraded_defaults_false(self, kb_graph, kb_rules):
        service = DetectionService(port=0)
        service.register_graph("kb", kb_graph)
        service.manager.register_catalog("bench", kb_rules)
        with service:
            client = ServiceClient(service.url)
            reply = client.detect("kb", catalog="bench")
            assert reply.summary["degraded"] is False


# ----------------------------------------------------------- client retry


class TestClientRetries:
    @pytest.fixture()
    def flaky_server(self):
        """An HTTP server whose /health 503s twice, then succeeds."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        counters = {"health": 0, "detect": 0}

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # noqa: A002
                pass

            def _reply(self, status, document):
                body = json.dumps(document).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802
                counters["health"] += 1
                if counters["health"] <= 2:
                    self._reply(503, {"error": "warming up"})
                else:
                    self._reply(200, {"status": "ok"})

            def do_POST(self):  # noqa: N802
                counters["detect"] += 1
                length = int(self.headers.get("Content-Length") or 0)
                self.rfile.read(length)
                self._reply(503, {"error": "always failing"})

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{httpd.server_address[1]}", counters
        finally:
            httpd.shutdown()
            thread.join()
            httpd.server_close()

    def test_idempotent_get_is_retried(self, flaky_server):
        url, counters = flaky_server
        client = ServiceClient(url, retries=3, retry_backoff=0.01)
        assert client.health()["status"] == "ok"
        assert counters["health"] == 3

    def test_get_without_retries_fails_fast(self, flaky_server):
        url, counters = flaky_server
        client = ServiceClient(url)
        with pytest.raises(ServiceError, match="503"):
            client.health()
        assert counters["health"] == 1

    def test_post_is_never_retried(self, flaky_server):
        url, counters = flaky_server
        client = ServiceClient(url, retries=5, retry_backoff=0.01)
        with pytest.raises(ServiceError, match="503"):
            client.checkpoint()
        assert counters["detect"] == 1

    def test_split_timeouts_accepted(self, flaky_server):
        url, _ = flaky_server
        client = ServiceClient(url, connect_timeout=1.0, read_timeout=7.5, retries=3)
        assert client.connect_timeout == 1.0
        assert client.read_timeout == 7.5

    def test_negative_retries_refused(self):
        with pytest.raises(ServiceError):
            ServiceClient("http://127.0.0.1:1", retries=-1)


# -------------------------------------------------------------- environment


class TestZeroOverheadDefault:
    def test_no_plan_resolves_to_none(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert resolve_fault_plan() is None

    def test_counters_snapshot_shape(self):
        counters = fault_tolerance_counters()
        assert set(counters) == {"worker_restarts", "units_retried", "degraded_runs"}
        assert all(isinstance(value, int) for value in counters.values())
