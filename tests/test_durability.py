"""Durability suite: WAL semantics, checkpoint/recovery, kill -9 survival.

The contract under test (see docs/ARCHITECTURE.md, "The durability layer"):
any state a client saw acknowledged — graph registrations, update versions,
continuous-session violation sets and per-version delta logs — is exactly
reproduced after the service process dies without warning and restarts on
the same ``--data-dir``.  Recovery must equal a never-crashed control, and
a torn final WAL record (the one write that *can* be lost, because it was
never acknowledged) must be truncated silently rather than poison the log.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.core.builtin_rules import example_rules, phi2
from repro.core.ngd import RuleSet
from repro.errors import ServiceError
from repro.graph.graph import Graph
from repro.graph.io import graph_to_dict, save_graph
from repro.graph.updates import BatchUpdate, NodePayload
from repro.service import DetectionService, ServiceClient
from repro.storage import WriteAheadLog
from repro.storage.checkpoint import DataDirectory


def multi_area_graph(areas: int = 3, name: str = "areas") -> Graph:
    """Every area violates φ2 (female + male ≠ total), as in the service tests."""
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


def _update(i: int) -> BatchUpdate:
    """One violation-changing update per call (fixes, then re-breaks, an area)."""
    area, visit = i % 3, i // 3
    old, new = (f"t{area}", f"t{area}x") if visit % 2 == 0 else (f"t{area}x", f"t{area}")
    value = 999 if visit % 2 else 301 + 2 * area + 200  # fixes φ2, then re-breaks it
    return (
        BatchUpdate()
        .delete(f"area{area}", old, "populationTotal")
        .insert(
            f"area{area}",
            new,
            "populationTotal",
            target_payload=NodePayload("integer", {"val": value}),
        )
    )


# ------------------------------------------------------------------------ WAL


class TestWriteAheadLog:
    def test_append_and_replay_in_lsn_order(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            assert wal.append({"type": "a"}) == 1
            assert wal.append_many([{"type": "b"}, {"type": "c"}]) == 3
            records = list(wal.records())
        assert [r["lsn"] for r in records] == [1, 2, 3]
        assert [r["type"] for r in records] == ["a", "b", "c"]

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_many([{"type": "a"}, {"type": "b"}])
        with open(path, "ab") as handle:
            handle.write(b'deadbeef {"lsn":3,"type":"half-writ')  # no newline, bad CRC
        with WriteAheadLog(path) as wal:
            assert wal.last_lsn == 2
            assert [r["lsn"] for r in wal.records()] == [1, 2]
        # the torn bytes are physically gone, not just skipped
        assert b"half-writ" not in path.read_bytes()

    def test_corrupt_crc_marks_the_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_many([{"type": "a"}, {"type": "b"}, {"type": "c"}])
        lines = path.read_bytes().splitlines(keepends=True)
        flipped = lines[1][:9] + (b"X" if lines[1][9:10] != b"X" else b"Y") + lines[1][10:]
        path.write_bytes(lines[0] + flipped + lines[2])
        with WriteAheadLog(path) as wal:
            # corruption can only be a tail: everything from the bad record on goes
            assert wal.last_lsn == 1
            assert [r["lsn"] for r in wal.records()] == [1]

    def test_truncate_through_drops_prefix_and_keeps_lsns(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append_many([{"type": t} for t in "abcd"])
        wal.truncate_through(2)
        assert [r["lsn"] for r in wal.records()] == [3, 4]
        assert wal.append({"type": "e"}) == 5
        wal.close()
        reopened = WriteAheadLog(path, start_lsn=3)
        assert reopened.last_lsn == 5
        reopened.close()

    def test_start_lsn_positions_an_empty_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", start_lsn=42)
        assert wal.last_lsn == 41
        assert wal.append({"type": "a"}) == 42
        wal.close()

    def test_stale_prefix_from_interrupted_truncation_is_kept(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_many([{"type": t} for t in "abcde"])
        # crash between the checkpoint's manifest swing (cut_lsn=2) and its
        # truncate_through: the file still holds lsns 1..5.  Reopening at
        # the cut must keep the acknowledged live suffix 3..5 — treating
        # the stale prefix as a torn tail would wipe the whole log.
        with WriteAheadLog(path, start_lsn=3) as wal:
            assert wal.last_lsn == 5
            assert [r["lsn"] for r in wal.records()] == [1, 2, 3, 4, 5]
            assert wal.append({"type": "f"}) == 6

    def test_stale_prefix_and_torn_tail_together(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_many([{"type": t} for t in "abcd"])
        with open(path, "ab") as handle:
            handle.write(b'deadbeef {"lsn":5,"type":"half-writ')
        with WriteAheadLog(path, start_lsn=3) as wal:
            # the stale prefix (1..2) survives, the torn record is gone
            assert wal.last_lsn == 4
            assert [r["lsn"] for r in wal.records()] == [1, 2, 3, 4]
        assert b"half-writ" not in path.read_bytes()

    def test_non_serializable_payload_fails_loudly(self, tmp_path):
        from repro.errors import ReproError

        with WriteAheadLog(tmp_path / "wal.log") as wal:
            with pytest.raises(ReproError, match="JSON"):
                wal.append({"type": "a", "when": object()})
            # nothing half-written: the log is untouched and LSNs unspent
            assert wal.last_lsn == 0
            assert wal.append({"type": "b"}) == 1


# ------------------------------------------------------- in-process recovery


def _name_the_store(data_dir: Path, checkpoint_store: str, wal_store: str) -> None:
    """Rewrite a data dir the way a server started with ``--store`` wrote it.

    Every graph of the current checkpoint and every ``register_graph`` WAL
    record carries a ``"store"`` key, and each WAL record is re-framed
    (``<crc32 hex> <sorted compact JSON>``) so that it stays intact.
    """
    manifest = json.loads((data_dir / "MANIFEST.json").read_text(encoding="utf-8"))
    registry_path = data_dir / "checkpoints" / manifest["checkpoint"] / "registry.json"
    document = json.loads(registry_path.read_text(encoding="utf-8"))
    for graph_doc in document["graphs"]:
        graph_doc["store"] = checkpoint_store
    registry_path.write_text(json.dumps(document), encoding="utf-8")
    framed = []
    with WriteAheadLog(data_dir / "wal.log", start_lsn=manifest["cut_lsn"] + 1) as wal:
        records = list(wal.records())
    assert any(record["type"] == "register_graph" for record in records)
    for record in records:
        if record["type"] == "register_graph":
            record["store"] = wal_store
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        framed.append(f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x} {body}\n")
    (data_dir / "wal.log").write_text("".join(framed), encoding="utf-8")


def _record_literal_pruning(data_dir: Path, value: bool) -> list[str]:
    """Rewrite a data dir the way a server whose requests carried ``use_literal_pruning`` wrote it.

    Every checkpointed session's request and every ``session_open`` WAL
    record gain the key (WAL records re-framed as :func:`_name_the_store`
    does).  Returns where each rewritten session sits: ``"checkpoint"`` or
    ``"wal"``.
    """
    rewritten = []
    manifest_path = data_dir / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.exists() else None
    if manifest is not None and manifest["checkpoint"] is not None:
        registry_path = data_dir / "checkpoints" / manifest["checkpoint"] / "registry.json"
        document = json.loads(registry_path.read_text(encoding="utf-8"))
        for graph_doc in document["graphs"]:
            for session_doc in graph_doc.get("sessions") or []:
                session_doc["request"]["use_literal_pruning"] = value
                rewritten.append("checkpoint")
        registry_path.write_text(json.dumps(document), encoding="utf-8")
    start_lsn = manifest["cut_lsn"] + 1 if manifest is not None else 1
    with WriteAheadLog(data_dir / "wal.log", start_lsn=start_lsn) as wal:
        records = list(wal.records())
    framed = []
    for record in records:
        if record["type"] == "session_open":
            record["request"]["use_literal_pruning"] = value
            rewritten.append("wal")
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        framed.append(f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x} {body}\n")
    (data_dir / "wal.log").write_text("".join(framed), encoding="utf-8")
    return rewritten


def _drive(client: ServiceClient, updates: int, session: bool = True) -> dict:
    """Register graph + catalog, open a session, apply updates; return acked state."""
    client.register_graph("areas", multi_area_graph())
    client.register_rules("mine", example_rules())
    sid = None
    if session:
        sid = client.create_session("areas", catalog="mine")["session"]
    for i in range(updates):
        client.post_update("areas", _update(i))
    acked = {
        "graph": client.graph_info("areas"),
        "session": client.session_state(sid) if sid else None,
        "deltas": client.session_deltas(sid, since=1) if sid else None,
    }
    return acked


class TestInProcessRecovery:
    def test_crash_recovery_equals_never_crashed_control(self, tmp_path):
        data_dir = tmp_path / "data"
        crashed = DetectionService(port=0, data_dir=str(data_dir)).start()
        acked = _drive(ServiceClient(crashed.url), updates=5)
        # simulated crash: the service is abandoned without stop(); its WAL
        # handle stays open and nothing is flushed beyond what appends fsync'd

        control = DetectionService(port=0).start()
        expected = _drive(ServiceClient(control.url), updates=5)
        control.stop()

        recovered = DetectionService(port=0, data_dir=str(data_dir))
        with recovered:
            client = ServiceClient(recovered.url)
            state = {
                "graph": client.graph_info("areas"),
                "session": client.session_state(acked["session"]["session"]),
                "deltas": client.session_deltas(acked["session"]["session"], since=1),
            }
            # byte-identical to both what was acknowledged pre-crash and to a
            # control that never crashed (determinism across process states)
            assert state == acked
            assert state == expected
            assert recovered.persistence.recovered["replayed"] > 0
            # the recovered service keeps working: updates advance sessions
            reply = client.post_update("areas", _update(5))
            assert reply["version"] == acked["graph"]["version"] + 1
            assert reply["sessions_advanced"] == 1

    def test_recovery_from_checkpoint_plus_wal_suffix(self, tmp_path):
        data_dir = tmp_path / "data"
        crashed = DetectionService(port=0, data_dir=str(data_dir), checkpoint_every=3).start()
        client = ServiceClient(crashed.url)
        acked = _drive(client, updates=7)  # 2 automatic checkpoints + 1 WAL-only update
        assert crashed.persistence.checkpoints >= 2

        recovered = DetectionService(port=0, data_dir=str(data_dir))
        with recovered:
            summary = recovered.persistence.recovered
            assert summary["checkpoint"] is not None
            c2 = ServiceClient(recovered.url)
            sid = acked["session"]["session"]
            assert c2.session_state(sid) == acked["session"]
            assert c2.graph_info("areas") == acked["graph"]
            assert c2.session_deltas(sid, since=1) == acked["deltas"]

    def test_forced_checkpoint_truncates_wal_and_survives(self, tmp_path):
        data_dir = tmp_path / "data"
        service = DetectionService(port=0, data_dir=str(data_dir)).start()
        client = ServiceClient(service.url)
        acked = _drive(client, updates=4)
        outcome = client.checkpoint()
        assert outcome["graphs"] == 1
        # the WAL prefix is gone; only post-checkpoint records remain
        assert list(service.persistence.wal.records()) == []
        health = client.health()
        assert health["persistence"]["checkpoints"] == 1

        recovered = DetectionService(port=0, data_dir=str(data_dir))
        with recovered:
            assert recovered.persistence.recovered["replayed"] == 0
            c2 = ServiceClient(recovered.url)
            assert c2.session_state(acked["session"]["session"]) == acked["session"]

    def test_torn_wal_tail_recovers_to_last_acknowledged_state(self, tmp_path):
        data_dir = tmp_path / "data"
        crashed = DetectionService(port=0, data_dir=str(data_dir)).start()
        acked = _drive(ServiceClient(crashed.url), updates=3)
        # simulate a crash mid-append: a partial, never-acknowledged record
        with open(data_dir / "wal.log", "ab") as handle:
            handle.write(b'00000000 {"lsn":99999,"type":"update","graph":"areas"')

        recovered = DetectionService(port=0, data_dir=str(data_dir))
        with recovered:
            client = ServiceClient(recovered.url)
            assert client.graph_info("areas") == acked["graph"]
            assert client.session_state(acked["session"]["session"]) == acked["session"]

    def test_crash_between_manifest_swing_and_wal_truncation(self, tmp_path):
        """The manifest rename and the WAL truncation are not atomic together.

        A kill -9 in between leaves the full pre-checkpoint WAL on disk
        while the manifest already points at the new checkpoint; recovery
        must skip the stale prefix and still replay (not discard) every
        record acknowledged after the cut.
        """
        data_dir = tmp_path / "data"
        service = DetectionService(port=0, data_dir=str(data_dir)).start()
        client = ServiceClient(service.url)
        sid = _drive(client, updates=4)["session"]["session"]
        pre_truncation = (data_dir / "wal.log").read_bytes()
        client.checkpoint()
        client.post_update("areas", _update(4))  # acked strictly after the cut
        acked = {
            "graph": client.graph_info("areas"),
            "session": client.session_state(sid),
            "deltas": client.session_deltas(sid, since=1),
        }
        service.stop()
        # undo the truncation: the WAL looks exactly as if the crash hit
        # after the manifest rename but before truncate_through rewrote it
        post_truncation = (data_dir / "wal.log").read_bytes()
        (data_dir / "wal.log").write_bytes(pre_truncation + post_truncation)

        recovered = DetectionService(port=0, data_dir=str(data_dir))
        with recovered:
            # exactly the post-cut record (the update) replays; the stale
            # prefix is skipped, not re-applied
            assert recovered.persistence.recovered["replayed"] == 1
            c2 = ServiceClient(recovered.url)
            state = {
                "graph": c2.graph_info("areas"),
                "session": c2.session_state(sid),
                "deltas": c2.session_deltas(sid, since=1),
            }
            assert state == acked

    @pytest.mark.parametrize(
        "checkpoint_store, wal_store", [("persistent", "dict"), ("dict", "persistent")]
    )
    def test_a_recorded_store_is_ignored_on_recovery(self, tmp_path, checkpoint_store, wal_store):
        """A data dir written by a server started with ``--store dict|persistent``.

        Such a server wrote its engine's name into every checkpointed graph
        and every ``register_graph`` record.  Neither engine exists any more:
        recovery ignores the name and loads onto ``indexed``, into exactly the
        state the same directory without the names recovers to.
        """
        written = tmp_path / "written"
        crashed = DetectionService(port=0, data_dir=str(written)).start()
        client = ServiceClient(crashed.url)
        sid = _drive(client, updates=3)["session"]["session"]
        client.checkpoint()
        # the suffix: a registration and two updates after the cut
        client.register_graph("later", multi_area_graph(2, name="later"))
        client.post_update("areas", _update(3))
        client.post_update("later", _update(1))
        crashed.stop()
        named = tmp_path / "named"
        shutil.copytree(written, named, ignore=shutil.ignore_patterns("LOCK"))
        _name_the_store(named, checkpoint_store, wal_store)

        recovered = {}
        for directory in (written, named):
            service = DetectionService(port=0, data_dir=str(directory))
            with service:
                c2 = ServiceClient(service.url)
                recovered[directory] = {
                    "graphs": [c2.graph_info(name) for name in ("areas", "later")],
                    "documents": {
                        name: json.dumps(graph_to_dict(service.registry.get(name).graph), sort_keys=True)
                        for name in ("areas", "later")
                    },
                    "session": c2.session_state(sid),
                    "deltas": c2.session_deltas(sid, since=1),
                    "replayed": service.persistence.recovered["replayed"],
                }
        assert recovered[named] == recovered[written]
        assert recovered[named]["replayed"] > 0, "the WAL suffix was replayed"
        assert {info["store"] for info in recovered[named]["graphs"]} == {"indexed"}

    @pytest.mark.parametrize("where", ("wal", "checkpoint"))
    @pytest.mark.parametrize("value", (True, False), ids=("true", "false"))
    def test_a_recorded_literal_pruning_key_still_recovers(self, tmp_path, where, value):
        """A session opened by a server whose requests carried ``use_literal_pruning``.

        Pruning no longer has a switch, and never changed an answer: recovery
        ignores the key, and the session's delta log is the one a session
        opened fresh on a server that never stopped keeps.
        """
        data_dir = tmp_path / "data"
        service = DetectionService(port=0, data_dir=str(data_dir)).start()
        try:
            client = ServiceClient(service.url)
            if where == "checkpoint":
                sid = _drive(client, updates=2)["session"]["session"]
                client.checkpoint()
                for i in range(2, 5):
                    client.post_update("areas", _update(i))
            else:
                sid = _drive(client, updates=5)["session"]["session"]
        finally:
            service.stop()
        assert _record_literal_pruning(data_dir, value) == [where]

        control = DetectionService(port=0).start()
        try:
            expected = _drive(ServiceClient(control.url), updates=5)
        finally:
            control.stop()
        with DetectionService(port=0, data_dir=str(data_dir)) as recovered:
            assert recovered.persistence.recovered["replayed"] > 0
            c2 = ServiceClient(recovered.url)
            assert c2.session_deltas(sid, since=1) == expected["deltas"]
            assert c2.session_state(sid) == expected["session"]

    def test_a_recorded_worker_count_above_the_cpus_still_recovers(self, tmp_path, monkeypatch):
        """A ``processes`` session recorded by a server with more CPUs.

        One session sits in the checkpoint and one only in a WAL
        ``session_open`` record, both asking for two workers.  The server
        that recovers them may use one CPU: a new request for two workers
        is refused there, but recovery must load both sessions, run them on
        one worker and replay their deltas.
        """
        from repro.service import protocol
        from repro.service.protocol import parse_detect_request

        monkeypatch.setattr(protocol, "usable_cpus", lambda: 2)
        data_dir = tmp_path / "data"
        request = {"catalog": "mine", "execution": "processes", "processors": 2}
        service = DetectionService(port=0, data_dir=str(data_dir)).start()
        try:
            client = ServiceClient(service.url)
            client.register_graph("areas", multi_area_graph())
            client.register_rules("mine", example_rules())
            opened = service.manager.create_session("areas", parse_detect_request(request))
            client.post_update("areas", _update(0))
            client.checkpoint()
            logged = service.manager.create_session("areas", parse_detect_request(request))
            # one update past the checkpoint is one delta for recovery to
            # replay in each session; each costs a spawned run per session
            client.post_update("areas", _update(1))
            sids = (opened.session_id, logged.session_id)
            acked = {sid: (client.session_state(sid), client.session_deltas(sid, since=1)) for sid in sids}
        finally:
            service.stop()
            manifest = json.loads((data_dir / "MANIFEST.json").read_text(encoding="utf-8"))
        with WriteAheadLog(data_dir / "wal.log", start_lsn=manifest["cut_lsn"] + 1) as wal:
            opens = [record for record in wal.records() if record["type"] == "session_open"]
        assert [record["session"] for record in opens] == [logged.session_id]
        assert opens[0]["request"]["processors"] == 2

        monkeypatch.setattr(protocol, "usable_cpus", lambda: 1)
        recovered = DetectionService(port=0, data_dir=str(data_dir))
        with recovered:
            assert recovered.persistence.recovered["replayed"] > 0
            c2 = ServiceClient(recovered.url)
            for sid in sids:
                assert (c2.session_state(sid), c2.session_deltas(sid, since=1)) == acked[sid]
            # recovery clamps the recorded count: both sessions run on one worker
            assert {recovered.manager.session(sid).detector.processors for sid in sids} == {1}
            with pytest.raises(ServiceError, match="CPUs"):
                c2.detect("areas", catalog="mine", processors=2, execution="processes")
            reply = c2.post_update("areas", _update(2))
            assert reply["sessions_advanced"] == 2

    @pytest.mark.parametrize("where", ("wal", "checkpoint"))
    @pytest.mark.parametrize(
        "request_document",
        (
            {"catalog": "mine", "engine": "auto", "processors": 3},
            # above the CPUs: the live and the recovered session both clamp it
            {"catalog": "mine", "execution": "processes", "processors": 4},
        ),
        ids=("simulated", "processes"),
    )
    def test_a_recovered_session_builds_the_live_detector(self, tmp_path, monkeypatch, request_document, where):
        from repro.service import protocol
        from repro.service.protocol import parse_detect_request

        monkeypatch.setattr(protocol, "usable_cpus", lambda: 2)
        data_dir = tmp_path / "data"
        service = DetectionService(port=0, data_dir=str(data_dir)).start()
        try:
            client = ServiceClient(service.url)
            client.register_graph("areas", multi_area_graph())
            client.register_rules("mine", example_rules())
            live = service.manager.create_session("areas", parse_detect_request(request_document))
            if where == "checkpoint":
                client.checkpoint()
        finally:
            service.stop()

        def configuration(detector):
            return (detector.engine, detector.processors, detector.options)

        with DetectionService(port=0, data_dir=str(data_dir)) as recovered:
            restored = recovered.manager.session(live.session_id)
            assert configuration(restored.detector) == configuration(live.detector)
            assert restored.detector.rules.to_dict() == live.detector.rules.to_dict()

    def test_registrations_survive_without_any_update(self, tmp_path):
        data_dir = tmp_path / "data"
        service = DetectionService(port=0, data_dir=str(data_dir)).start()
        client = ServiceClient(service.url)
        client.register_graph("areas", multi_area_graph())
        client.register_rules("mine", RuleSet([phi2()], name="mine"))
        service.stop()

        recovered = DetectionService(port=0, data_dir=str(data_dir))
        with recovered:
            c2 = ServiceClient(recovered.url)
            assert [g["name"] for g in c2.list_graphs()] == ["areas"]
            assert {c["name"] for c in c2.list_rules()} == {"mine"}
            # detection against the recovered graph works end to end
            reply = c2.detect("areas", catalog="mine")
            assert len(reply) == 3

    def test_closed_sessions_stay_closed_after_recovery(self, tmp_path):
        data_dir = tmp_path / "data"
        service = DetectionService(port=0, data_dir=str(data_dir)).start()
        client = ServiceClient(service.url)
        client.register_graph("areas", multi_area_graph())
        client.register_rules("mine", example_rules())
        sid = client.create_session("areas", catalog="mine")["session"]
        client.close_session(sid)

        recovered = DetectionService(port=0, data_dir=str(data_dir))
        with recovered:
            assert recovered.manager.session_count() == 0
            # new sessions never reuse a recovered (even closed) session id
            c2 = ServiceClient(recovered.url)
            new_sid = c2.create_session("areas", catalog="mine")["session"]
            assert new_sid != sid

    def test_a_legacy_data_dir_recovers_to_its_acknowledged_state(self, tmp_path):
        """A data dir in the older format: a multi-image checkpoint, ``session_delta`` records.

        ``tests/data/legacy_data_dir`` was written by ``serve --retain-versions 2``
        of that format: register ``areas`` and the ``mine`` catalog, open a
        session, apply ``_update(0..3)``, checkpoint, apply ``_update(4..6)``,
        kill -9.  Its checkpoint names the images of versions 4 and 5, and
        its WAL suffix holds an ``update`` and a ``session_delta`` record per
        update.  ``legacy_data_dir.acked.json`` holds what the server
        acknowledged before the kill.
        """
        fixture = Path(__file__).resolve().parent / "data"
        acked = json.loads((fixture / "legacy_data_dir.acked.json").read_text(encoding="utf-8"))
        data_dir = tmp_path / "data"
        shutil.copytree(fixture / "legacy_data_dir", data_dir)
        registry = json.loads(
            (data_dir / "checkpoints" / "ckpt-1" / "registry.json").read_text(encoding="utf-8")
        )
        assert sorted(registry["graphs"][0]["images"]) == ["4", "5"], "precondition: two images"
        with WriteAheadLog(data_dir / "wal.log", start_lsn=14) as wal:
            kinds = [record["type"] for record in wal.records()]
        assert kinds.count("session_delta") == 3, "precondition: session_delta records"

        recovered = DetectionService(port=0, data_dir=str(data_dir), retain_versions=2)
        with recovered:
            client = ServiceClient(recovered.url)
            sid = acked["session"]
            assert client.graph_info("areas") == acked["graph"]
            assert client.session_state(sid) == acked["state"]
            assert client.session_deltas(sid, since=1) == acked["deltas"]

    def test_retention_window_and_squashed_deltas_round_trip(self, tmp_path):
        data_dir = tmp_path / "data"
        crashed = DetectionService(
            port=0, data_dir=str(data_dir), retain_versions=2, checkpoint_every=4
        ).start()
        client = ServiceClient(crashed.url)
        client.register_graph("areas", multi_area_graph())
        client.register_rules("mine", example_rules())
        sid = client.create_session("areas", catalog="mine")["session"]
        for i in range(6):
            client.post_update("areas", _update(i))
        acked_session = client.session_state(sid)
        assert acked_session.get("compacted_through"), "precondition: compaction ran"

        recovered = DetectionService(port=0, data_dir=str(data_dir), retain_versions=2)
        with recovered:
            c2 = ServiceClient(recovered.url)
            assert c2.session_state(sid) == acked_session


# ----------------------------------------------------------- data-dir lock


class TestDataDirectoryLock:
    def test_second_process_is_locked_out(self, tmp_path):
        held = DataDirectory(tmp_path / "data")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        probe = (
            "import sys\n"
            "from repro.errors import ReproError\n"
            "from repro.storage.checkpoint import DataDirectory\n"
            "try:\n"
            "    DataDirectory(sys.argv[1])\n"
            "except ReproError as exc:\n"
            "    print('LOCKED:', exc)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "data")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.startswith("LOCKED:")
        held.release()

    def test_released_lock_can_be_retaken_by_another_process(self, tmp_path):
        first = DataDirectory(tmp_path / "data")
        first.release()
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        probe = (
            "import sys\n"
            "from repro.storage.checkpoint import DataDirectory\n"
            "DataDirectory(sys.argv[1]).release()\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "data")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_same_process_reopen_is_allowed(self, tmp_path):
        # the simulated-crash tests above abandon a service object and boot
        # a fresh one on the same directory within one process; POSIX record
        # locks are per-process, so that must keep working
        first = DataDirectory(tmp_path / "data")
        second = DataDirectory(tmp_path / "data")
        second.release()
        first.release()


# --------------------------------------------------------- kill -9 survival


class TestServeKillRecover:
    """The scripted contract: SIGKILL the server, restart, state is intact."""

    def _serve(self, data_dir: Path, extra: list[str] | None = None) -> subprocess.Popen:
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--data-dir",
                str(data_dir),
                *(extra or []),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )

    def _ready(self, proc: subprocess.Popen) -> ServiceClient:
        ready = proc.stdout.readline().strip()
        assert ready.startswith("repro-detect: serving on http://"), ready
        return ServiceClient(ready.split()[-1], timeout=60)

    def test_sigkill_mid_stream_and_recover(self, tmp_path):
        data_dir = tmp_path / "data"
        rules_path = tmp_path / "rules.json"
        example_rules().save(rules_path)
        graph_path = tmp_path / "areas.json"
        save_graph(multi_area_graph(), graph_path)

        proc = self._serve(data_dir, ["--catalog", f"mine={rules_path}"])
        try:
            client = self._ready(proc)
            client.register_graph("areas", multi_area_graph())
            sid = client.create_session("areas", catalog="mine")["session"]
            for i in range(5):
                client.post_update("areas", _update(i))
            acked_graph = client.graph_info("areas")
            acked_session = client.session_state(sid)
            acked_deltas = client.session_deltas(sid, since=1)
        finally:
            proc.kill()  # SIGKILL: no atexit, no flush, no goodbye
            proc.wait(timeout=30)

        proc = self._serve(data_dir, ["--catalog", f"mine={rules_path}"])
        try:
            client = self._ready(proc)
            assert client.graph_info("areas") == acked_graph
            assert client.session_state(sid) == acked_session
            assert client.session_deltas(sid, since=1) == acked_deltas
            # and the recovered server still detects + accepts updates
            reply = client.post_update("areas", _update(5))
            assert reply["version"] == acked_graph["version"] + 1
            assert reply["sessions_advanced"] == 1
        finally:
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0

    def test_cli_registrations_defer_to_recovered_state(self, tmp_path):
        """--graph/--catalog flags must not 409 a boot from a warm data dir."""
        data_dir = tmp_path / "data"
        graph_path = tmp_path / "areas.json"
        save_graph(multi_area_graph(2), graph_path)

        proc = self._serve(data_dir, ["--graph", f"areas={graph_path}"])
        try:
            client = self._ready(proc)
            client.post_update("areas", _update(0))
            acked = client.graph_info("areas")
        finally:
            proc.kill()
            proc.wait(timeout=30)

        # same flags again: the recovered (updated) graph wins over the file
        proc = self._serve(data_dir, ["--graph", f"areas={graph_path}"])
        try:
            client = self._ready(proc)
            assert client.graph_info("areas") == acked
            assert acked["version"] == 2
        finally:
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
