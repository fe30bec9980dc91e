"""Crash-safe service state: WAL journaling, checkpoints, and recovery.

:class:`PersistenceManager` is the glue between the durable primitives
(:mod:`repro.storage.wal`, :mod:`repro.storage.checkpoint`) and the live
service objects (:class:`~repro.service.registry.GraphRegistry`,
:class:`~repro.service.jobs.SessionManager`).  One instance owns one
``--data-dir`` and runs three protocols:

**Journaling (ack-implies-logged).**  After recovery the manager attaches
itself as the registry's and session manager's ``journal`` and as a
registry update listener.  Every state transition is then appended to the
WAL *before* the mutating call returns to the HTTP handler — an update's
record inside the graph's lock, so a client that saw a 200 will see the
same state after ``kill -9`` + restart.  A session's ΔVio is not logged:
replaying the update recomputes it.

**Checkpointing.**  :meth:`checkpoint` captures each graph's current
image with its continuous sessions *under that graph's lock* (the pair is
mutually consistent by construction), writes one ``ckpt-<n>`` directory,
atomically swings ``MANIFEST.json`` at it, and only then truncates the WAL prefix and
prunes older checkpoints.  The cut LSN is read *before* capture, so any
record between cut and capture is re-delivered on replay and skipped by
the idempotence rules below.  ``checkpoint_every`` drives automatic
checkpoints from the update path; ``POST /admin/checkpoint`` forces one.

**Recovery.**  :meth:`recover` loads the manifest's checkpoint (catalogs,
each graph's image at its recorded version, sessions rebuilt from their
durable documents) and replays the WAL suffix.  Replay is idempotent: a
registration whose name already exists is skipped, an ``update`` record at
or below the graph's version is skipped, and a replayed update routes
through ``registry.apply_update`` so the (already registered)
session-manager listener recomputes each session's delta with the same
deterministic incremental kernel that produced it live; a record of an
unknown type (an older writer's ``session_delta``) is ignored.  Only after
replay does the manager attach its journal hooks — recovered state is
never re-logged.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro import obs
from repro.core.ngd import RuleSet
from repro.core.violations import ViolationDelta, ViolationSet
from repro.errors import ConflictError, ServiceError
from repro.graph.io import (
    atomic_write_json,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_json_document,
    save_graph,
    update_from_list,
    update_to_list,
)
from repro.storage.checkpoint import DataDirectory
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.jobs import ContinuousSession, SessionManager
    from repro.service.registry import GraphRegistry, RegisteredGraph, UpdateOutcome

__all__ = ["PersistenceManager"]

#: Default number of accepted updates between automatic checkpoints.
DEFAULT_CHECKPOINT_EVERY = 64


class PersistenceManager:
    """Owns one data directory's WAL, checkpoints, and recovery protocol."""

    def __init__(
        self,
        data_dir: Union[str, Path],
        registry: "GraphRegistry",
        manager: "SessionManager",
        checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ServiceError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.data = DataDirectory(data_dir)
        self.registry = registry
        self.manager = manager
        self.checkpoint_every = checkpoint_every
        #: Serialises WAL appends (listeners fire under per-graph locks, so
        #: two graphs' updates may journal concurrently) and excludes them
        #: from checkpoint truncation.
        self._wal_lock = threading.Lock()
        #: Serialises whole checkpoints (admin-triggered vs automatic).
        self._checkpoint_lock = threading.Lock()
        self._updates_since_checkpoint = 0
        self.recovered: dict = {"checkpoint": None, "replayed": 0}
        self.wal: Optional[WriteAheadLog] = None
        self.checkpoints = 0
        #: wall-clock time of the last completed checkpoint (None: none yet
        #: this process); ``GET /health`` reports its age
        self.last_checkpoint_at: Optional[float] = None

    # ------------------------------------------------------------------ boot

    def recover(self) -> dict:
        """Load checkpoint + replay WAL suffix; return a recovery summary.

        Must run before the service accepts connections and before any
        graph/catalog registration from the CLI; attaches the journal
        hooks on success, so everything that happens afterwards is logged.
        """
        recovery_started = time.monotonic()
        manifest = self.data.read_manifest()
        cut_lsn = 0
        checkpoint_name: Optional[str] = None
        if manifest is not None:
            checkpoint_name = manifest.get("checkpoint")
            cut_lsn = int(manifest.get("cut_lsn") or 0)
            if checkpoint_name is not None:
                self._restore_checkpoint(checkpoint_name)
        self.wal = WriteAheadLog(self.data.wal_path, start_lsn=cut_lsn + 1)
        replayed = 0
        for record in self.wal.records():
            if record["lsn"] <= cut_lsn:
                # stale prefix from a crash between the manifest swing and
                # the WAL truncation — the checkpoint already covers it
                continue
            self._replay(record)
            replayed += 1
        # attach journal hooks only now: replayed state must not re-log
        self.registry.journal = self
        self.manager.journal = self
        self.registry.add_listener(self._journal_update)
        self.recovered = {
            "checkpoint": checkpoint_name,
            "replayed": replayed,
            "graphs": len(self.registry),
            "sessions": self.manager.session_count(),
        }
        elapsed = time.monotonic() - recovery_started
        self.recovered["seconds"] = round(elapsed, 6)
        obs.gauge_set("repro_recovery_seconds", None, elapsed)
        obs.counter_inc("repro_recovery_replayed_total", None, replayed)
        return self.recovered

    def close(self) -> None:
        """Release the WAL handle and the data-dir lock."""
        if self.wal is not None:
            self.wal.close()
        self.data.release()

    # -------------------------------------------------------------- journal

    def record_graph_registered(self, registered: "RegisteredGraph") -> None:
        self._append(
            {
                "type": "register_graph",
                "graph": registered.name,
                "document": graph_to_dict(registered.graph),
            }
        )

    def record_catalog_registered(self, name: str, rules: RuleSet) -> None:
        self._append({"type": "register_catalog", "catalog": name, "document": rules.to_dict()})

    def record_session_opened(self, session: "ContinuousSession") -> None:
        self._append({"type": "session_open", **session.durable_document()})

    def record_session_closed(self, session_id: str) -> None:
        self._append({"type": "session_close", "session": session_id})

    def _append(self, payload: dict) -> None:
        with self._wal_lock:
            self.wal.append(payload)

    def _journal_update(self, outcome: "UpdateOutcome") -> None:
        """Registry listener: log an update.

        Registered *after* the session manager's listener, so every
        session of the graph has already advanced to ``outcome.version``
        when this runs.  Runs inside the graph's lock — the ack the HTTP
        handler sends cannot overtake the log.
        """
        self._append(
            {
                "type": "update",
                "graph": outcome.name,
                "version": outcome.version,
                "delta": update_to_list(outcome.delta),
            }
        )
        self._updates_since_checkpoint += 1

    # ----------------------------------------------------------- checkpoint

    def maybe_checkpoint(self) -> bool:
        """Checkpoint if the update counter crossed ``checkpoint_every``.

        Called from the update handler *after* the graph lock is released;
        returns True when a checkpoint ran.
        """
        if self.checkpoint_every is None:
            return False
        if self._updates_since_checkpoint < self.checkpoint_every:
            return False
        self.checkpoint()
        return True

    def checkpoint(self) -> dict:
        """Write a full checkpoint, swing the manifest, truncate the WAL."""
        with self._checkpoint_lock, obs.span("storage.checkpoint") as ckpt_span:
            checkpoint_started = time.monotonic()
            with self._wal_lock:
                cut_lsn = self.wal.last_lsn
            name = self.data.next_checkpoint_name()
            directory = self.data.checkpoint_dir(name)
            directory.mkdir(parents=True, exist_ok=True)
            graphs: list[dict] = []
            for graph_name in self.registry.names():
                registered = self.registry.get(graph_name)
                with registered.lock:
                    # capture the graph AND its sessions under one lock
                    # acquisition: the pair is a consistent cut (sessions
                    # always sit exactly at the graph's version)
                    filename = f"{graph_name}-v{registered.version}.json"
                    save_graph(registered.graph, directory / filename, atomic=True)
                    sessions = [
                        session.durable_document()
                        for session in self.manager.sessions_for(graph_name)
                    ]
                    graphs.append(
                        {
                            "name": graph_name,
                            "version": registered.version,
                            "images": {str(registered.version): filename},
                            "sessions": sessions,
                        }
                    )
            with self.manager._catalog_lock:
                catalogs = {
                    name_: rules.to_dict() for name_, rules in self.manager.catalogs.items()
                }
            atomic_write_json(
                {"graphs": graphs, "catalogs": catalogs}, directory / "registry.json"
            )
            # the manifest rename is the commit point: before it, recovery
            # uses the previous checkpoint and the still-intact WAL; after
            # it, the WAL prefix is redundant and may be truncated
            self.data.write_manifest(name, cut_lsn)
            with self._wal_lock:
                self.wal.truncate_through(cut_lsn)
            self.data.prune_checkpoints(keep=name)
            self._updates_since_checkpoint = 0
            self.checkpoints += 1
            self.last_checkpoint_at = time.time()
            obs.counter_inc("repro_checkpoints_total")
            obs.histogram_observe("repro_checkpoint_seconds", None, time.monotonic() - checkpoint_started)
            ckpt_span.set(checkpoint=name, cut_lsn=cut_lsn, graphs=len(graphs))
            return {"checkpoint": name, "cut_lsn": cut_lsn, "graphs": len(graphs)}

    # ------------------------------------------------------------- recovery

    def _restore_checkpoint(self, name: str) -> None:
        directory = self.data.checkpoint_dir(name)
        document = load_json_document(directory / "registry.json")
        for catalog_name, rules_doc in sorted((document.get("catalogs") or {}).items()):
            self.manager.register_catalog(catalog_name, RuleSet.from_dict(rules_doc))
        for graph_doc in document.get("graphs") or []:
            # a "store" key (written by servers that took --store) is ignored:
            # a served graph takes updates, so it goes on the mutable engine;
            # of several images (older servers) only the current one is read
            version = graph_doc["version"]
            graph = load_graph(directory / graph_doc["images"][str(version)])
            self.registry.restore(graph_doc["name"], graph, version)
            for session_doc in graph_doc.get("sessions") or []:
                self._restore_session(session_doc)

    def _restore_session(self, document: dict) -> None:
        """Rebuild one continuous session from its durable document.

        The detector and compiled plans come from
        ``SessionManager.maintenance_detector``, the builder live sessions
        use — from the original request document against the graph's
        current snapshot — while the violation set and delta log come
        verbatim from the document.
        """
        from repro.service.jobs import ContinuousSession
        from repro.service.protocol import parse_detect_request

        request = parse_detect_request(document.get("request") or {})
        rules = self.manager.resolve_rules(request)
        registered = self.registry.get(document["graph"])
        with registered.lock:
            graph, _version = registered.snapshot()
            session = ContinuousSession(
                session_id=document["session"],
                graph_name=document["graph"],
                rules=rules,
                detector=self.manager.maintenance_detector(request, rules, graph),
                base_version=document["base_version"],
                violations=ViolationSet.from_dict(document["violations"]),
                request_document=dict(document.get("request") or {}),
            )
            session.restore_progress(
                current_version=document["current_version"],
                deltas={
                    int(version): ViolationDelta.from_dict(delta)
                    for version, delta in (document.get("deltas") or {}).items()
                },
                squashed=(
                    ViolationDelta.from_dict(document["squashed"])
                    if document.get("squashed")
                    else None
                ),
                compacted_through=document.get("compacted_through"),
                plan_compilations=document.get("plan_compilations") or 1,
                plan_size=document.get("plan_size") or graph.total_size(),
            )
            self.manager.adopt_session(session)

    def _replay(self, record: dict) -> None:
        kind = record.get("type")
        if kind == "register_graph":
            if record["graph"] in self.registry:
                return
            graph = graph_from_dict(record["document"])  # a recorded "store" is ignored, as above
            self.registry.restore(record["graph"], graph, version=1)
        elif kind == "register_catalog":
            if record["catalog"] in self.manager.catalogs:
                return
            self.manager.register_catalog(record["catalog"], RuleSet.from_dict(record["document"]))
        elif kind == "update":
            registered = self.registry.get(record["graph"])
            if registered.version >= record["version"]:
                return  # the checkpoint already includes this update
            # routes through the registered session-manager listener, so
            # every session recomputes its delta with the same incremental
            # kernel that produced it live — deterministically identical
            self.registry.apply_update(record["graph"], update_from_list(record["delta"]))
        elif kind == "session_open":
            try:
                self._restore_session(record)
            except ConflictError:
                pass  # the checkpoint captured this session after its open record was cut
        elif kind == "session_close":
            try:
                self.manager.close_session(record["session"])
            except ServiceError:
                pass  # never checkpointed — the open record was truncated too
        # unknown record types are ignored: a newer writer's log must not
        # brick an older reader that can still serve the state it knows, and
        # an older writer's session_delta is recomputed by its update's replay

    # ------------------------------------------------------------- reporting

    def info(self) -> dict:
        """Persistence block for ``GET /health``."""
        return {
            "data_dir": str(self.data.root),
            "wal_lsn": self.wal.last_lsn if self.wal is not None else 0,
            "checkpoint_every": self.checkpoint_every,
            "checkpoints": self.checkpoints,
            "updates_since_checkpoint": self._updates_since_checkpoint,
            "last_checkpoint_age_seconds": (
                round(time.time() - self.last_checkpoint_at, 3)
                if self.last_checkpoint_at is not None
                else None
            ),
            "recovered": self.recovered,
        }
