"""Data-directory layout: checkpoints and the manifest.

A ``--data-dir`` given to ``repro-detect serve`` has this shape::

    DATA_DIR/
      MANIFEST.json          # {"format", "checkpoint": "ckpt-3"|null, "cut_lsn": N}
      LOCK                   # exclusive-serving advisory lock (holder's pid)
      wal.log                # the write-ahead log (repro.storage.wal)
      checkpoints/
        ckpt-3/
          registry.json      # graphs, catalogs, sessions (one document)
          <graph>-v<k>.json  # one image per graph, at its current version k

The manifest is the recovery root and is always written atomically
(:func:`repro.graph.io.atomic_write_json`): a crash mid-checkpoint leaves
the previous manifest pointing at the previous complete checkpoint, and
the stale half-written ``ckpt-N`` directory is garbage-collected on the
next successful checkpoint.  Only after the manifest rename does the WAL
prefix get truncated — the invariant is ``checkpoint ⊕ WAL suffix ==
current state`` at every instant.  A checkpoint written by an older server
may name several images of one graph; recovery loads only the image of the
graph's recorded version.

This module knows nothing about the service layer; it deals purely in
paths and JSON documents.  :mod:`repro.storage.manager` assembles the
documents from live service state.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Optional, Union

try:  # POSIX only; on other platforms the data dir runs unlocked
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import ReproError
from repro.graph.io import atomic_write_json, load_json_document

__all__ = ["DataDirectory", "DATA_DIR_FORMAT"]

DATA_DIR_FORMAT = "repro-data-dir"


class DataDirectory:
    """Path bookkeeping for one durable service data directory.

    Construction takes an exclusive advisory lock (``fcntl.lockf``) on a
    ``LOCK`` file in the directory and fails fast when another *process*
    already holds it: two servers appending to the same ``wal.log`` would
    interleave LSNs.  POSIX record locks are per-process, so the in-process
    recovery tests (which abandon a crashed service object and reopen the
    same directory) still work, and the kernel releases the lock
    automatically on ``kill -9``.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.checkpoints_root.mkdir(exist_ok=True)
        self._lock_handle = open(self.lock_path, "a+", encoding="utf-8")
        if fcntl is not None:
            try:
                fcntl.lockf(self._lock_handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._lock_handle.seek(0)  # "a+" positions at EOF
                pid = self._lock_handle.read().strip()
                holder = f"pid {pid}" if pid else "unknown pid"
                self._lock_handle.close()
                self._lock_handle = None
                raise ReproError(
                    f"data directory {self.root} is already being served by "
                    f"another process ({holder} holds {self.lock_path}); two "
                    f"servers on one data dir would corrupt the WAL"
                ) from None
        self._lock_handle.seek(0)
        self._lock_handle.truncate()
        self._lock_handle.write(f"{os.getpid()}\n")
        self._lock_handle.flush()

    def release(self) -> None:
        """Drop the exclusive lock (clean shutdown)."""
        if self._lock_handle is not None:
            self._lock_handle.close()
            self._lock_handle = None

    # ------------------------------------------------------------------ paths

    @property
    def wal_path(self) -> Path:
        return self.root / "wal.log"

    @property
    def lock_path(self) -> Path:
        return self.root / "LOCK"

    @property
    def manifest_path(self) -> Path:
        return self.root / "MANIFEST.json"

    @property
    def checkpoints_root(self) -> Path:
        return self.root / "checkpoints"

    def checkpoint_dir(self, name: str) -> Path:
        return self.checkpoints_root / name

    # --------------------------------------------------------------- manifest

    def read_manifest(self) -> Optional[dict]:
        """Return the manifest document, or ``None`` for a fresh data dir."""
        if not self.manifest_path.is_file():
            return None
        manifest = load_json_document(self.manifest_path)
        if not isinstance(manifest, dict) or manifest.get("format") != DATA_DIR_FORMAT:
            raise ReproError(
                f"{self.manifest_path} is not a {DATA_DIR_FORMAT} manifest; refusing "
                f"to serve from a directory that holds something else"
            )
        return manifest

    def write_manifest(self, checkpoint: Optional[str], cut_lsn: int) -> None:
        """Atomically point the data dir at ``checkpoint`` (WAL cut at ``cut_lsn``)."""
        atomic_write_json(
            {"format": DATA_DIR_FORMAT, "checkpoint": checkpoint, "cut_lsn": cut_lsn},
            self.manifest_path,
        )

    # ------------------------------------------------------------ checkpoints

    def next_checkpoint_name(self) -> str:
        """Return an unused ``ckpt-<n>`` name (strictly above every existing one)."""
        highest = 0
        for entry in self.checkpoints_root.iterdir():
            if entry.name.startswith("ckpt-"):
                try:
                    highest = max(highest, int(entry.name[5:]))
                except ValueError:
                    continue
        return f"ckpt-{highest + 1}"

    def prune_checkpoints(self, keep: Optional[str]) -> None:
        """Delete every checkpoint directory except ``keep``.

        Removes both superseded checkpoints and half-written ones left by a
        crash mid-checkpoint (they were never named by a manifest).
        """
        for entry in self.checkpoints_root.iterdir():
            if entry.is_dir() and entry.name != keep:
                shutil.rmtree(entry, ignore_errors=True)
