"""Durable service state: write-ahead log, checkpoints, recovery.

Nothing under this package is a graph engine: a served graph lives on the
in-memory ``indexed`` engine, and its durability comes from the log and the
JSON checkpoints.  Only ``serve --data-dir`` (and a caller that asks for one
of the names below) imports it; every name is resolved on first use, so the
import graph stays acyclic (the manager imports the service layer).
"""

from repro._lazy import lazy_exports

__all__ = [
    "WriteAheadLog",
    "WalCorruption",
    "PersistenceManager",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "PersistenceManager": "repro.storage.manager",
        "WalCorruption": "repro.storage.wal",
        "WriteAheadLog": "repro.storage.wal",
    },
)
