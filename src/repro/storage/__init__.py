"""Durable storage subsystem: persistent store, WAL, checkpoints, recovery.

Import layering: this package is imported by ``repro.graph`` (to register
the ``persistent`` engine), so only the engine is imported with it.  The
log and the service-facing :class:`~repro.storage.manager.PersistenceManager`
are imported on first use: a process that never journals loads neither, and
the import graph stays acyclic (the manager imports the service layer).
"""

from repro._lazy import lazy_exports
from repro.storage.persistent import PersistentStore

__all__ = [
    "PersistentStore",
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
