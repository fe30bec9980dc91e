"""The storage engines the parity suites run, by name.

``STORE_REGISTRY`` holds the engines ``repro`` ships (``indexed`` and its
sealed, read-only form ``frozen``).  The suites also run
:class:`~dict_store.DictStore`, the oracle the shipped engines are compared
against, so they take engines from this table instead of from the registry.  A parametrised test keeps the engine *name* as
its parameter, so test ids read ``[dict]``, ``[frozen]``, ``[indexed]``.
"""

from __future__ import annotations

from dict_store import DictStore
from repro.graph.store import STORE_REGISTRY, GraphStore

#: name -> store class: every registered engine plus the ``dict`` oracle
ENGINES: dict[str, type[GraphStore]] = {DictStore.backend: DictStore, **STORE_REGISTRY}
#: every name, sorted (the order the suites parametrise in)
BACKENDS = sorted(ENGINES)
#: the engines that accept interleaved mutation (``frozen`` is filled by one bulk load)
MUTABLE_BACKENDS = [name for name in BACKENDS if ENGINES[name].supports_mutation]


def new_store(name: str) -> GraphStore:
    """Return an empty store of the named engine."""
    return ENGINES[name]()
