"""Package exports that are imported on first use (PEP 562).

A package ``__init__`` keeps every public name in ``__all__`` but imports
eagerly only what a detection run needs; the rest — the static analyses
(scipy), the process executor (multiprocessing), the simulated cluster —
goes into one table, and the module that defines a name is imported when
the name is first asked for::

    __getattr__, __dir__ = lazy_exports(globals(), {"is_satisfiable": "repro.core.satisfiability"})

``from package import name``, ``package.name``, ``from package import *``
and ``dir(package)`` all see the lazy names; see "Start-up path" in
``docs/ARCHITECTURE.md`` for which names are lazy and why.
"""

from __future__ import annotations

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, table: dict[str, str]):
    """Return ``(__getattr__, __dir__)`` for the package whose ``globals()`` is ``namespace``.

    ``table`` maps an exported name to the module to take it from: the one
    that defines it, or a subpackage that itself exports it lazily.  A
    resolved name is stored in ``namespace``, so it is looked up through
    ``__getattr__`` once.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
