"""``Frozen``: the base of values that are built in one constructor call and never change."""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

__all__ = ["Frozen"]

T = TypeVar("T")
F = TypeVar("F", bound="Frozen")


class Frozen:
    """Refuse every attribute write after construction, and keep what is derived from the value.

    A subclass's ``__init__`` sets its attributes with ``vars(self).update(...)``.
    Pickling and ``copy`` restore ``__dict__`` directly; they leave out what
    was derived, which can always be computed again (a rule set's pivot
    index need not travel to a spawned worker).
    """

    __slots__ = ()

    def derived(self: F, key: str, build: Callable[[F], T]) -> T:
        """Return ``build(self)``, computed on the first call per ``key`` and kept.

        Nothing it is derived from can change, so nothing invalidates it.
        """
        memo = vars(self).setdefault("_derived", {})
        if key not in memo:
            memo[key] = build(self)
        return memo[key]

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_derived", None)
        return state

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
