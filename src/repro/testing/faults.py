"""Deterministic fault injection for exercising recovery paths on purpose.

Every fault-tolerance path in the executor and the storage layer is driven
by events that are rare in development and routine in production: a worker
SIGKILLed by the OOM killer, a worker pipe that cannot take a report, a
disk that refuses an fsync.  This module makes those events *schedulable*:
a :class:`FaultPlan` describes exactly which fault fires, in which process,
at which deterministic point — so tests, benchmarks, and the CI chaos job
exercise recovery on purpose instead of waiting for production to.

The plan travels through the ``REPRO_FAULTS`` environment variable (worker
processes inherit the environment under both ``fork`` and ``spawn``, so no
plumbing is needed through the execution stack) and is **off by default**:
when the variable is unset, :func:`resolve_fault_plan` returns ``None`` and
the hot paths pay a single ``is not None`` check per expansion.

Spec grammar (``REPRO_FAULTS``)::

    plan   := fault (";" fault)*
    fault  := kind (":" field ("," field)*)?
    field  := name "=" value
    kind   := "worker_death" | "hang_worker" | "slow_worker"
            | "queue_put" | "wal_fsync"

Fields (all optional):

``worker``
    Target worker id (default: any worker).
``epoch``
    Target incarnation — 0 is the original process, each supervised
    restart increments it.  Default: every incarnation, which makes a
    repeatedly-dying worker (a *poison* workload) out of ``worker_death``.
``after``
    Fire at the ``after``-th eligible event **in that process** — seeds
    started for worker faults, reports sent for ``queue_put``, fsyncs for
    ``wal_fsync``.  When omitted it is derived from ``seed`` by
    a stable hash, so the same spec + seed always fails at the same point.
``times``
    How many times a repeatable fault (``queue_put``, ``wal_fsync``) fires
    (default 1, ``-1`` = unlimited).  One-shot faults ignore it.
``delay``
    Seconds slept per seed by ``slow_worker`` (default 0.01).
``seed``
    Determinism seed used when ``after`` is omitted (default 0).

Trigger points count *deterministic events* (seeds started, reports sent,
fsyncs), never wall-clock, so the same spec reproduces the same failure on
any machine.  Example specs::

    worker_death:worker=0,epoch=0,after=5    # kill worker 0's first
                                             # incarnation at its 5th seed
    worker_death:worker=1,after=3            # poison: every incarnation of
                                             # worker 1 dies at seed 3
    slow_worker:worker=2,after=1,delay=0.02  # straggler from the start
    wal_fsync:after=1                        # first WAL fsync fails once
"""

from __future__ import annotations

import os
import signal
import time
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError

__all__ = [
    "FAULTS_ENV",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "WorkerFaultInjector",
    "WalFaultInjector",
    "resolve_fault_plan",
    "wal_fault_injector",
]

#: Environment variable carrying the serialized fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Every fault kind the spec grammar accepts.
FAULT_KINDS = ("worker_death", "hang_worker", "slow_worker", "queue_put", "wal_fsync")

#: Kinds that run inside executor worker processes.
_WORKER_KINDS = ("worker_death", "hang_worker", "slow_worker", "queue_put")

_INT_FIELDS = ("worker", "epoch", "after", "times", "seed")
_FLOAT_FIELDS = ("delay",)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what fires, where, and at which event count."""

    kind: str
    worker: Optional[int] = None
    epoch: Optional[int] = None
    after: Optional[int] = None
    times: int = 1
    delay: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r} (expected one of {FAULT_KINDS})"
            )
        if self.after is not None and self.after < 1:
            raise ReproError("fault field 'after' must be >= 1")

    def trigger_point(self) -> int:
        """The deterministic event count this fault fires at.

        Explicit ``after`` wins; otherwise the point is derived from
        ``seed`` (and the spec's identity) by a stable hash — same spec +
        seed, same failure point, on every machine.
        """
        if self.after is not None:
            return self.after
        digest = zlib.crc32(
            f"{self.seed}:{self.kind}:{self.worker}:{self.epoch}".encode()
        )
        return 1 + digest % 16

    def matches_worker(self, worker_id: int, epoch: int) -> bool:
        """Whether this spec is armed inside the given worker incarnation."""
        if self.kind not in _WORKER_KINDS:
            return False
        if self.worker is not None and self.worker != worker_id:
            return False
        if self.epoch is not None and self.epoch != epoch:
            return False
        return True

    def to_text(self) -> str:
        """Serialize back to the spec grammar (round-trips through parse)."""
        fields = []
        for name in ("worker", "epoch", "after"):
            value = getattr(self, name)
            if value is not None:
                fields.append(f"{name}={value}")
        if self.times != 1:
            fields.append(f"times={self.times}")
        if self.kind == "slow_worker":
            fields.append(f"delay={self.delay}")
        if self.seed:
            fields.append(f"seed={self.seed}")
        return self.kind + (":" + ",".join(fields) if fields else "")


class FaultPlan:
    """A parsed, serializable schedule of deterministic faults."""

    def __init__(self, specs) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        specs = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, tail = part.partition(":")
            kwargs: dict = {}
            if tail:
                for item in tail.split(","):
                    name, sep, value = item.partition("=")
                    name = name.strip()
                    if not sep or not name:
                        raise ReproError(f"malformed fault field {item!r} in {part!r}")
                    try:
                        if name in _INT_FIELDS:
                            kwargs[name] = int(value)
                        elif name in _FLOAT_FIELDS:
                            kwargs[name] = float(value)
                        else:
                            raise ReproError(
                                f"unknown fault field {name!r} in {part!r}"
                            )
                    except ValueError as exc:
                        raise ReproError(
                            f"bad value for fault field {name!r} in {part!r}"
                        ) from exc
            specs.append(FaultSpec(kind=kind.strip(), **kwargs))
        if not specs:
            raise ReproError(f"fault plan {text!r} contains no faults")
        return cls(specs)

    def to_text(self) -> str:
        """Serialize to the spec grammar; ``parse`` round-trips it."""
        return ";".join(spec.to_text() for spec in self.specs)

    def for_worker(self, worker_id: int, epoch: int) -> Optional["WorkerFaultInjector"]:
        """The armed injector for one worker incarnation, or None."""
        specs = [spec for spec in self.specs if spec.matches_worker(worker_id, epoch)]
        return WorkerFaultInjector(specs) if specs else None

    def for_wal(self) -> Optional["WalFaultInjector"]:
        """The armed injector for WAL fsyncs, or None."""
        specs = [spec for spec in self.specs if spec.kind == "wal_fsync"]
        return WalFaultInjector(specs) if specs else None


class _Armed:
    """Mutable per-process trigger state for one spec."""

    __slots__ = ("spec", "point", "fired")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.point = spec.trigger_point()
        self.fired = 0

    def may_fire(self) -> bool:
        return self.spec.times < 0 or self.fired < self.spec.times


class WorkerFaultInjector:
    """Per-incarnation fault actor for one executor worker.

    Counters are process-local and reset with each incarnation — cross-
    restart targeting uses the spec's ``epoch`` field, which the supervisor
    increments on every respawn.
    """

    def __init__(self, specs) -> None:
        self._units = 0
        self._puts = 0
        self._on_unit = [_Armed(s) for s in specs if s.kind != "queue_put"]
        self._on_put = [_Armed(s) for s in specs if s.kind == "queue_put"]

    def on_unit(self) -> None:
        """Called before each seed a worker starts; may kill/hang/slow."""
        self._units += 1
        for armed in self._on_unit:
            kind = armed.spec.kind
            if kind == "slow_worker":
                if self._units >= armed.point:
                    time.sleep(armed.spec.delay)
            elif self._units == armed.point:
                if kind == "worker_death":
                    # the real failure mode under test: no cleanup, no
                    # goodbye message — exactly what the OOM killer does
                    os.kill(os.getpid(), signal.SIGKILL)
                elif kind == "hang_worker":
                    # a wedged worker that survives SIGTERM: forces the
                    # supervisor's terminate -> kill escalation
                    signal.signal(signal.SIGTERM, signal.SIG_IGN)
                    while True:
                        time.sleep(0.25)

    def on_put(self) -> None:
        """Called before each report a worker sends; may raise an injected OSError."""
        self._puts += 1
        for armed in self._on_put:
            if self._puts >= armed.point and armed.may_fire():
                armed.fired += 1
                raise OSError(
                    f"injected report failure (report #{self._puts})"
                )


class WalFaultInjector:
    """Per-log fault actor for WAL fsyncs (lives in the parent process)."""

    def __init__(self, specs) -> None:
        self._fsyncs = 0
        self._armed = [_Armed(s) for s in specs]

    def on_fsync(self) -> None:
        """Called before each WAL fsync; may raise an injected OSError."""
        self._fsyncs += 1
        for armed in self._armed:
            if self._fsyncs >= armed.point and armed.may_fire():
                armed.fired += 1
                raise OSError(f"injected WAL fsync failure (fsync #{self._fsyncs})")


def resolve_fault_plan(text: Optional[str] = None) -> Optional[FaultPlan]:
    """Return the active :class:`FaultPlan`, or None when injection is off.

    ``text`` overrides the environment (for direct library use); otherwise
    the plan comes from ``REPRO_FAULTS``.  Callers keep the ``None`` and
    skip every hook — zero hot-path overhead when injection is off.
    """
    raw = text if text is not None else os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    return FaultPlan.parse(raw)


def wal_fault_injector() -> Optional[WalFaultInjector]:
    """Convenience: the armed WAL injector from the environment, or None."""
    plan = resolve_fault_plan()
    return plan.for_wal() if plan is not None else None
