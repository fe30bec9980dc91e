"""Write-ahead log for the durable detection service.

Every accepted mutation of service state — graph registration, an applied
``POST /graphs/{name}/updates`` batch, catalog registration, continuous
session lifecycle — is appended here *before* the client sees an acknowledgement.  Recovery
(:mod:`repro.storage.manager`) replays the suffix of this log on top of
the latest checkpoint, so the ack-implies-logged invariant is what makes
``kill -9`` safe.

Record format (one record per line)::

    <crc32 of body, 8 lowercase hex chars> <body>\n

where ``body`` is a compact JSON object carrying a monotonic ``"lsn"``
plus the record payload, serialized with sorted keys so the bytes are
deterministic.  Appends are flushed and ``fsync``'d before returning.

Torn tails: a crash can leave a partially written final record.  On open
the log is scanned sequentially; the first line that fails to parse,
fails its CRC, or breaks LSN monotonicity marks the torn tail, and the
file is truncated back to the last good record.  Corruption can only be
a tail — records are appended in LSN order and fsync'd in order — so
truncation never discards acknowledged state that a checkpoint has not
already captured.

Stale prefixes: a crash between a checkpoint's manifest swing and its
WAL truncation leaves intact records at or below the manifest's cut LSN
at the head of the file.  Those are *valid* records the checkpoint
already covers — not corruption — so opening with ``start_lsn`` skips
past them and keeps scanning; only a decode/CRC failure or an LSN that
goes backwards within the live region marks the torn tail.  Treating
the stale prefix as a tail would truncate the whole file and lose
acknowledged records above the cut.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path
from typing import Iterator, Optional, Union

from repro import obs
from repro.errors import ReproError
from repro.testing.faults import wal_fault_injector

__all__ = ["WalCorruption", "WriteAheadLog"]

PathLike = Union[str, Path]


class WalCorruption(Exception):
    """Raised for WAL damage that cannot be repaired by tail truncation."""


def _encode(lsn: int, payload: dict) -> bytes:
    try:
        body = json.dumps({"lsn": lsn, **payload}, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        # no default=str here: silently stringifying a datetime (or any other
        # non-JSON value) would make replay reconstruct state whose value
        # types differ from what the live process held — fail at append time
        # instead, before the mutation is acknowledged
        raise ReproError(f"WAL record is not JSON-serializable: {exc}") from None
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x} {body}\n".encode("utf-8")


def _decode(line: bytes) -> Optional[dict]:
    """Return the record payload, or None when the line is torn/corrupt."""
    if not line.endswith(b"\n"):
        return None
    try:
        text = line.decode("utf-8")
        crc_hex, body = text[:-1].split(" ", 1)
        if len(crc_hex) != 8:
            return None
        if int(crc_hex, 16) != (zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF):
            return None
        record = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or not isinstance(record.get("lsn"), int):
        return None
    return record


class WriteAheadLog:
    """An append-only, CRC-checked, fsync'd record log with monotonic LSNs.

    Opening scans any existing file, truncates a torn tail, and positions
    the next LSN after the last intact record (or at ``start_lsn`` for an
    empty log — recovery passes the checkpoint's cut LSN + 1 so LSNs stay
    monotonic across checkpoint truncations).
    """

    def __init__(self, path: PathLike, start_lsn: int = 1) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        cut = start_lsn - 1
        last_lsn = cut
        good_offset = 0
        if self.path.exists():
            with open(self.path, "rb") as handle:
                offset = 0
                for line in handle:
                    record = _decode(line)
                    if record is None:
                        break  # torn or corrupt tail
                    lsn = record["lsn"]
                    if last_lsn == cut and lsn <= cut:
                        # stale prefix: a crash between the checkpoint's
                        # manifest swing and its truncate_through left
                        # records the checkpoint already covers — keep
                        # them and keep scanning for the live suffix
                        offset += len(line)
                        good_offset = offset
                        continue
                    if lsn <= last_lsn:
                        break  # LSN went backwards in the live region: torn tail
                    last_lsn = lsn
                    offset += len(line)
                    good_offset = offset
            if good_offset < self.path.stat().st_size:
                with open(self.path, "r+b") as handle:
                    handle.truncate(good_offset)
                    handle.flush()
                    os.fsync(handle.fileno())
        self._last_lsn = last_lsn
        self._handle = open(self.path, "ab")
        # deterministic fault injection (REPRO_FAULTS=wal_fsync:...); None in
        # production, so the append hot path pays a single identity check
        self._faults = wal_fault_injector()

    # ------------------------------------------------------------------ state

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (start_lsn - 1 if none)."""
        return self._last_lsn

    # ----------------------------------------------------------------- append

    def append(self, payload: dict) -> int:
        """Durably append one record; return its LSN."""
        return self.append_many([payload])

    def append_many(self, payloads: list[dict]) -> int:
        """Durably append several records under a single flush+fsync.

        The batch is atomic in the torn-tail sense only for its final
        record; callers rely on idempotent replay for the prefix.  Returns
        the last LSN written.
        """
        if not payloads:
            return self._last_lsn
        chunk = bytearray()
        lsn = self._last_lsn
        for payload in payloads:
            lsn += 1
            chunk += _encode(lsn, payload)
        offset = self._handle.tell()
        started = time.monotonic()
        try:
            self._handle.write(chunk)
            self._handle.flush()
            if self._faults is not None:
                self._faults.on_fsync()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            # The records never became durable: roll the file back to the
            # pre-append offset so the on-disk log holds exactly the
            # acknowledged prefix, keep _last_lsn where it was, and surface
            # a clean error.  The log object stays usable — a later append
            # may succeed (transient ENOSPC/EIO) and recovery sees no gap.
            self._rollback_append(offset)
            obs.counter_inc("repro_wal_fsync_failures_total")
            raise ReproError(
                f"WAL append could not be made durable ({exc}); the log was "
                f"rolled back to its last acknowledged record (lsn "
                f"{self._last_lsn}) and no state was lost"
            ) from exc
        obs.histogram_observe("repro_wal_fsync_seconds", None, time.monotonic() - started)
        obs.counter_inc("repro_wal_appends_total", None, len(payloads))
        obs.counter_inc("repro_wal_bytes_total", None, len(chunk))
        self._last_lsn = lsn
        return lsn

    def _rollback_append(self, offset: int) -> None:
        """Truncate the file back to ``offset`` after a failed flush/fsync."""
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - close after a failed fsync
            pass
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        self._handle = open(self.path, "ab")

    # ----------------------------------------------------------------- replay

    def records(self) -> Iterator[dict]:
        """Yield every intact record in LSN order (for recovery replay).

        A stale prefix left by an interrupted truncation is yielded too;
        recovery filters on the manifest's cut LSN (replay is idempotent
        regardless).
        """
        self._handle.flush()
        if not self.path.exists():
            return
        with open(self.path, "rb") as handle:
            for line in handle:
                record = _decode(line)
                if record is None:
                    return
                yield record

    # --------------------------------------------------------------- truncate

    def truncate_through(self, lsn: int) -> None:
        """Drop every record with an LSN <= ``lsn`` (checkpoint prefix GC).

        Rewrites the retained suffix to a temporary file and atomically
        renames it over the log, so a crash mid-truncation leaves either
        the old or the new log — never a mix.
        """
        retained = [record for record in self.records() if record["lsn"] > lsn]
        self._handle.close()
        tmp_path = self.path.with_suffix(".tmp")
        with open(tmp_path, "wb") as handle:
            for record in retained:
                payload = {key: value for key, value in record.items() if key != "lsn"}
                handle.write(_encode(record["lsn"], payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        self._last_lsn = max(self._last_lsn, lsn)
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"WriteAheadLog({str(self.path)!r}, last_lsn={self._last_lsn})"
