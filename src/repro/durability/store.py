"""Checkpoint stores: where punctuation-aligned snapshots become durable.

A :class:`CheckpointStore` holds three kinds of record, all keyed by the
checkpoint *epoch* the marker sweep that produced them belongs to:

* **operator state** -- the pickled :meth:`~repro.operators.base.Operator.
  snapshot_state` dict captured when the epoch's marker passed the
  operator (one blob per operator per epoch);
* **source offsets** -- how many stream elements each source had emitted
  when it injected the epoch's marker (the replay position recovery
  rewinds to), plus a terminal *finished* record for sources that drain
  completely before the run ends;
* **sink delivery logs** -- an append-only, per-sink log of delivered
  results, flushed to durable form every time a marker passes the sink.
  Recovery uses it to rebuild sink output and to deduplicate the replay
  window.

An epoch is *complete* -- safe to recover from -- only when every
non-source operator has a state record and every source has an offset or
finished record; :meth:`CheckpointCoordinator.complete_epochs
<repro.durability.coordinator.CheckpointCoordinator.complete_epochs>`
performs that scan against the plan.

Two implementations: :class:`MemoryCheckpointStore` (tests, simulated
crashes inside one process) and :class:`DirectoryCheckpointStore`
(kill-and-resume across processes; the only store the multiprocess
engine accepts, since a fork-copied in-memory store would silently drop
every worker-side write).

**Trust boundary.** State blobs and delivery logs are pickles, and
unpickling runs code.  A checkpoint directory, a delivery log and the
multiprocess engine's worker pipe are *trusted* input: never pass
``recover_from=`` (or open a :class:`DirectoryCheckpointStore` on) a
directory this code did not write.
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import pickle
import re
from pathlib import Path
from typing import Any

__all__ = [
    "CheckpointStore",
    "DirectoryCheckpointStore",
    "MemoryCheckpointStore",
    "as_checkpoint_store",
]

_PICKLE_PROTOCOL = 4


def _slug(name: str) -> str:
    """A filesystem-safe, collision-free token for an operator name."""
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)[:40]
    digest = hashlib.md5(name.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}"


class DeliveryWriter(abc.ABC):
    """Append-side handle onto one sink's delivery log.

    Entries buffer in memory and become durable at :meth:`flush` -- the
    runtime flushes every time a checkpoint marker passes the sink, so an
    unflushed suffix is always *post-cut* and therefore regenerated by
    replay.  Opening of any underlying file is lazy: writers are created
    before the multiprocess engine forks and must not hold handles across
    the fork.
    """

    @abc.abstractmethod
    def append(self, entry: Any) -> None:
        """Buffer one delivered ``(arrival, tuple)`` entry."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Make every buffered entry durable."""


class CheckpointStore(abc.ABC):
    """Pluggable persistence for checkpoint epochs."""

    #: Whether writes from a forked worker process land somewhere the
    #: coordinator can read back (the multiprocess engine requires it).
    shareable_across_processes = False

    # -- operator state ---------------------------------------------------------

    @abc.abstractmethod
    def record_state(self, epoch: int, operator: str, blob: bytes) -> None:
        """Persist one operator's pickled snapshot for ``epoch``."""

    @abc.abstractmethod
    def load_state(self, epoch: int, operator: str) -> bytes | None:
        """The operator's snapshot blob for ``epoch``, or None."""

    def has_state(self, epoch: int, operator: str) -> bool:
        return self.load_state(epoch, operator) is not None

    # -- source offsets ---------------------------------------------------------

    @abc.abstractmethod
    def record_offset(self, epoch: int, source: str, offset: int) -> None:
        """Persist a source's replay offset at its ``epoch`` marker."""

    @abc.abstractmethod
    def load_offset(self, epoch: int, source: str) -> int | None:
        """The source's recorded offset for ``epoch``, or None."""

    @abc.abstractmethod
    def record_finished(self, source: str, offset: int) -> None:
        """Persist that ``source`` drained completely at ``offset``."""

    @abc.abstractmethod
    def load_finished(self, source: str) -> int | None:
        """The source's terminal offset if it finished, else None."""

    @abc.abstractmethod
    def epochs(self) -> list[int]:
        """Every epoch with at least one record, ascending."""

    # -- sink delivery logs -----------------------------------------------------

    @abc.abstractmethod
    def delivery_writer(self, sink: str) -> DeliveryWriter:
        """An append handle onto ``sink``'s delivery log."""

    @abc.abstractmethod
    def read_delivery_log(self, sink: str) -> list[Any]:
        """Every flushed delivery entry for ``sink``, in append order."""


class _MemoryDeliveryWriter(DeliveryWriter):
    """Writes land directly in the store's list: always 'durable'."""

    def __init__(self, log: list[Any]) -> None:
        self._log = log

    def append(self, entry: Any) -> None:
        self._log.append(entry)

    def flush(self) -> None:
        pass


class MemoryCheckpointStore(CheckpointStore):
    """Checkpoint records held in plain dicts inside one process.

    Survives a *simulated* crash (an exception aborting ``flow.run``)
    because the caller still holds the store object; does not survive the
    process, and is rejected by the multiprocess engine.
    """

    def __init__(self) -> None:
        self._state: dict[tuple[int, str], bytes] = {}
        self._offsets: dict[tuple[int, str], int] = {}
        self._finished: dict[str, int] = {}
        self._delivery: dict[str, list[Any]] = {}

    def record_state(self, epoch: int, operator: str, blob: bytes) -> None:
        self._state[(epoch, operator)] = blob

    def load_state(self, epoch: int, operator: str) -> bytes | None:
        return self._state.get((epoch, operator))

    def record_offset(self, epoch: int, source: str, offset: int) -> None:
        self._offsets[(epoch, source)] = int(offset)

    def load_offset(self, epoch: int, source: str) -> int | None:
        return self._offsets.get((epoch, source))

    def record_finished(self, source: str, offset: int) -> None:
        self._finished[source] = int(offset)

    def load_finished(self, source: str) -> int | None:
        return self._finished.get(source)

    def epochs(self) -> list[int]:
        seen = {epoch for epoch, _ in self._state}
        seen.update(epoch for epoch, _ in self._offsets)
        return sorted(seen)

    def delivery_writer(self, sink: str) -> DeliveryWriter:
        return _MemoryDeliveryWriter(self._delivery.setdefault(sink, []))

    def read_delivery_log(self, sink: str) -> list[Any]:
        return list(self._delivery.get(sink, ()))


class _DirectoryDeliveryWriter(DeliveryWriter):
    """Buffered pickle-frame appender onto one log file.

    Each flush appends what was buffered as *one* frame -- a list of
    entries, so a run's shared schema is pickled once, not once per
    entry -- opening the file and closing it again: flushes happen once
    per epoch (plus clean finish and abort), so the writer holds no
    descriptor between them -- a process running many checkpointed flows,
    or restarting one under a supervisor, leaks none -- and a writer
    created before a fork never shares a handle (and its position)
    across processes.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._buffer: list[Any] = []

    def append(self, entry: Any) -> None:
        self._buffer.append(entry)

    def flush(self) -> None:
        if not self._buffer:
            return
        with open(self._path, "ab") as log:
            pickle.dump(self._buffer, log, protocol=_PICKLE_PROTOCOL)
        self._buffer.clear()


class DirectoryCheckpointStore(CheckpointStore):
    """Checkpoint records as files under one directory.

    Layout (names slugged with a hash suffix so any operator name maps to
    a safe, unique file)::

        <root>/epoch-<n>/state-<op>.pkl      pickled snapshot_state dict
        <root>/epoch-<n>/offset-<src>.json   {"source": ..., "offset": n}
        <root>/finished-<src>.json           terminal source offset
        <root>/delivery-<sink>.log           one pickled list per flush

    Every state/offset write is atomic (temp file + ``os.replace``), so a
    kill mid-write can only lose the record being written -- which leaves
    that epoch incomplete and recovery falls back to the previous one.
    """

    shareable_across_processes = True

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ------------------------------------------------------------------

    def _epoch_dir(self, epoch: int) -> Path:
        return self.root / f"epoch-{int(epoch):06d}"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        temp.write_bytes(data)
        os.replace(temp, path)

    # -- operator state ---------------------------------------------------------

    def record_state(self, epoch: int, operator: str, blob: bytes) -> None:
        path = self._epoch_dir(epoch) / f"state-{_slug(operator)}.pkl"
        self._atomic_write(path, blob)

    def load_state(self, epoch: int, operator: str) -> bytes | None:
        path = self._epoch_dir(epoch) / f"state-{_slug(operator)}.pkl"
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None

    # -- source offsets ---------------------------------------------------------

    def record_offset(self, epoch: int, source: str, offset: int) -> None:
        path = self._epoch_dir(epoch) / f"offset-{_slug(source)}.json"
        payload = {"source": source, "offset": int(offset)}
        self._atomic_write(path, json.dumps(payload).encode("utf-8"))

    def load_offset(self, epoch: int, source: str) -> int | None:
        path = self._epoch_dir(epoch) / f"offset-{_slug(source)}.json"
        try:
            return int(json.loads(path.read_text())["offset"])
        except FileNotFoundError:
            return None

    def record_finished(self, source: str, offset: int) -> None:
        path = self.root / f"finished-{_slug(source)}.json"
        payload = {"source": source, "offset": int(offset)}
        self._atomic_write(path, json.dumps(payload).encode("utf-8"))

    def load_finished(self, source: str) -> int | None:
        path = self.root / f"finished-{_slug(source)}.json"
        try:
            return int(json.loads(path.read_text())["offset"])
        except FileNotFoundError:
            return None

    def epochs(self) -> list[int]:
        found = []
        for entry in self.root.glob("epoch-*"):
            try:
                found.append(int(entry.name.split("-", 1)[1]))
            except ValueError:
                continue
        return sorted(found)

    # -- sink delivery logs -----------------------------------------------------

    def delivery_writer(self, sink: str) -> DeliveryWriter:
        return _DirectoryDeliveryWriter(
            self.root / f"delivery-{_slug(sink)}.log"
        )

    def read_delivery_log(self, sink: str) -> list[Any]:
        path = self.root / f"delivery-{_slug(sink)}.log"
        entries: list[Any] = []
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return entries
        with handle:
            while True:
                try:
                    entries.extend(pickle.load(handle))
                except EOFError:
                    break
                except pickle.UnpicklingError:
                    # Torn tail frame from a kill mid-flush.  Its epoch's
                    # state record is only written after the flush
                    # returns, so no recoverable cut lies inside it.
                    break
        return entries


def as_checkpoint_store(value: Any) -> CheckpointStore | None:
    """Coerce a run-option value into a store (path strings allowed)."""
    if value is None or isinstance(value, CheckpointStore):
        return value
    if isinstance(value, (str, Path)):
        return DirectoryCheckpointStore(value)
    raise TypeError(
        f"expected a CheckpointStore or directory path, got {value!r}"
    )
