"""Checkpoint coordination: epochs, snapshots, replay offsets, recovery.

One :class:`CheckpointCoordinator` rides inside each
:class:`~repro.engine.runtime.RuntimeCore` when durability is active
(``flow.run(checkpoint_every=..., checkpoint_store=...,
recover_from=...)``).  It owns the four jobs the runtime delegates:

* **marker injection** -- the runtime's one source entry tells
  :meth:`advance` how many elements a run put out; the run that brings a
  source's offset to a multiple of ``checkpoint_every`` is followed by a
  :class:`~repro.core.feedback.CheckpointPunctuation` (its offset
  recorded at the same instant), and no run crosses :meth:`epoch_room`;
* **snapshots** -- :meth:`snapshot` pickles an operator's
  ``snapshot_state`` into the store when the marker passes it, charging
  the per-operator checkpoint counters;
* **replay** -- on a recovery run the engines skip a source cursor's
  first ``replay_offsets[name]`` elements, which re-drives the source
  (punctuators and all) while suppressing emission of the
  already-consumed prefix -- any deterministic source is therefore
  replayable with no source-side code;
* **recovery** -- :meth:`restore` finds the latest *complete* epoch in a
  store, restores every operator's snapshot, computes replay offsets,
  rebuilds sink output from the delivery logs, and arms each sink's
  replay-window deduplication filter, so recovery is exactly-once.

The consistency argument is Chandy-Lamport with aligned markers: a
marker flows in band behind every pre-cut tuple, multi-input operators
block a port whose marker arrived until the sibling ports catch up (see
``Operator._on_checkpoint_marker``), and operator-internal buffers that
the marker *does* overtake (a Partition's lane stash, a PriorityBuffer's
pending heap) are part of the snapshot itself -- so every in-flight
tuple is captured exactly once, either in an operator snapshot or in the
replayable suffix of a source.
"""

from __future__ import annotations

import pickle
import time
from collections import Counter
from typing import Any

from repro.core.feedback import CheckpointPunctuation
from repro.engine.plan import QueryPlan
from repro.errors import DurabilityError
from repro.operators.base import Operator, SourceOperator
from repro.operators.sink import CollectSink
from repro.durability.store import (
    CheckpointStore,
    MemoryCheckpointStore,
    as_checkpoint_store,
)

__all__ = [
    "CheckpointCoordinator",
    "activate_durability",
    "delivery_key",
]

_PICKLE_PROTOCOL = 4


def delivery_key(element: Any) -> Any:
    """Identity under which sink deliveries deduplicate on replay.

    Stream tuples hash by (schema names, values), so replayed instances
    match their pre-crash deliveries; anything unhashable falls back to
    its pickled bytes.
    """
    try:
        hash(element)
    except TypeError:
        return pickle.dumps(element, protocol=_PICKLE_PROTOCOL)
    return element


class CheckpointCoordinator:
    """Per-runtime checkpoint/recovery state (see module docstring)."""

    def __init__(
        self,
        plan: QueryPlan,
        store: CheckpointStore,
        *,
        every: int | None = None,
    ) -> None:
        if every is not None and every <= 0:
            raise DurabilityError(
                f"checkpoint_every must be a positive tuple count, "
                f"got {every!r}"
            )
        self.plan = plan
        self.store = store
        self.every = every
        #: Elements each source must skip on this run (recovery rewind).
        self.replay_offsets: dict[str, int] = {}
        #: Live per-source emission counts (epoch closes, finished records).
        self.live_offsets: dict[str, int] = {}
        #: Epoch the current run was restored from (None = fresh run).
        self.recovered_epoch: int | None = None
        #: Upstream CHECKPOINT acknowledgements per epoch (sink -> source).
        self.acks: Counter[int] = Counter()
        #: Per source, a marker waiting out a pause (see :meth:`advance`).
        self.held: dict[str, CheckpointPunctuation] = {}

    # -- marker injection ---------------------------------------------------------

    def offset(self, source: SourceOperator) -> int:
        """Elements ``source`` has put out, a recovery's skipped prefix included."""
        name = source.name
        return self.live_offsets.get(name, self.replay_offsets.get(name, 0))

    def epoch_room(self, source: SourceOperator) -> int:
        """The longest run ``source`` may put out next: up to the element
        that closes its open epoch, or one while a marker is held (the
        dispatch that releases it flushes a page, so it cannot be sat on)."""
        if source.name in self.held:
            return 1
        return self.every - self.offset(source) % self.every

    def advance(
        self, source: SourceOperator, count: int, pause_lands_now: bool
    ) -> None:
        """``source`` has just put out ``count`` more elements.

        When that closes an epoch, the offset is recorded and the marker
        starts its sweep behind the run, at the same clock (bypassing
        ``emit_punctuation``, whose guards expect schema punctuation) --
        unless the run filled a bounded edge and the pause is due at once:
        the marker is one more element, so it is held for :meth:`release`.
        """
        name = source.name
        offset = self.live_offsets[name] = self.offset(source) + count
        every = self.every
        if not every or offset % every:
            return
        epoch = offset // every
        self.store.record_offset(epoch, name, offset)
        marker = CheckpointPunctuation(
            epoch, source=name, offset=offset, issued_at=source.now()
        )
        if pause_lands_now and any(
            edge.queue.above_high_water for edge in source.outputs
        ):
            self.held[name] = marker
        else:
            source._ckpt_complete(marker)

    def release(self, source: Operator) -> None:
        """Send off the marker ``source`` holds, if any: at its resume, at
        its finish, or ahead of its next run when the pause has not landed
        by then (it queues behind control still in flight)."""
        marker = self.held.pop(source.name, None)
        if marker is not None:
            source._ckpt_complete(marker)

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, operator: Operator, marker: CheckpointPunctuation) -> None:
        """Persist ``operator``'s state for the marker's epoch.

        A sink's delivery log flushes *before* the state record is
        written: an epoch's state record existing therefore implies the
        log covers at least that epoch's delivery prefix, which is what
        the exactly-once replay window depends on.
        """
        writer = getattr(operator, "_ckpt_writer", None)
        if writer is not None:
            writer.flush()
        started = time.perf_counter()
        blob = pickle.dumps(
            operator.snapshot_state(), protocol=_PICKLE_PROTOCOL
        )
        self.store.record_state(marker.epoch, operator.name, blob)
        elapsed = time.perf_counter() - started
        metrics = operator.metrics
        metrics.checkpoints += 1
        metrics.snapshot_bytes += len(blob)
        metrics.snapshot_time += elapsed

    def acknowledge(
        self, source: SourceOperator, marker: CheckpointPunctuation
    ) -> None:
        """A sink's epoch-completion ACK travelled back up to ``source``."""
        if isinstance(marker, CheckpointPunctuation):
            self.acks[marker.epoch] += 1

    def operator_finished(self, operator: Operator) -> None:
        """Runtime hook at operator finish: settle durable side-state.

        A finishing *source* gets a terminal offset record (its whole
        stream is pre-cut for every later epoch); a finishing *sink*
        flushes its delivery-log tail so a completed run's log is whole.
        """
        if isinstance(operator, SourceOperator):
            self.store.record_finished(operator.name, self.offset(operator))
            return
        writer = getattr(operator, "_ckpt_writer", None)
        if writer is not None:
            writer.flush()

    # -- epoch bookkeeping --------------------------------------------------------

    def _expected(self) -> tuple[list[str], list[str]]:
        operators = [
            op.name for op in self.plan
            if not isinstance(op, SourceOperator)
        ]
        sources = [op.name for op in self.plan.sources()]
        return operators, sources

    def complete_epochs(
        self, store: CheckpointStore | None = None
    ) -> list[int]:
        """Epochs safe to recover from: every operator snapshotted and
        every source offset (or terminally finished) recorded."""
        store = store or self.store
        operators, sources = self._expected()
        complete = []
        for epoch in store.epochs():
            if not all(store.has_state(epoch, name) for name in operators):
                continue
            if not all(
                store.load_offset(epoch, name) is not None
                or store.load_finished(name) is not None
                for name in sources
            ):
                continue
            complete.append(epoch)
        return complete

    def latest_complete(
        self, store: CheckpointStore | None = None
    ) -> int | None:
        complete = self.complete_epochs(store)
        return complete[-1] if complete else None

    # -- recovery ----------------------------------------------------------------

    def restore(self, store: CheckpointStore) -> int | None:
        """Rewind the plan to ``store``'s latest complete epoch.

        With no complete epoch the run degrades gracefully: sources
        replay from the beginning and the dedup window spans the whole
        delivery log, so the final sink output is still exactly the
        uninterrupted run's.
        """
        epoch = self.latest_complete(store)
        self.recovered_epoch = epoch
        for source in self.plan.sources():
            offset = None
            if epoch is not None:
                # The finished record stands in for a per-epoch offset
                # only relative to a recovered epoch (the source's whole
                # stream is pre-cut); with no complete epoch every source
                # replays from the beginning.
                offset = store.load_offset(epoch, source.name)
                if offset is None:
                    offset = store.load_finished(source.name)
            self.replay_offsets[source.name] = offset or 0
        if epoch is not None:
            for op in self.plan:
                if isinstance(op, SourceOperator):
                    continue
                blob = store.load_state(epoch, op.name)
                if blob is not None:
                    op.restore_state(pickle.loads(blob))
        for op in self.plan:
            if not isinstance(op, CollectSink) or op.outputs:
                continue
            log = store.read_delivery_log(op.name)
            if not log:
                continue
            window = op.reload_from_log(log)
            dedup = Counter(delivery_key(entry[1]) for entry in window)
            op._ckpt_dedup = dedup if dedup else None
        return epoch

    def attach_sinks(self) -> None:
        """Give every terminal collect sink a delivery-log writer."""
        for op in self.plan:
            if isinstance(op, CollectSink) and not op.outputs:
                op._ckpt_writer = self.store.delivery_writer(op.name)


def activate_durability(
    plan: QueryPlan,
    *,
    every: int | None = None,
    store: Any = None,
    recover_from: Any = None,
) -> CheckpointCoordinator:
    """Build (and, when recovering, apply) a plan's durability state.

    Called lazily by :class:`~repro.engine.runtime.RuntimeCore` when any
    of the durability run options is set.  ``store``/``recover_from``
    accept a :class:`~repro.durability.store.CheckpointStore` or a
    directory path; with only ``recover_from`` given, new checkpoints
    continue into the same store.
    """
    recover_store = as_checkpoint_store(recover_from)
    forward_store = as_checkpoint_store(store)
    if forward_store is None:
        forward_store = (
            recover_store if recover_store is not None
            else MemoryCheckpointStore()
        )
    coordinator = CheckpointCoordinator(plan, forward_store, every=every)
    if recover_store is not None:
        coordinator.restore(recover_store)
    coordinator.attach_sinks()
    return coordinator
