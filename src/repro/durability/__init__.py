"""Durable feeds: punctuation-aligned checkpointing and recovery.

The paper's thesis is that punctuation is a general in-band control
plane; this package applies it to fault tolerance.  A
:class:`~repro.core.feedback.CheckpointPunctuation` marker sweeps the
plan like any punctuation (a Chandy-Lamport cut aligned at multi-input
operators), snapshotting each operator's state into a pluggable
:class:`CheckpointStore`; replayable sources record the offset each
epoch captured, and ``flow.run(recover_from=...)`` restores state,
rewinds sources, and deduplicates the sink-side replay window, so a
recovered run delivers exactly once.  See ``docs/durability.md``.
"""

from repro.durability.coordinator import (
    CheckpointCoordinator,
    activate_durability,
    delivery_key,
)
from repro.durability.replay import ReplayableSource
from repro.durability.store import (
    CheckpointStore,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
    as_checkpoint_store,
)

__all__ = [
    "CheckpointCoordinator",
    "CheckpointStore",
    "DirectoryCheckpointStore",
    "MemoryCheckpointStore",
    "ReplayableSource",
    "activate_durability",
    "as_checkpoint_store",
    "delivery_key",
]
