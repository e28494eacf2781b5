"""Checkpoint markers ride the run path.

A source's elements enter a plan through
``RuntimeCore.dispatch_source_run`` in runs, and that is where a
checkpoint epoch closes: the dispatch advances the source's offset by the
run's length, ``source_run_room`` keeps a run from crossing the element
that brings the offset to a multiple of ``checkpoint_every``, and the
marker leaves behind that element at the same clock.  There is no
per-element wrapper around ``source.events()`` and no async copy of one.

The numbers below were recorded on the commit that still had the
wrappers (``CheckpointCoordinator.wrap_events`` / ``wrap_aevents``
yielding the marker as a stream element of its own): epochs completed,
the source offset recorded for each, where each marker fell in the
stream the sink saw (the sink's snapshot is its cut, ``delivered``), the
arrival time of the last delivery before each cut, the makespan and
``events_processed``, which keeps counting a marker as one event.
"""

from __future__ import annotations

import asyncio
import pickle
import re
from pathlib import Path

import repro
from repro import FeedbackPunctuation, Flow, Pattern, Schema, StreamTuple
from repro.durability import MemoryCheckpointStore
from repro.engine import create_engine
from repro.punctuation import Punctuation

SRC = Path(repro.__file__).resolve().parent
KEYED = Schema([("ts", "timestamp", True), ("k", "int"), ("v", "float")])
FED = Schema([("client", "str"), ("seq", "int"), ("value", "float")])


def recorded(result, store, sources):
    sink = result.sink("sink")
    epochs = store.epochs()
    cuts = [
        pickle.loads(store.load_state(epoch, "sink"))["delivered"]
        for epoch in epochs
    ]
    return {
        "epochs": result.metrics.checkpoint_epochs,
        "offsets": {
            name: [store.load_offset(epoch, name) for epoch in epochs]
            for name in sources
        },
        "finished": {name: store.load_finished(name) for name in sources},
        "cuts": cuts,
        "cut_times": [round(sink.arrivals[cut - 1][0], 6) for cut in cuts],
        "delivered": len(sink.results),
        "events_processed": result.metrics.events_processed,
    }


class TestPinnedToTheWrapperEra:
    def test_two_punctuated_sources_on_virtual_time(self):
        """Pages of 8, epochs of 12 (so a marker lands mid-page), two
        list sources of 90 and 55 tuples with punctuation every second
        into a union and a costed filter."""
        first = [
            (i * 0.1, StreamTuple(KEYED, (i * 0.1, i % 3, float(i))))
            for i in range(90)
        ]
        second = [
            (i * 0.1 + 0.05,
             StreamTuple(KEYED, (i * 0.1 + 0.05, i % 3, float(i + 1000))))
            for i in range(55)
        ]
        flow = Flow("pinned", page_size=8)
        a = flow.source(KEYED, first, name="a").punctuate(on="ts", every=1.0)
        b = flow.source(KEYED, second, name="b").punctuate(on="ts", every=1.0)
        (a.union(b, name="merge")
          .where(lambda t: t["k"] != 1, name="stage", tuple_cost=0.01)
          .collect("sink"))
        store = MemoryCheckpointStore()
        result = flow.run(
            "simulated", checkpoint_every=12, checkpoint_store=store
        )
        assert recorded(result, store, ["a", "b"]) == {
            "epochs": 8,
            # 90 tuples + 9 punctuations, 55 + 6: offsets count both.
            "offsets": {
                "a": [12, 24, 36, 48, 60, 72, 84, 96],
                "b": [12, 24, 36, 48, 60, None, None, None],
            },
            "finished": {"a": 99, "b": 61},
            "cuts": [14, 30, 44, 58, 74, 81, 88, 96],
            "cut_times": [1.11, 2.17, 3.29, 4.41, 5.53, 6.55, 7.66, 8.77],
            "delivered": 97,
            "events_processed": 292,
        }
        assert result.makespan == 8.92

    def test_channel_fed_runs_longer_than_an_epoch(self):
        """148 tuples buffered in a ``Flow.ingest`` channel reach the
        asyncio pump as runs of 64, 64 and 20; epochs are 25 long, so a
        fed run is cut at every element that closes one."""
        flow = Flow("fed")
        (flow.ingest(FED, name="in", capacity=256)
             .where(lambda t: t["seq"] % 7 != 0, name="keep")
             .collect("sink"))
        store = MemoryCheckpointStore()

        async def main():
            channel = flow.channel()
            await channel.put_run(
                [StreamTuple(FED, ("c", i, i / 2.0)) for i in range(148)]
            )
            channel.close()
            engine = create_engine(
                "asyncio", flow.build(), checkpoint_every=25,
                checkpoint_store=store, timeout=10.0,
            )
            return await engine.arun()

        seen = recorded(asyncio.run(main()), store, ["in"])
        del seen["cut_times"]  # wall clock
        assert seen == {
            "epochs": 5,
            "offsets": {"in": [25, 50, 75, 100, 125]},
            "finished": {"in": 148},
            "cuts": [21, 42, 64, 85, 107],
            "delivered": 126,
            "events_processed": 178,
        }


class TestMarkerBehindAPause:
    def test_a_marker_waits_out_the_pause_its_element_provoked(self):
        """Capacity 4, epochs of 4: every element that closes an epoch is
        also the one that brings the edge to high water.  The marker is
        one more element behind it, so it waits for the resume and the
        edge never holds more than its capacity."""
        rows = [
            (float(i // 6), StreamTuple(KEYED, (float(i), i % 3, float(i))))
            for i in range(30)
        ]
        flow = Flow("held", page_size=64)
        (flow.source(KEYED, rows, name="src")
             .where(lambda t: True, name="slow", tuple_cost=0.3)
             .collect("sink"))
        store = MemoryCheckpointStore()
        result = flow.run(
            "simulated", queue_capacity=4, checkpoint_every=4,
            checkpoint_store=store,
        )
        seen = recorded(result, store, ["src"])
        # Not pinned here: with the marker no longer a heap event of its
        # own, a pause that used to stash the marker now stashes the
        # element behind it, and the count of heap pops moves by one.
        del seen["events_processed"]
        assert seen == {
            "epochs": 7,
            "offsets": {"src": [4, 8, 12, 16, 20, 24, 28]},
            "finished": {"src": 30},
            "cuts": [4, 8, 12, 16, 20, 24, 28],
            "cut_times": [1.2, 2.4, 3.6, 4.8, 6.0, 7.2, 8.4],
            "delivered": 30,
        }
        assert result.makespan == 9.0
        head = result.metrics.queue_metrics["src->slow[0]"]
        assert head.peak_occupancy == 4
        assert result.metrics.operator_metrics["src"].pauses_received == 15

    def test_a_held_marker_still_precedes_the_next_run(self):
        """The pause can come late even at ``control_latency=0``: control
        channels are FIFO, and here a feedback message stamped with its
        costed sender's busy horizon (4.7) sits in front of the pause
        (4.5), so the source emits three more runs at 4.5 above high
        water.  The marker held at offset 20 must leave ahead of the
        first of them -- two deliveries later and the cut is torn."""
        arrivals = [0.0, 0.5, 0.5, 0.5, 0.5, 1.5, None, 1.5, 2.0, 2.0, 2.5,
                    3.5, 3.5, 3.5, None, 3.5, 4.5, 4.5, 4.5, 4.5, 4.5, 4.5,
                    None, 5.0, 6.0, 6.0]
        rows, stamp, last = [], 0, 0.0
        for arrival in arrivals:
            if arrival is None:
                rows.append(
                    (last, Punctuation.up_to(KEYED, "ts", float(stamp)))
                )
            else:
                stamp, last = stamp + 1, arrival
                rows.append((arrival, StreamTuple(
                    KEYED, (float(stamp), stamp % 4, 0.0)
                )))
        flow = Flow("late-pause", page_size=1)
        (flow.source(KEYED, rows, name="src")
             .where(lambda t: True, name="slow", tuple_cost=0.3)
             .collect("sink"))
        store = MemoryCheckpointStore()
        result = flow.run(
            "simulated", queue_capacity=4, checkpoint_every=4,
            checkpoint_store=store,
            feedback=[(4.5, "sink", FeedbackPunctuation.assumed(
                Pattern.from_mapping(KEYED, {"k": 2})
            ))],
        )
        seen = recorded(result, store, ["src"])
        assert seen["offsets"] == {"src": [4, 8, 12, 16, 20, 24]}
        assert seen["cuts"] == [4, 7, 11, 14, 17, 20]
        assert seen["delivered"] == 21
        head = result.metrics.queue_metrics["src->slow[0]"]
        assert head.peak_occupancy == 9  # the late pause, as recorded


class TestStructure:
    def test_no_event_wrapper_and_no_marker_branch_at_the_source(self):
        sources = {
            path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
            for path in SRC.rglob("*.py")
        }
        for name, text in sources.items():
            assert not re.search(
                r"def (wrap_events|wrap_aevents|source_aevents)\b", text
            ), name
        runtime = sources["engine/runtime.py"]
        dispatch = runtime[runtime.index("def dispatch_source_run"):]
        dispatch = dispatch[:dispatch.index("\n    def ")]
        assert "isinstance" not in dispatch
        assert "CheckpointPunctuation" not in runtime
