"""One record of what a sink delivered.

A terminal sink's flushed delivery log is the only durable copy of its
output and ``delivered`` is the cut into it.  Pinned here is the
structure: the run-wide output log, its record type and the ``tag=``
knob that fed nothing else are gone from ``src/``; recovery never takes
a list length for the cut; the role protocols no operator implemented
are gone; and merging worker feedback logs goes through the log's own
``extend``, not its private list.  The behaviour lives in
``tests/test_recovery.py`` (trimmed-sink kill-and-resume) and
``tests/test_durability_state.py`` (bounded snapshots,
``delivered == len(log)``).
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import repro
import repro.core
import repro.engine
from repro.core.roles import FeedbackLog
from repro.operators import CollectSink, PushSink
from repro.operators.base import Operator

SRC = Path(repro.__file__).resolve().parent


def offenders(pattern):
    return [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(pattern, line)
    ]


class TestStructure:
    def test_output_log_is_gone_from_src(self):
        assert offenders(r"OutputLog|OutputRecord|output_log") == []
        assert not hasattr(repro.engine, "OutputLog")
        assert not hasattr(repro.engine, "OutputRecord")

    def test_the_cut_is_never_a_list_length(self):
        assert offenders(r"len\(state\.get\(\"results\"") == []

    def test_collect_sink_has_no_tag(self):
        assert "tag" not in inspect.signature(CollectSink.__init__).parameters

    def test_delivered_is_counted_once_for_every_sink(self):
        """``PushSink`` inherits the counter and the snapshot seam rather
        than carrying a second copy of either."""
        assert CollectSink("sink").delivered == 0
        assert PushSink.snapshot_state is CollectSink.snapshot_state
        assert PushSink.restore_state is CollectSink.restore_state
        assert CollectSink.snapshot_state is not Operator.snapshot_state

    def test_unimplemented_role_protocols_are_gone(self):
        for name in ("FeedbackProducer", "FeedbackExploiter",
                     "FeedbackRelayer"):
            assert not hasattr(repro.core, name)
        assert offenders(r"def (pending_feedback|on_feedback)\b") == []

    def test_feedback_log_merges_through_its_own_extend(self):
        log, other = FeedbackLog(), FeedbackLog()
        event = other.record(1.0, "op", None, ())
        log.extend(other)
        assert list(log) == [event]
        assert offenders(r"feedback_log\._events") == []
