"""Every sleep in the test suite, and why it stays.

A test that sleeps to *make something likely* -- "by now the pump has
started", "by now the flood is being throttled" -- is a race that a slow
box loses.  Such a sleep waits on the condition it stands for instead.
What remains is listed here by file and test, each with its reason:
pacing a feed (the stream must take wall time), proving a stall or a
quiet spell over a window (nothing may happen for a while), a feed that
never ends, or the poll step of a helper that waits on a condition.  A
new sleep fails this test until it is either replaced by a wait on an
event or added with a reason; a stale entry fails it too.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent

PACES = "paces a feed: the stream must take wall time"
POLLS = "the poll step of a helper that waits on a condition"
ALLOWED = {
    ("test_async_engine.py", "feed"): PACES,
    ("test_async_engine.py",
     "TestSharingTheLoop.test_saturating_source_does_not_starve_the_loop"):
        "the heartbeat whose gaps are the measurement",
    ("test_async_engine.py",
     "TestSharingTheLoop.test_idle_feed_costs_no_events"):
        "proves a parked feed costs no events over a quiet spell",
    ("test_async_engine.py", "TestWatchdog._stuck_plan"):
        "a feed that never ends, for the watchdog to catch",
    ("test_engine_core.py",
     "TestThreadedControlLatency."
     "test_feedback_delivered_once_arrival_time_passes"): PACES,
    ("test_served_runs.py", "wait_until"): POLLS,
    ("test_served_runs.py",
     "TestIngestRuns."
     "test_a_reader_that_stops_closes_the_gate_and_nothing_is_lost"):
        "proves the stall holds over a window",
    ("test_served_runs.py",
     "TestDelivery.test_one_tuple_into_an_idle_flow_comes_out_alone"):
        "proves the flow is quiet before the one tuple goes in",
    ("test_serving.py", "wait_until"): POLLS,
    ("test_serving.py",
     "TestBackpressureToSocket."
     "test_slow_subscriber_bounds_buffers_and_defers_ingest"):
        "proves the stall settled over a window",
    ("test_serving_soak.py",
     "TestServingSoak.test_many_flows_survive_randomized_churn"):
        "polls until every churned subscription has detached",
}


def sleeps():
    """``(file, Class.test)`` around every non-zero ``sleep(...)`` call
    under ``tests/`` -- keyed by the outermost function it sits in."""
    found = set()
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not isinstance(node, ast.Call) or getattr(
                func, "attr", getattr(func, "id", None)
            ) != "sleep":
                continue
            if [ast.dump(arg) for arg in node.args] == [
                ast.dump(ast.Constant(0))
            ]:
                continue  # a bare yield to the loop
            names = []
            while node in parents:
                node = parents[node]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.append(node)
            names.reverse()
            outermost = next(
                index for index, scope in enumerate(names)
                if not isinstance(scope, ast.ClassDef)
            )
            found.add((
                path.name,
                ".".join(scope.name for scope in names[:outermost + 1]),
            ))
    return found


def test_every_sleep_is_accounted_for():
    assert sleeps() == set(ALLOWED)
