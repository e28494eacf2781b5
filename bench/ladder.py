"""The layer ladder: each layer's cost, timed from outside on real tuples.

Every entry calls one layer's public functions on a slice of the
workload's own timeline (ten stream-minutes, 10,800 detector tuples) and reports the cost
per tuple -- ns unless the name says otherwise.  Five reps each, reduced
with :func:`bench.env.quiet`.  The ladder is what a per-layer change is
attributed with: ``bench/README.md`` says which end-to-end metric each
entry should move, and on which workload none should.

Runs as its own pinned child process (``python bench/ladder.py CONFIG``).
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # child entry: import `bench` as a package
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import env, oracle, serving, speedmap

env.require_program()

from repro.api import Flow, avg  # noqa: E402
from repro.core.guards import GuardSet  # noqa: E402
from repro.engine.harness import OperatorHarness  # noqa: E402
from repro.operators.aggregate import WindowAggregate  # noqa: E402
from repro.operators.select import Select  # noqa: E402
from repro.operators.sink import CollectSink  # noqa: E402
from repro.operators.source import PunctuatedSource  # noqa: E402
from repro.optimizer import optimize  # noqa: E402
from repro.serving.codec import tuple_to_json, tuples_from_body  # noqa: E402
from repro.serving.tenancy import (  # noqa: E402
    AdmissionController,
    TenantPolicy,
)
from repro.serving.wire import (  # noqa: E402
    read_request,
    sse_event,
    ws_encode,
    ws_read,
)
from repro.stream import Schema, StreamTuple  # noqa: E402
from repro.stream.channels import Broadcast, Channel  # noqa: E402
from repro.stream.pages import Page, decode_page, encode_page  # noqa: E402
from repro.stream.queues import DataQueue  # noqa: E402
from repro.workloads.traffic import (  # noqa: E402
    DETECTOR_SCHEMA,
    TrafficWorkload,
)

REPS = 5
MULTIPROCESS_CPUS = 4
PAGE = speedmap.PAGE_SIZE
SERVE_SCHEMA = Schema([("client", "str"), ("seq", "int"), ("value", "float")])


def timed(fn) -> float:
    started = time.perf_counter_ns()
    fn()
    return float(time.perf_counter_ns() - started)


def repeat(once) -> float:
    """Quiet value of ``once()`` -- a cost, lower is better -- over ``REPS``."""
    return env.quiet([once() for _ in range(REPS)], "lower")


def best(fn, per: int, scale: float = 1.0) -> float:
    """Quiet ns of ``fn()`` over ``REPS`` calls, divided by ``per``."""
    return repeat(lambda: timed(fn)) / per / scale


def pages_of(elements: list) -> list[list]:
    return [elements[i:i + PAGE] for i in range(0, len(elements), PAGE)]


class Ladder:
    def __init__(self, seed: int, horizon: float, allowed: list[int]) -> None:
        self.seed = seed
        self.horizon = horizon
        self.allowed = set(allowed)
        self.rows = speedmap.timeline(horizon, seed)
        self.tuples = [tup for _arrival, tup in self.rows]
        self.n = len(self.tuples)
        self.pages = pages_of(self.tuples)
        source = PunctuatedSource(
            "punctuate", DETECTOR_SCHEMA, self.rows,
            punctuate_on="timestamp",
            punctuation_interval=speedmap.PUNCTUATE_EVERY,
        )
        #: The stream as AVERAGE sees it: tuples with embedded punctuation.
        self.elements = [element for _arrival, element in source.events()]
        self.punctuation = [e for e in self.elements if e.is_punctuation]
        # The guard the quality filter really mounts: AVERAGE's relay of
        # the viewer's first injection, translated onto the input schema.
        average = OperatorHarness(self._average(exploit_level=2))
        average.feedback(speedmap.viewer_schedule(
            average.operator.output_schema, self.horizon
        )[0][2])
        self.relayed = average.upstream_feedback(0)[0]
        self.jobs = {
            workload: speedmap.Job(workload, self.rows, self.horizon)
            for workload in ("speedmap_replay", "speedmap_feedback")
        }
        self.messages = [
            serving.tuple_json("c0", seq, 0.5).encode()
            for seq in range(self.n)
        ]
        self.served = [
            StreamTuple(SERVE_SCHEMA, ("c0", seq, 0.5))
            for seq in range(self.n)
        ]

    # -- operators under a harness -----------------------------------------------

    @staticmethod
    def _select() -> Select:
        return Select(
            "sigma_q", DETECTOR_SCHEMA,
            lambda tup: tup["speed"] < oracle.SPEED_LIMIT,
        )

    @staticmethod
    def _average(**kwargs) -> WindowAggregate:
        return WindowAggregate(
            "average", DETECTOR_SCHEMA, kind="avg",
            window_attribute="timestamp", width=oracle.WINDOW_WIDTH,
            slide=None, value_attribute="speed", group_by=("segment",),
            **kwargs,
        )

    def _harnessed(self, make, elements: list, *, by_page: bool,
                   feedback=None) -> float:
        def once() -> float:
            harness = OperatorHarness(make())
            if feedback is not None:
                harness.feedback(feedback)
            if by_page:
                pages = pages_of(elements)
                return timed(lambda: [harness.push_page(p) for p in pages])
            return timed(lambda: harness.push_all(elements))

        return repeat(once) / self.n

    # -- engines -----------------------------------------------------------------

    def _job_us(self, workload: str) -> float:
        """A workload's own job on the slice, us per tuple."""
        job = self.jobs[workload]
        return repeat(lambda: job.rep()["run_s"]) * 1e6 / self.n

    def _flow_us(self, make_flow, engine: str, **options) -> float:
        """``make_flow().run(engine)`` on the slice, us per tuple."""
        def once() -> float:
            flow = make_flow()
            return timed(lambda: flow.run(engine=engine, **options))

        return repeat(once) / 1e3 / self.n

    def _metered_flow(self, tuple_cost: float = 1e-6):
        """The speed-map plan with costed operators.

        Any costed operator is metered, which takes ``process_element``
        instead of ``process_page``: the per-element twin of the page
        path on the same plan and engine (built here rather than through
        ``exp2.run_cell``, which would time its own timeline generation).
        """
        flow = Flow("speedmap-metered", page_size=PAGE)
        (
            flow.source(DETECTOR_SCHEMA, self.rows, name="punctuate")
            .punctuate(on="timestamp", every=speedmap.PUNCTUATE_EVERY)
            .where(lambda tup: tup["speed"] < oracle.SPEED_LIMIT,
                   name="sigma_q", tuple_cost=tuple_cost)
            .window(avg("speed"), on="timestamp",
                    width=oracle.WINDOW_WIDTH, by="segment",
                    name="average", tuple_cost=tuple_cost)
            .collect("sink", tuple_cost=tuple_cost)
        )
        return flow

    def _multiprocess_us(self, make_flow, options: dict):
        """The fork-per-operator-group engine, given back every allowed CPU.

        Parallel speed-up cannot show below four CPUs: say so instead of
        recording ~1x (ROADMAP item A).
        """
        if len(self.allowed) < MULTIPROCESS_CPUS:
            return (f"unmeasurable: {len(self.allowed)} allowed CPUs, "
                    f"needs {MULTIPROCESS_CPUS} to run operator groups in "
                    f"parallel")
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.allowed)
        try:
            return self._flow_us(make_flow, "multiprocess", **options)
        finally:
            os.sched_setaffinity(0, pinned)

    # -- serving pieces ----------------------------------------------------------

    def _ws_read(self) -> float:
        wire = b"".join(serving.ws_frame(m) for m in self.messages)

        async def drain() -> None:
            reader = asyncio.StreamReader(limit=len(wire) + 1)
            reader.feed_data(wire)
            reader.feed_eof()
            for _ in range(self.n):
                await ws_read(reader)

        return best(lambda: asyncio.run(drain()), self.n)

    def _http_parse(self) -> float:
        body = b"[" + b",".join(
            self.messages[:serving.BURST_TUPLES]
        ) + b"]"
        request = (
            f"POST /v1/flows/bench/ingest HTTP/1.1\r\nhost: x\r\n"
            f"content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n\r\n"
        ).encode() + body
        count = 200

        async def drain() -> None:
            reader = asyncio.StreamReader(limit=len(request) * count + 1)
            reader.feed_data(request * count)
            reader.feed_eof()
            for _ in range(count):
                await read_request(reader)

        return best(lambda: asyncio.run(drain()), count, 1e3)

    def _channel(self) -> float:
        async def pump() -> None:
            channel = Channel("in", SERVE_SCHEMA, capacity=1024)
            stream = channel.stream()
            for start in range(0, self.n, 512):
                batch = self.served[start:start + 512]
                for tup in batch:
                    await channel.put(tup)
                for _ in batch:
                    await stream.__anext__()

        return best(lambda: asyncio.run(pump()), self.n)

    def _hub(self) -> float:
        async def pump() -> None:
            hub = Broadcast("out", high_water=1024)
            subscription = hub.subscribe()
            for start in range(0, self.n, 512):
                batch = self.served[start:start + 512]
                for tup in batch:
                    hub.publish(tup)
                for _ in batch:
                    await subscription.__anext__()

        return best(lambda: asyncio.run(pump()), self.n)

    # -- the ladder --------------------------------------------------------------

    def run(self) -> dict:
        n, tuples, pages = self.n, self.tuples, self.pages
        values = [tup.values for tup in tuples]
        out: dict = {}

        out["workloads.traffic_gen_ns"] = best(
            lambda: TrafficWorkload(
                horizon=self.horizon, seed=self.seed
            ).detector_timeline(), n)
        out["stream.tuple_build_ns"] = best(
            lambda: [StreamTuple(DETECTOR_SCHEMA, v) for v in values], n)

        def queue_cycle() -> None:
            queue = DataQueue("ladder", PAGE)
            for page in pages:
                queue.put_many(page)
                queue.get_page()

        out["stream.queue_put_get_ns"] = best(queue_cycle, n)

        out["operators.select_page_ns"] = self._harnessed(
            self._select, tuples, by_page=True)
        out["operators.select_tuple_ns"] = self._harnessed(
            self._select, tuples, by_page=False)
        out["operators.window_page_ns"] = self._harnessed(
            self._average, self.elements, by_page=True)
        out["operators.window_tuple_ns"] = self._harnessed(
            self._average, self.elements, by_page=False)
        out["operators.sink_collect_ns"] = self._harnessed(
            lambda: CollectSink("sink", DETECTOR_SCHEMA), tuples,
            by_page=True)
        out["operators.select_guarded_page_ns"] = self._harnessed(
            self._select, tuples, by_page=True, feedback=self.relayed)

        pattern = self.relayed.pattern
        out["punctuation.pattern_match_ns"] = best(
            lambda: [pattern.matches(tup) for tup in tuples], n)

        def guarded(call) -> float:
            def once() -> float:
                guards = GuardSet("ladder")
                guards.install(pattern, origin=self.relayed)
                return timed(lambda: call(guards))
            return repeat(once) / n

        out["core.guard_blocks_ns"] = guarded(
            lambda guards: [guards.blocks(tup) for tup in tuples])
        out["core.guard_filter_batch_ns"] = guarded(
            lambda guards: [guards.filter_batch(page) for page in pages])

        final = self.punctuation[-1]      # covers everything: expires it
        rounds = 2000

        def expire() -> None:
            for _ in range(rounds):
                guards = GuardSet("ladder")
                guards.install(pattern, origin=self.relayed)
                guards.expire_with(final)

        out["core.guard_expire_us"] = best(expire, rounds, 1e3)

        def plain():
            return speedmap.build_flow(self.rows)[0]

        bounded = {"queue_capacity": speedmap.QUEUE_CAPACITY}
        out["engine.threaded_us_per_tuple"] = self._job_us("speedmap_replay")
        out["engine.simulated_us_per_tuple"] = self._job_us(
            "speedmap_feedback")
        out["engine.simulated_metered_us_per_tuple"] = self._flow_us(
            self._metered_flow, "simulated")
        out["engine.asyncio_us_per_tuple"] = self._flow_us(
            plain, "asyncio", **bounded)
        out["engine.multiprocess_us_per_tuple"] = self._multiprocess_us(
            plain, bounded)

        def build() -> None:
            flow, _schema = speedmap.build_flow(self.rows)
            flow.build(queue_capacity=speedmap.QUEUE_CAPACITY)

        out["api.flow_build_ms"] = best(build, 1, 1e6)

        def optimise() -> float:
            flow, _schema = speedmap.build_flow(self.rows)
            plan = flow.build()
            return timed(lambda: optimize(plan))

        out["optimizer.optimize_ms"] = repeat(optimise) / 1e6

        encoded_pages: list = []
        whole = []
        for chunk in pages:
            page = Page(PAGE)
            for tup in chunk:
                page.append(tup)
            whole.append(page)
        out["stream.colpage_encode_ns"] = best(
            lambda: encoded_pages.append([encode_page(p) for p in whole]), n)
        out["stream.colpage_decode_ns"] = best(
            lambda: [decode_page(e) for e in encoded_pages[0]], n)

        out["serving.ws_read_ns"] = self._ws_read()
        results = [tuple_to_json(tup) for tup in self.served]
        out["serving.ws_encode_ns"] = best(
            lambda: [ws_encode(text) for text in results], n)
        out["serving.sse_event_ns"] = best(
            lambda: [sse_event(text) for text in results], n)
        out["serving.json_to_tuple_ns"] = best(
            lambda: [tuples_from_body(SERVE_SCHEMA, m)
                     for m in self.messages], n)
        out["serving.tuple_to_json_ns"] = best(
            lambda: [tuple_to_json(tup) for tup in self.served], n)
        out["serving.http_parse_us"] = self._http_parse()

        def reserve() -> None:
            admission = AdmissionController()
            admission.set_policy(
                "default", TenantPolicy(rate=1e9, burst=1e9, max_flows=1))
            clock = time.monotonic
            for _ in range(n):
                admission.reserve("default", clock())

        out["serving.admission_reserve_ns"] = best(reserve, n)
        out["stream.channel_put_get_ns"] = self._channel()
        out["stream.hub_publish_ns"] = self._hub()
        return out


def child_main(config: dict) -> dict:
    env.pin(config["cpu"])
    return Ladder(config["seed"], config["horizon"], config["allowed"]).run()


if __name__ == "__main__":
    print(json.dumps(child_main(json.loads(sys.argv[1]))))
