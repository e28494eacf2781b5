"""Unit tests for pages and data queues, incl. flush-on-punctuation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.multiprocess import _ShippingQueue
from repro.errors import EngineError
from repro.punctuation import Punctuation
from repro.stream import DataQueue, Page, Schema, StreamTuple
from repro.stream.pages import decode_page


@pytest.fixture
def schema():
    return Schema.of("ts", "v")


def tup(schema, ts, v=0):
    return StreamTuple(schema, (ts, v))


def punct(schema, ts):
    return Punctuation.up_to(schema, "ts", ts)


class TestPage:
    def test_fills_to_capacity(self, schema):
        page = Page(capacity=2)
        assert page.append(tup(schema, 1)) is False
        assert page.append(tup(schema, 2)) is True
        assert page.complete

    def test_punctuation_completes_page_immediately(self, schema):
        page = Page(capacity=100)
        page.append(tup(schema, 1))
        assert page.append(punct(schema, 1)) is True

    def test_append_after_complete_raises(self, schema):
        page = Page(capacity=1)
        page.append(tup(schema, 1))
        with pytest.raises(EngineError):
            page.append(tup(schema, 2))

    def test_seal_marks_complete(self, schema):
        page = Page(capacity=10)
        page.append(tup(schema, 1))
        page.seal()
        assert page.complete

    def test_counts(self, schema):
        page = Page(capacity=10)
        page.append(tup(schema, 1))
        page.append(tup(schema, 2))
        page.append(punct(schema, 2))
        assert page.tuple_count() == 2
        assert page.punctuation_count() == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(EngineError):
            Page(capacity=0)


def scan(page):
    return any(e.is_punctuation for e in page.elements)


class TestPunctuationFlag:
    """``Page.has_punctuation`` is a scan's answer without the scan."""

    def test_appended_pages(self, schema):
        page = Page(capacity=4)
        assert page.has_punctuation is False  # empty
        page.append(tup(schema, 1))
        page.append(tup(schema, 2))
        assert page.has_punctuation is scan(page) is False
        page.append(punct(schema, 2))
        assert page.has_punctuation is scan(page) is True

    def test_a_lone_punctuation(self, schema):
        page = Page(capacity=4)
        page.append(punct(schema, 0))
        assert page.has_punctuation is True

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 9])
    def test_take_from_filled_and_sealed_pages(self, schema, n):
        batch = [tup(schema, i) for i in range(n)]
        page = Page(capacity=4)
        page.take_from(batch, 0)
        assert page.has_punctuation is scan(page) is False
        page.seal()
        assert page.has_punctuation is False

    def test_take_from_then_punctuation(self, schema):
        page = Page(capacity=8)
        page.take_from([tup(schema, i) for i in range(3)], 0)
        page.append(punct(schema, 3))
        assert page.has_punctuation is scan(page) is True

    def test_every_page_a_queue_builds(self, schema):
        queue = DataQueue("q", page_size=4)
        queue.put_many([tup(schema, i) for i in range(6)])
        queue.put(punct(schema, 6))
        queue.put(tup(schema, 7))
        queue.put_many([tup(schema, i) for i in range(8, 11)])
        queue.put(punct(schema, 11))
        queue.put(tup(schema, 12))
        queue.close()
        flags = []
        while (page := queue.get_page()) is not None:
            assert page.has_punctuation is scan(page)
            flags.append(page.has_punctuation)
        assert flags == [False, True, False, True, False]

    def test_elements_placed_directly_are_scanned(self, schema):
        """A page filled behind ``append``'s back has no record to
        trust; it answers by looking, interleavings included."""
        page = Page(capacity=8)
        page.elements.extend(
            [tup(schema, 1), punct(schema, 1), tup(schema, 2)]
        )
        assert page.has_punctuation is True
        clean = Page(capacity=8)
        clean.elements.extend([tup(schema, 1), tup(schema, 2)])
        assert clean.has_punctuation is False
        clean.elements.append(punct(schema, 2))
        assert clean.has_punctuation is True

    def test_hand_built_pages_deliver_as_before(self, schema):
        """Through ``process_page``: appended, directly filled (with an
        interleaved punctuation) and bare-list pages all reach the
        operator as the same runs and punctuations."""
        from repro.engine.harness import OperatorHarness
        from repro.operators import PassThrough

        elements = [tup(schema, 1), tup(schema, 2), punct(schema, 2)]
        interleaved = [tup(schema, 1), punct(schema, 1), tup(schema, 2)]

        def delivered(page):
            harness = OperatorHarness(PassThrough("p", schema))
            harness.operator.process_page(0, page)
            harness.finish()
            return harness.emitted()

        appended = Page(capacity=8)
        for element in elements:
            appended.append(element)
        direct = Page(capacity=8)
        direct.elements.extend(elements)
        assert delivered(appended) == delivered(direct) == delivered(
            list(elements)) == elements
        direct = Page(capacity=8)
        direct.elements.extend(interleaved)
        assert delivered(direct) == delivered(
            list(interleaved)) == interleaved


class TestDataQueue:
    def test_put_until_page_ready(self, schema):
        q = DataQueue(page_size=3)
        assert q.put(tup(schema, 1)) is False
        assert q.put(tup(schema, 2)) is False
        assert q.put(tup(schema, 3)) is True
        assert q.ready_pages == 1

    def test_punctuation_flushes_partial_page(self, schema):
        q = DataQueue(page_size=100)
        q.put(tup(schema, 1))
        assert q.put(punct(schema, 1)) is True
        page = q.get_page()
        assert page is not None and len(page) == 2

    def test_get_page_empty_returns_none(self):
        assert DataQueue().get_page() is None

    def test_flush_seals_open_page(self, schema):
        q = DataQueue(page_size=10)
        q.put(tup(schema, 1))
        assert q.flush() is True
        assert q.ready_pages == 1

    def test_flush_empty_is_noop(self):
        assert DataQueue().flush() is False

    def test_close_flushes_and_marks(self, schema):
        q = DataQueue(page_size=10)
        q.put(tup(schema, 1))
        q.close()
        assert q.closed
        assert q.ready_pages == 1
        assert not q.exhausted
        q.get_page()
        assert q.exhausted

    def test_drain_elements_preserves_order(self, schema):
        q = DataQueue(page_size=2)
        elements = [tup(schema, i) for i in range(5)]
        for e in elements:
            q.put(e)
        q.flush()
        assert list(q.drain_elements()) == elements

    def test_pending_elements_counts_open_page(self, schema):
        q = DataQueue(page_size=10)
        q.put(tup(schema, 1))
        q.put(tup(schema, 2))
        assert q.pending_elements() == 2

    def test_counters(self, schema):
        q = DataQueue(page_size=2)
        for i in range(4):
            q.put(tup(schema, i))
        assert q.elements_enqueued == 4
        assert q.pages_flushed == 2


# -- one way in: put_many against a page-at-a-time reference -------------------

#: A feed: runs of tuples (their lengths) and lone punctuations ("p").
FEEDS = st.lists(
    st.one_of(st.integers(1, 20), st.just("p")), max_size=12
)


def feed_runs(feed):
    """The feed as ``_emit`` hands it to an edge: a list of tuples, or
    a list of one punctuation."""
    schema = Schema.of("ts", "v")
    runs, ts = [], 0
    for item in feed:
        if item == "p":
            runs.append([punct(schema, ts)])
        else:
            runs.append([tup(schema, ts + i, i) for i in range(item)])
            ts += item
    return runs


def reference(runs, page_size):
    """Pages built with ``Page.append``, one element at a time, and the
    pages each run completed."""
    pages, completed = [], []
    page = Page(page_size)
    for run in runs:
        done = 0
        for element in run:
            if page.append(element):
                pages.append(page)
                page = Page(page_size)
                done += 1
        completed.append(done)
    if not page.empty:
        page.seal()
        pages.append(page)
    return pages, completed


def shape(pages):
    return [
        (list(page.elements), page.complete, page.has_punctuation)
        for page in pages
    ]


def plain(page_size):
    return DataQueue("q", page_size), None


def locked(page_size):
    queue = DataQueue("q", page_size)
    queue.enable_thread_safety()
    return queue, None


def shipping(page_size):
    shipped = []
    return _ShippingQueue("q", page_size, shipped.append), shipped


class TestOneWayIn:
    """Any feed of tuple runs and lone punctuations through ``put_many``
    gives the pages, boundaries, flags and counters of appending one
    element at a time."""

    @pytest.mark.parametrize("make", [plain, locked, shipping])
    @settings(max_examples=150, deadline=None)
    @given(feed=FEEDS, page_size=st.integers(1, 8))
    def test_put_many_builds_the_reference_pages(self, make, feed,
                                                 page_size):
        runs = feed_runs(feed)
        expected, completed = reference(runs, page_size)
        queue, shipped = make(page_size)
        assert [queue.put_many(run) for run in runs] == completed
        total = sum(len(run) for run in runs)
        assert queue.elements_enqueued == total
        queue.close()
        if shipped is None:
            assert queue.occupancy == queue.peak_occupancy == total
            pages = []
            while (page := queue.get_page()) is not None:
                pages.append(page)
        else:
            assert shipped[-1] == ("close", "q")
            pages = [decode_page(frame[2]) for frame in shipped[:-1]]
        assert shape(pages) == shape(expected)
        assert queue.pages_flushed == len(expected)
