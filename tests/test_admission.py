"""Property-based admission control: token buckets under generated load.

Pure-policy tests -- no sockets, no event loop, no wall clock.  The
:class:`~repro.serving.tenancy.TokenBucket` and
:class:`~repro.serving.tenancy.AdmissionController` take ``now`` as a
parameter, so hypothesis can drive thousands of arrival schedules
through them directly and check the two bounds the serving layer's
fairness story rests on:

* **rate bound** -- over any window ``[s, t]``, the number of admissions
  whose *conforming* time falls inside is at most
  ``burst + rate·(t-s)`` (plus one boundary admission);
* **isolation** -- a tenant's delays are a function of its own schedule
  only: interleaving another tenant's flood changes nothing.

Plus the structural invariants: reservations never drop (every delay is
finite and non-negative), conforming times preserve arrival order
(FIFO), and bucket exhausted/refilled transitions log alternating
pause/resume :class:`~repro.core.feedback.FlowControlPunctuation` on
the tenant's virtual edge.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core.feedback import FlowControlKind
from repro.errors import ServingError
from repro.serving import AdmissionController, TenantPolicy, TokenBucket

# Bounded, well-conditioned parameter spaces: rates and bursts far from
# float extremes so the closed-form bound below is numerically honest.
rates = st.floats(min_value=0.5, max_value=1000.0)
bursts = st.floats(min_value=1.0, max_value=50.0)
arrivals = st.lists(
    st.floats(min_value=0.0, max_value=30.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
).map(sorted)


class TestTokenBucketProperties:
    @given(schedule=arrivals, rate=rates, burst=bursts)
    @settings(max_examples=120, deadline=None)
    def test_never_drops_and_preserves_order(self, schedule, rate, burst):
        bucket = TokenBucket(rate, burst)
        conforming = []
        for now in schedule:
            delay = bucket.reserve(now)
            assert delay >= 0.0
            assert math.isfinite(delay)
            conforming.append(now + delay)
        # FIFO: an earlier arrival never conforms after a later one
        assert conforming == sorted(conforming)
        assert bucket.reservations == len(schedule)

    @given(schedule=arrivals, rate=rates, burst=bursts)
    @settings(max_examples=120, deadline=None)
    def test_conforming_admissions_respect_the_rate_bound(
        self, schedule, rate, burst
    ):
        """No window admits more than burst + rate·window conforming."""
        bucket = TokenBucket(rate, burst)
        conforming = sorted(
            now + bucket.reserve(now) for now in schedule
        )
        for i in range(len(conforming)):
            for j in range(i, len(conforming)):
                window = conforming[j] - conforming[i]
                count = j - i + 1
                assert count <= burst + rate * window + 1.0 + 1e-6, (
                    f"{count} admissions conforming within {window:.4f}s "
                    f"exceeds burst={burst} + rate={rate}·window"
                )

    @given(schedule=arrivals, rate=rates, burst=bursts)
    @settings(max_examples=120, deadline=None)
    def test_peek_predicts_reserve(self, schedule, rate, burst):
        bucket = TokenBucket(rate, burst)
        for now in schedule:
            predicted = bucket.peek(now)
            assert bucket.reserve(now) == pytest.approx(predicted)

    @given(rate=rates, burst=bursts)
    @settings(max_examples=60, deadline=None)
    def test_burst_admits_instantly_from_idle(self, rate, burst):
        bucket = TokenBucket(rate, burst)
        for _ in range(int(math.floor(burst))):
            assert bucket.reserve(0.0) == 0.0

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ServingError, match="rate"):
            TokenBucket(0.0, 10.0)
        with pytest.raises(ServingError, match="burst"):
            TokenBucket(10.0, 0.5)


class TestTenantIsolationProperties:
    @given(
        schedule_a=arrivals,
        schedule_b=arrivals,
        rate_b=rates,
        burst_b=bursts,
    )
    @settings(max_examples=100, deadline=None)
    def test_a_tenants_delays_depend_only_on_its_own_schedule(
        self, schedule_a, schedule_b, rate_b, burst_b
    ):
        """Interleaving tenant A's flood leaves tenant B's delays exact.

        B's bucket is driven with the same ``now`` sequence either way,
        so the delays must be bit-for-bit identical -- fairness by
        construction, not by scheduling luck.
        """
        policy_b = TenantPolicy(rate=rate_b, burst=burst_b, max_flows=1)
        controller = AdmissionController()
        # A is deliberately starved: tiny allowance, heavy schedule
        controller.set_policy(
            "a", TenantPolicy(rate=0.5, burst=1.0, max_flows=1)
        )
        controller.set_policy("b", policy_b)
        merged = sorted(
            [(now, "a") for now in schedule_a]
            + [(now, "b") for now in schedule_b]
        )
        interleaved = [
            controller.reserve(tenant, now)
            for now, tenant in merged
            if tenant == "b"
        ]
        solo = policy_b.bucket()
        alone = [solo.reserve(now) for now in schedule_b]
        assert interleaved == alone

    @given(schedule=arrivals)
    @settings(max_examples=80, deadline=None)
    def test_control_log_alternates_pause_resume_per_tenant(self, schedule):
        controller = AdmissionController(
            TenantPolicy(rate=2.0, burst=1.0, max_flows=1)
        )
        for now in schedule:
            controller.reserve("t", now)
        log = [
            p for p in controller.control_log if p.edge == "t->serving"
        ]
        for index, punctuation in enumerate(log):
            expected = (
                FlowControlKind.PAUSE
                if index % 2 == 0
                else FlowControlKind.RESUME
            )
            assert punctuation.kind is expected
            assert punctuation.issuer == "serving"
        # the paused flag mirrors the last logged transition
        snapshot = controller.snapshot()["t"]
        if log:
            assert snapshot["paused"] == (
                log[-1].kind is FlowControlKind.PAUSE
            )
        else:
            assert not snapshot["paused"]

    @given(schedule=arrivals, rate=rates, burst=bursts)
    @settings(max_examples=80, deadline=None)
    def test_snapshot_counts_delays_consistently(
        self, schedule, rate, burst
    ):
        controller = AdmissionController()
        controller.set_policy(
            "t", TenantPolicy(rate=rate, burst=burst, max_flows=1)
        )
        delays = [controller.reserve("t", now) for now in schedule]
        snapshot = controller.snapshot()["t"]
        assert snapshot["reservations"] == len(schedule)
        assert snapshot["delayed"] == sum(1 for d in delays if d > 0)
        assert snapshot["delay_total"] == pytest.approx(sum(delays))


class TestARunReservesAsItsElementsWould:
    """``reserve(tenant, now, n)`` against ``n`` single reservations.

    The reference is the loop ``FlowSupervisor.ingest`` used to run.
    Rates, bursts and instants are dyadic, so both sides' token balances
    are exact and every count, every logged transition and the returned
    delay must be *equal*; only ``delay_total`` is a sum taken in a
    different order, and is compared to rounding.
    """

    runs = st.lists(
        st.tuples(
            st.integers(0, 30 * 64).map(lambda k: k / 64),   # now
            st.integers(1, 120),                             # run length
        ),
        min_size=1, max_size=25,
    ).map(lambda schedule: sorted(schedule, key=lambda entry: entry[0]))

    @given(
        schedule=runs,
        rate=st.integers(1, 2000).map(lambda k: k / 2),
        burst=st.integers(4, 200).map(lambda k: k / 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_log_and_delay_equal_the_loop(self, schedule, rate, burst):
        policy = TenantPolicy(rate=rate, burst=burst, max_flows=1)
        at_once, one_by_one = AdmissionController(), AdmissionController()
        for controller in (at_once, one_by_one):
            controller.set_policy("t", policy)
        crossed = False
        for now, n in schedule:
            before = one_by_one.snapshot()["t"]["delayed"]
            delay = 0.0
            for _ in range(n):
                delay = one_by_one.reserve("t", now)
            assert at_once.reserve("t", now, n) == delay
            late = one_by_one.snapshot()["t"]["delayed"] - before
            crossed = crossed or 0 < late < n
            got, want = at_once.snapshot()["t"], one_by_one.snapshot()["t"]
            assert got.pop("delay_total") == pytest.approx(
                want.pop("delay_total"), rel=1e-9, abs=1e-12
            )
            assert got == want
            assert [
                (p.kind, p.edge, p.issuer, p.issued_at, p.occupancy)
                for p in at_once.control_log
            ] == [
                (p.kind, p.edge, p.issuer, p.issued_at, p.occupancy)
                for p in one_by_one.control_log
            ]
        # Exhaustion inside a run -- the case a count per run could get
        # wrong -- is generated, not hoped for.
        event("crossed inside a run" if crossed else "never crossed")

    def test_a_run_that_crosses_exhaustion_midway(self):
        """burst 10 at 1000/s, 30 at once: 20 late by 1..20 ms, paused by
        the eleventh; a refilled bucket resumes and re-pauses in one run."""
        controller = AdmissionController()
        controller.set_policy(
            "t", TenantPolicy(rate=1000.0, burst=10.0, max_flows=1)
        )
        assert controller.reserve("t", 5.0, 30) == pytest.approx(0.020)
        state = controller.snapshot()["t"]
        assert (state["reservations"], state["delayed"]) == (30, 20)
        assert state["delay_total"] == pytest.approx(sum(range(1, 21)) / 1e3)
        assert [(p.kind, p.occupancy) for p in controller.control_log] == [
            (FlowControlKind.PAUSE, 1)
        ]
        assert controller.reserve("t", 6.0, 12) == pytest.approx(0.002)
        assert [
            (p.kind, p.issued_at, p.occupancy)
            for p in controller.control_log[1:]
        ] == [
            (FlowControlKind.RESUME, 6.0, 0),
            (FlowControlKind.PAUSE, 6.0, 21),
        ]
        assert controller.snapshot()["t"]["delayed"] == 22

    def test_one_is_the_default(self):
        bucket, single = TokenBucket(2.0, 1.0), TokenBucket(2.0, 1.0)
        assert [bucket.reserve(now, 1) for now in (0.0, 0.0, 0.25)] == [
            single.reserve(now) for now in (0.0, 0.0, 0.25)
        ]
        assert bucket.tokens == single.tokens


class TestFlowCaps:
    def test_max_flows_enforced_and_released(self):
        controller = AdmissionController(
            TenantPolicy(rate=10.0, burst=5.0, max_flows=2)
        )
        controller.admit_flow("t", "f1")
        controller.admit_flow("t", "f2")
        with pytest.raises(ServingError, match="limit"):
            controller.admit_flow("t", "f3")
        # another tenant is unaffected by t's saturation
        controller.admit_flow("u", "g1")
        controller.release_flow("t", "f1")
        controller.admit_flow("t", "f3")
        assert controller.flows_of("t") == {"f2", "f3"}

    def test_duplicate_flow_name_rejected(self):
        controller = AdmissionController()
        controller.admit_flow("t", "f")
        with pytest.raises(ServingError, match="already"):
            controller.admit_flow("t", "f")

    def test_policy_reprovisioning_rejected_once_live(self):
        controller = AdmissionController()
        controller.reserve("t", 0.0)
        with pytest.raises(ServingError, match="provisioned"):
            controller.set_policy("t", TenantPolicy())
