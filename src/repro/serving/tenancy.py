"""Per-tenant admission control: token buckets that delay, never drop.

The paper's thesis is that overload should surface as *feedback* --
pause punctuation travelling upstream -- rather than as silent load
shedding.  The serving layer extends that discipline past the process
boundary: when a tenant exceeds its provisioned ingest rate, the
admission controller converts the excess into *delay* on that tenant's
own connections (and records the transition as a
:class:`~repro.core.feedback.FlowControlPunctuation` pause on a virtual
``client->serving`` edge), while other tenants' traffic is untouched.
Nothing is dropped, mirroring the in-plan watermark behaviour
(docs/backpressure.md) at the socket boundary.

The policy objects are pure and synchronous -- no sockets, no event
loop, no wall clock of their own (callers pass ``now``), so the
property-based suite (tests/test_admission.py) drives thousands of
generated arrival schedules through them directly.

:class:`TokenBucket` uses the *reservation* variant of the classic
algorithm (GCRA-flavoured): ``reserve(now)`` always admits and returns
the delay after which the request conforms to the configured rate,
letting the token balance go negative to represent the FIFO queue of
waiting requests.  Over any window ``[s, t]`` the number of admissions
whose conforming time falls inside is at most ``burst + rate·(t-s)`` --
the property the hypothesis suite asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.feedback import FlowControlPunctuation
from repro.errors import ServingError

__all__ = [
    "AdmissionController",
    "TenantPolicy",
    "TokenBucket",
]


class TokenBucket:
    """A reservation token bucket: overload becomes delay, not drops.

    ``rate`` is the sustained admission rate (tokens/second refill) and
    ``burst`` the bucket depth (requests admitted instantly from idle).
    ``reserve(now)`` debits one token and returns the non-negative delay
    until the request *conforms*; the caller sleeps that long before
    acting (serving: before putting the element on the flow's ingest
    channel), so a tenant flooding its connection simply queues behind
    its own allowance.
    """

    __slots__ = ("rate", "burst", "tokens", "stamped_at", "reservations")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ServingError(f"token bucket rate must be > 0, got {rate}")
        if burst < 1:
            raise ServingError(
                f"token bucket burst must be >= 1, got {burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamped_at = 0.0
        self.reservations = 0

    def _refill(self, now: float) -> None:
        if now > self.stamped_at:
            self.tokens = min(
                self.burst, self.tokens + (now - self.stamped_at) * self.rate
            )
            self.stamped_at = now

    def peek(self, now: float) -> float:
        """The delay :meth:`reserve` would return, without reserving."""
        tokens = self.tokens
        if now > self.stamped_at:
            tokens = min(
                self.burst, tokens + (now - self.stamped_at) * self.rate
            )
        if tokens >= 1.0:
            return 0.0
        return (1.0 - tokens) / self.rate

    def reserve(self, now: float, n: int = 1) -> float:
        """Debit ``n`` tokens; return seconds until the last one conforms.

        Always admits: a depleted bucket goes negative, so concurrent
        over-rate requests are serialised FIFO at exactly ``rate``.  A
        run of ``n`` is ``n`` requests arriving together: the bucket ends
        where ``n`` single reservations at ``now`` would leave it, and
        the delay is that of the last of them.
        """
        self._refill(now)
        self.tokens -= n
        self.reservations += n
        if self.tokens >= 0.0:
            return 0.0
        return -self.tokens / self.rate

    @property
    def exhausted(self) -> bool:
        """True while reservations are queued beyond the refill."""
        return self.tokens < 0.0


@dataclass(frozen=True)
class TenantPolicy:
    """Declarative per-tenant limits.

    ``rate``/``burst`` parameterise the ingest token bucket;
    ``max_flows`` caps concurrently admitted flows (the hard resource a
    tenant can hold on the shared event loop).
    """

    rate: float = 500.0
    burst: float = 50.0
    max_flows: int = 8

    def __post_init__(self) -> None:
        if self.max_flows < 1:
            raise ServingError(
                f"max_flows must be >= 1, got {self.max_flows}"
            )
        TokenBucket(self.rate, self.burst)  # validate rate/burst

    def bucket(self) -> TokenBucket:
        return TokenBucket(self.rate, self.burst)


@dataclass
class TenantState:
    """One tenant's live admission state (internal)."""

    policy: TenantPolicy
    bucket: TokenBucket
    flows: set[str] = field(default_factory=set)
    delayed: int = 0
    delay_total: float = 0.0
    paused: bool = False


class AdmissionController:
    """Admission decisions for every tenant sharing one serving process.

    Pure policy: the supervisor calls :meth:`admit_flow` /
    :meth:`release_flow` around a flow's lifetime and :meth:`reserve`
    per ingested element, honouring the returned delay.  Fairness falls
    out of isolation -- each tenant debits only its own bucket, so one
    tenant's burst cannot consume another's allowance (the property
    suite asserts both bounds).

    Bucket exhausted/recovered transitions are recorded in
    :attr:`control_log` as pause/resume
    :class:`~repro.core.feedback.FlowControlPunctuation` on the virtual
    ``tenant-><controller>`` edge -- the same vocabulary the in-plan
    watermarks speak, extended to the client boundary.
    """

    def __init__(
        self,
        default_policy: TenantPolicy | None = None,
        *,
        name: str = "serving",
    ) -> None:
        self.name = name
        self.default_policy = default_policy or TenantPolicy()
        self._tenants: dict[str, TenantState] = {}
        self.control_log: list[FlowControlPunctuation] = []

    def set_policy(self, tenant: str, policy: TenantPolicy) -> None:
        """Provision ``tenant`` explicitly (otherwise: default policy).

        Must happen before the tenant's first admission; re-provisioning
        a live tenant would invalidate its bucket state.
        """
        if tenant in self._tenants:
            raise ServingError(
                f"tenant {tenant!r} is already provisioned; set policies "
                f"before first admission"
            )
        self._tenants[tenant] = TenantState(policy, policy.bucket())

    def _state(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = TenantState(
                self.default_policy, self.default_policy.bucket()
            )
            self._tenants[tenant] = state
        return state

    @property
    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def flows_of(self, tenant: str) -> set[str]:
        return set(self._state(tenant).flows)

    # -- flow admission ----------------------------------------------------------

    def admit_flow(self, tenant: str, flow_name: str) -> None:
        """Admit a flow or raise when the tenant is at ``max_flows``."""
        state = self._state(tenant)
        if flow_name in state.flows:
            raise ServingError(
                f"tenant {tenant!r} already runs a flow named {flow_name!r}"
            )
        if len(state.flows) >= state.policy.max_flows:
            raise ServingError(
                f"tenant {tenant!r} is at its limit of "
                f"{state.policy.max_flows} concurrent flow(s); release one "
                f"before admitting {flow_name!r}"
            )
        state.flows.add(flow_name)

    def release_flow(self, tenant: str, flow_name: str) -> None:
        self._state(tenant).flows.discard(flow_name)

    # -- rate admission ----------------------------------------------------------

    def reserve(self, tenant: str, now: float, n: int = 1) -> float:
        """Reserve ``n`` ingest slots; returns the last one's delay.

        Counts and logs what ``n`` single reservations at ``now`` would:
        every element that found the bucket empty is ``delayed`` by its
        own conforming delay, the resume punctuation is logged when the
        first of them finds the bucket refilled, and the pause when one
        pushes it into exhaustion.
        """
        state = self._state(tenant)
        bucket = state.bucket
        delay = bucket.reserve(now, n)
        late = 0
        if delay > 0.0:
            # The last element waits out the whole debt, the one before
            # it one token less, ... down to the first that found no
            # token left.
            debt = -bucket.tokens
            late = min(n, math.ceil(debt))
            state.delay_total += (
                late * debt - late * (late - 1) / 2
            ) / bucket.rate
        if late < n and state.paused:
            state.paused = False
            self.control_log.append(
                FlowControlPunctuation.resume(
                    f"{tenant}->{self.name}", issuer=self.name,
                    issued_at=now,
                )
            )
        if late and not state.paused:
            state.paused = True
            self.control_log.append(
                FlowControlPunctuation.pause(
                    f"{tenant}->{self.name}", issuer=self.name,
                    issued_at=now, occupancy=state.delayed + 1,
                )
            )
        state.delayed += late
        return delay

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-tenant counters for ``/metrics`` and status endpoints."""
        return {
            tenant: {
                "flows": len(state.flows),
                "max_flows": state.policy.max_flows,
                "rate": state.policy.rate,
                "burst": state.policy.burst,
                "reservations": state.bucket.reservations,
                "delayed": state.delayed,
                "delay_total": state.delay_total,
                "paused": state.paused,
            }
            for tenant, state in sorted(self._tenants.items())
        }
