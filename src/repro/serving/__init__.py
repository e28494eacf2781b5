"""The network-native serving layer: always-on flows as a service.

This package turns the asyncio engine into a long-running service
(docs/serving.md): flows declared with ``flow.ingest(schema)`` sources
and ``.push()`` delivery terminals are admitted to a
:class:`FlowSupervisor` (per-tenant admission control, bounded-backoff
restarts, graceful drain) and served over one listening socket by a
:class:`StreamServer` -- HTTP POST ingest, SSE and websocket push
delivery, ``/metrics`` in Prometheus text, ``/healthz`` readiness.

The stack is pure stdlib asyncio.

Layering, bottom up: :mod:`~repro.serving.wire` (HTTP/SSE/RFC 6455
codecs) → :mod:`~repro.serving.codec` (JSON ⇄ StreamTuple) →
:mod:`~repro.serving.tenancy` (pure admission policy) →
:mod:`~repro.serving.supervisor` (flow lifecycle, socket-free) →
:mod:`~repro.serving.server` (network front-end) with
:mod:`~repro.serving.client` as the matching client side.
"""

from repro.serving.codec import (
    tuple_from_json,
    tuple_to_json,
    tuples_from_body,
)
from repro.serving.metrics import render_prometheus
from repro.serving.server import ServingConfig, StreamServer, serve
from repro.serving.supervisor import FlowState, FlowSupervisor, ManagedFlow
from repro.serving.tenancy import (
    AdmissionController,
    TenantPolicy,
    TokenBucket,
)

__all__ = [
    "AdmissionController",
    "FlowState",
    "FlowSupervisor",
    "ManagedFlow",
    "ServingConfig",
    "StreamServer",
    "TenantPolicy",
    "TokenBucket",
    "render_prometheus",
    "serve",
    "tuple_from_json",
    "tuple_to_json",
    "tuples_from_body",
]
