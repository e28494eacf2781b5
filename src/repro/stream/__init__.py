"""Stream substrate: schemas, tuples, pages, queues, control, clocks.

This package is the foundation layer (S1 in ``docs/architecture.md``):
the inter-operator connection structure of the paper's Figure 3 -- page
queues (section 5, now optionally watermark-bounded for backpressure)
paired with bidirectional out-of-band control channels.  Everything here
is engine-agnostic and carries no query or feedback semantics of its
own.  Higher layers build on it:

* :mod:`repro.punctuation` defines patterns and embedded punctuation;
* :mod:`repro.core` defines feedback punctuation and its correctness rules;
* :mod:`repro.operators` implement the query algebra;
* :mod:`repro.engine` drives plans on a virtual or wall clock.
"""

from repro.stream.channels import Broadcast, Channel, Subscription
from repro.stream.clock import Clock, VirtualClock, WallClock
from repro.stream.control import (
    ControlChannel,
    ControlMessage,
    ControlMessageKind,
    Direction,
)
from repro.stream.pages import DEFAULT_PAGE_SIZE, Page
from repro.stream.queues import DataQueue
from repro.stream.schema import Attribute, AttributeOrigin, Schema, SchemaMapping
from repro.stream.tuples import StreamTuple
from repro.stream.waiters import ThreadConditionWaiter

__all__ = [
    "Attribute",
    "AttributeOrigin",
    "Broadcast",
    "Channel",
    "Clock",
    "ControlChannel",
    "ControlMessage",
    "ControlMessageKind",
    "DataQueue",
    "DEFAULT_PAGE_SIZE",
    "Direction",
    "Page",
    "Schema",
    "SchemaMapping",
    "StreamTuple",
    "Subscription",
    "ThreadConditionWaiter",
    "VirtualClock",
    "WallClock",
]
