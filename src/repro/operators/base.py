"""Operator framework: ports, control handling, guards, feedback hooks.

Operators follow NiagaraST's execution model (paper section 5): each
operator owns input data queues (pages of tuples and embedded punctuation)
paired with bidirectional control channels.  Control is out-of-band and high
priority -- engines always drain an operator's pending control messages
before handing it data pages.

The feedback roles of section 3 map onto this class as follows:

* **exploiter** -- :meth:`receive_feedback` dispatches to the per-intent
  hooks (:meth:`on_assumed`, :meth:`on_desired`, :meth:`on_demanded`).  The
  default assumed-response installs an **output guard**, which is correct
  for every operator (it yields exactly ``SR - subset(SR, f)`` on the
  guarded output, the maximum exploitation permitted by Definition 1).
  Stateful operators override the hook to add input guards and state
  purging where their semantics allow (Tables 1-2).
* **relayer** -- :meth:`relay_feedback` uses the operator's
  :class:`~repro.stream.schema.SchemaMapping` and the safe-propagation
  planner (Definition 2).  Operators with state-dependent propagation
  (e.g. COUNT under ``¬[*, >=a]``) override it.
* **producer** -- operators call :meth:`produce_feedback` when they discover
  an opportunity (PACE's divergence bound, THRIFTY JOIN's empty windows).

Feedback-unaware operators (``feedback_aware = False``, the default) ignore
feedback and cannot relay it -- exactly the paper's incremental-deployment
story (section 5, "Feedback Support").
"""

from __future__ import annotations

import abc
import math
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.feedback import (
    CheckpointPunctuation,
    FeedbackIntent,
    FeedbackPunctuation,
    RebalancePunctuation,
)
from repro.core.guards import GuardSet
from repro.core.propagation import PropagationPlanner
from repro.core.roles import ExploitAction, FeedbackLog
from repro.engine.metrics import OperatorMetrics
from repro.errors import FeedbackError, PlanError
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.control import (
    ControlChannel,
    ControlMessage,
    ControlMessageKind,
    Direction,
)
from repro.stream.pages import Page
from repro.stream.queues import DataQueue
from repro.stream.schema import Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = [
    "InputPort", "OutputEdge", "Operator", "SourceCursor", "SourceOperator",
]


class InputPort:
    """One input of an operator: data queue, control channel, guards."""

    __slots__ = ("index", "queue", "control", "producer", "guards", "done")

    def __init__(
        self,
        index: int,
        queue: DataQueue,
        control: ControlChannel,
        producer: "Operator | None",
    ) -> None:
        self.index = index
        self.queue = queue
        self.control = control
        self.producer = producer
        self.guards = GuardSet(f"input[{index}]")
        self.done = False  # producer closed and queue drained

    def __repr__(self) -> str:
        who = self.producer.name if self.producer else "<external>"
        return f"InputPort({self.index}, from={who}, done={self.done})"


class OutputEdge:
    """One downstream connection: data queue, control channel, consumer."""

    __slots__ = ("queue", "control", "consumer", "consumer_port")

    def __init__(
        self,
        queue: DataQueue,
        control: ControlChannel,
        consumer: "Operator",
        consumer_port: int,
    ) -> None:
        self.queue = queue
        self.control = control
        self.consumer = consumer
        self.consumer_port = consumer_port

    def __repr__(self) -> str:
        return f"OutputEdge(to={self.consumer.name}[{self.consumer_port}])"


class _DetachedRuntime:
    """The runtime surface operators see, with no scheduler behind it.

    These names are everything an operator asks of ``self.runtime``.
    Unit tests and the :class:`~repro.engine.harness.OperatorHarness`
    drive operators directly through this stub, and the stages of a
    fused composite run on one; the engines replace it at start-up with
    the live :class:`~repro.engine.runtime.RuntimeCore`, which answers
    to the same names.
    """

    #: No checkpoint coordinator and no plan outside a run.
    checkpoints = None
    plan = None

    def __init__(self) -> None:
        self.feedback_log = FeedbackLog()

    def now(self) -> float:
        return 0.0

    def notify_control(
        self, operator: "Operator", at: float | None = None
    ) -> None:
        """A control message was queued for ``operator``; engines schedule it."""

    def is_paused(self, operator: "Operator") -> bool:
        return False

    def apply_flow_control(
        self, operator: "Operator", punct: Any, from_edge: "OutputEdge | None"
    ) -> None:
        """Nobody to stall: the operator only hears of the pause or resume."""
        if punct.is_pause:
            operator.on_pause(punct, from_edge)
        else:
            operator.on_resume(punct, from_edge)


class Operator(abc.ABC):
    """Base class for every query operator.

    Data reaches an operator one way: :meth:`process_page` walks the
    page and hands each run of tuples to :meth:`on_page`.  Subclasses
    implement :meth:`on_page` -- or, when there is nothing to gain from
    seeing the run at once, the per-tuple convenience :meth:`on_tuple`
    the default ``on_page`` loops over; never both.  They may override
    :meth:`on_punctuation` (default: forward), the feedback hooks, and
    the lifecycle hooks :meth:`on_start`, :meth:`on_input_done`,
    :meth:`on_finish`.

    Cost model: ``tuple_cost`` / ``punctuation_cost`` / ``control_cost``
    are virtual seconds charged by the simulator per element or message;
    :meth:`cost_of` may be overridden for data-dependent costs (IMPUTE's
    archival lookups).
    """

    #: Number of input streams (0 for sources, 2 for joins).
    n_inputs: int = 1
    #: Whether this operator understands feedback punctuation at all.
    feedback_aware: bool = False
    #: Whether assumed feedback is forwarded upstream when safely mappable.
    relay_enabled: bool = True

    def __init__(
        self,
        name: str,
        output_schema: Schema | None,
        *,
        mapping: SchemaMapping | None = None,
        tuple_cost: float = 0.0,
        punctuation_cost: float = 0.0,
        control_cost: float = 0.0,
    ) -> None:
        if not name:
            raise PlanError("operator requires a non-empty name")
        self.name = name
        self.output_schema = output_schema
        self.mapping = mapping
        self.tuple_cost = float(tuple_cost)
        self.punctuation_cost = float(punctuation_cost)
        self.control_cost = float(control_cost)
        self.inputs: list[InputPort | None] = [None] * self.n_inputs
        self.outputs: list[OutputEdge] = []
        self.output_guards = GuardSet("output")
        self.metrics = OperatorMetrics()
        self.runtime: Any = _DetachedRuntime()
        self.finished = False
        self._planner: PropagationPlanner | None = (
            PropagationPlanner(mapping) if mapping is not None else None
        )

    # ------------------------------------------------------------------ wiring

    def attach_input(
        self,
        port_index: int,
        queue: DataQueue,
        control: ControlChannel,
        producer: "Operator | None",
    ) -> InputPort:
        if not 0 <= port_index < self.n_inputs:
            raise PlanError(
                f"{self.name}: input port {port_index} out of range "
                f"(operator has {self.n_inputs} inputs)"
            )
        if self.inputs[port_index] is not None:
            raise PlanError(
                f"{self.name}: input port {port_index} already connected"
            )
        port = InputPort(port_index, queue, control, producer)
        self.inputs[port_index] = port
        return port

    def attach_output(self, edge: OutputEdge) -> None:
        self.outputs.append(edge)

    def input_port(self, index: int) -> InputPort:
        port = self.inputs[index]
        if port is None:
            raise PlanError(f"{self.name}: input port {index} not connected")
        return port

    @property
    def connected(self) -> bool:
        return all(p is not None for p in self.inputs)

    # ------------------------------------------------------------------ time

    _now: float = 0.0

    def now(self) -> float:
        """Virtual (or wall) time at the current processing step."""
        return self._now

    def set_now(self, timestamp: float) -> None:
        """Engines stamp the operator's clock before each callback."""
        self._now = timestamp

    # ---------------------------------------------------------------- costs

    #: Cost of evaluating input guards against a tuple that gets dropped.
    #: Kept near zero: guard evaluation is a pattern match, vastly cheaper
    #: than the work it avoids (that asymmetry *is* the savings mechanism).
    guard_check_cost: float = 0.0

    def cost_of(self, element: Any) -> float:
        """Virtual processing cost of one stream element."""
        if element.is_punctuation:
            return self.punctuation_cost
        return self.tuple_cost

    def admission_cost(self, port_index: int, element: Any) -> float:
        """Cost the engine charges for delivering one element.

        Guard-dropped tuples cost ``guard_check_cost`` instead of the full
        processing cost -- dropping a tuple at the guard is the whole point
        of exploiting assumed feedback.
        """
        if element.is_punctuation:
            return self.punctuation_cost
        port = self.inputs[port_index]
        if port is not None and port.guards.would_block(element):
            return self.guard_check_cost
        return self.cost_of(element)

    def page_cost(self, port_index: int, page: Iterable[Any]) -> float:
        """Modeled cost of one whole page: the sum of its admission costs.

        What a wall-clock engine sleeps under ``emulate_costs`` before
        delivering the page (the simulator charges element by element
        instead, through :meth:`process_page`'s ``meter``).
        """
        return sum(
            self.admission_cost(port_index, element) for element in page
        )

    @property
    def needs_metering(self) -> bool:
        """Whether engines must charge this operator's cost per element.

        False (the common case: every cost knob is zero and no cost hook
        is overridden) lets a virtual-time engine hand whole pages to
        :meth:`process_page` without a per-element meter -- the clock
        cannot move during the page, so batch dispatch is timing-exact.
        """
        return (
            self.tuple_cost != 0.0
            or self.punctuation_cost != 0.0
            or self.guard_check_cost != 0.0
            or type(self).cost_of is not Operator.cost_of
            or type(self).admission_cost is not Operator.admission_cost
        )

    # ------------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        """Called once before any element is delivered."""

    def on_input_done(self, port_index: int) -> None:
        """Called when one input is closed and fully drained."""

    def on_finish(self) -> None:
        """Called when all inputs are done; emit any final results here."""

    def on_run_aborted(self, error: BaseException) -> None:
        """Called when the run fails before this operator finished.

        Engines invoke this on every unfinished operator when a run
        raises (watchdog timeout, action error, operator exception), so
        operators holding external parties -- e.g. client coroutines
        awaiting an :class:`~repro.operators.sink.AwaitableSink` -- can
        fail them instead of leaving them parked forever.  Default: no-op.
        """

    def _close_inputs(
        self, at: float | None = None, *, declared: bool = False
    ) -> bool:
        """Mark ended input ports done, firing :meth:`on_input_done` once
        for each; True when every connected input is done.

        A port has ended when its queue is exhausted -- or, with
        ``declared``, because the caller says the stream is over (the
        harness, a composite ending its stages).  A port still
        mid-checkpoint-alignment (a marker head pending, or stashed
        elements behind one) is not done yet even so: the stash must be
        delivered before ``on_input_done`` (a join would otherwise pad
        early).  Marking one port may release sibling ports' stashes,
        hence the re-scan.  ``at`` stamps the operator's clock first.
        """
        all_done = True
        progressed = True
        while progressed:
            progressed = False
            all_done = True
            for port in self.inputs:
                if port is None:
                    continue
                if (
                    not port.done
                    and (declared or port.queue.exhausted)
                    and not self._ckpt_port_busy(port.index)
                ):
                    port.done = True
                    if at is not None:
                        self.set_now(at)
                    self._ckpt_port_done(port.index)
                    self.on_input_done(port.index)
                    progressed = True
                all_done = all_done and port.done
        return all_done

    def _finish(self) -> None:
        """End of stream: :meth:`on_finish` runs once, already
        ``finished``, and the outputs close behind its last emissions."""
        self.finished = True
        self.on_finish()
        for edge in self.outputs:
            edge.queue.close()

    #: Names of the attributes that are this operator's state: what a
    #: checkpoint carries and a worker process ships back.  A subclass
    #: extends its parent's (``Parent.state_fields + (...)``).
    state_fields: tuple[str, ...] = ()

    def snapshot_state(self) -> dict[str, Any]:
        """The operator's state, by attribute name (:attr:`state_fields`).

        Both customers pickle the dict at once -- the checkpoint
        coordinator when a marker passes, the multiprocess engine when a
        worker ships its final state back for the coordinator's plan
        copy -- so it holds the live containers, not copies.  Override
        (chaining to ``super()``) only where a value must be translated
        on the way out or in.
        """
        return {name: getattr(self, name) for name in self.state_fields}

    def restore_state(self, state: dict[str, Any]) -> None:
        """Apply an unpickled :meth:`snapshot_state` dict onto this instance."""
        for name in self.state_fields:
            setattr(self, name, state[name])

    @classmethod
    def carries_state(cls) -> bool:
        """Whether a checkpoint of this class has anything to carry."""
        return bool(cls.state_fields) or (
            cls.snapshot_state is not Operator.snapshot_state
        )

    # --------------------------------------------------------- data handling

    #: Whether this class overrides :meth:`on_guarded_drops`, decided once
    #: per class: only then does an input-guard pass build the list of
    #: dropped tuples (:meth:`_dispatch_batch`).
    _sees_guarded_drops = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Refuse a class whose :meth:`on_tuple` could never run, and note
        whether it wants to see guard-dropped tuples.

        :meth:`on_tuple` is only reached through the *default*
        :meth:`on_page`; once a class (or an ancestor) supplies its own
        ``on_page``, an ``on_tuple`` defined beside or below it would be
        silently ignored -- so it is an error at class creation.
        """
        super().__init_subclass__(**kwargs)
        cls._sees_guarded_drops = (
            cls.on_guarded_drops is not Operator.on_guarded_drops
        )
        if "on_tuple" not in vars(cls):
            return
        for klass in cls.__mro__:
            if klass is not Operator and "on_page" in vars(klass):
                raise TypeError(
                    f"{cls.__name__} defines on_tuple, but "
                    f"{klass.__name__} defines on_page, which would "
                    f"never call it; override on_page instead"
                )

    def process_page(
        self,
        port_index: int,
        page: Iterable[Any],
        *,
        meter: Callable[[Any], None] | None = None,
    ) -> None:
        """The only way data reaches an operator: one page on one input.

        ``meter`` is the costed simulator's per-element accounting hook
        (cost charging, clock stamping).  When present the page is
        delivered one element at a time, each as a page of one right
        after ``meter(element)``, so emission times interleave with the
        metered clock; when absent the page is delivered whole.  Either
        way every element takes the same walk (:meth:`_deliver`) -- the
        page boundary carries no semantics.
        """
        metrics = self.metrics
        metrics.pages_in += 1
        if isinstance(page, Page):
            elements = page.elements
            punctuated = page.has_punctuation
        else:
            elements = list(page)
            punctuated = None
        if meter is None:
            metrics.pages_batched += 1
            self._deliver(port_index, elements, punctuated)
            return
        for element in elements:
            meter(element)
            self._deliver(port_index, [element], element.is_punctuation)

    def _deliver(
        self,
        port_index: int,
        elements: list,
        punctuated: bool | None = None,
    ) -> None:
        """Walk a list of elements: every data-plane protocol rule, once.

        ``punctuated`` says whether ``elements`` holds a punctuation or a
        marker -- a :class:`~repro.stream.pages.Page` knows
        (:attr:`~repro.stream.pages.Page.has_punctuation`); None, for a
        bare list (the harness, a fused link, a drained stash), scans.

        In order: a port blocked by checkpoint alignment stashes the
        elements raw (metrics are charged when the stash drains);
        checkpoint and rebalance markers are intercepted; punctuation
        expires the input guards it covers, then reaches
        :meth:`on_punctuation`; runs of tuples between punctuations are
        guard-filtered in bulk and handed to :meth:`on_page`.
        """
        heads = self._ckpt_heads
        if heads and port_index in heads:
            # Everything behind the pending marker belongs to a later
            # epoch and must wait.
            self._ckpt_blocked.setdefault(port_index, []).extend(elements)
            return
        guards = self.input_port(port_index).guards
        # Zero-copy fast path: a punctuation-free page hands its own
        # element list straight to the run dispatcher -- no re-buffering,
        # and no look at the elements either: the page's flag, kept as
        # the page was filled, answers for them.  (Queue-built pages can
        # only carry a punctuation at the tail, but hand-built and
        # codec-decoded pages may interleave them, so the split below
        # stays fully general.  Checkpoint markers are punctuation, so
        # they set the flag and can never slip through this fast path.)
        if punctuated is None:
            punctuated = any(e.is_punctuation for e in elements)
        if not punctuated:
            if elements:
                self._dispatch_batch(port_index, guards, elements)
            return
        batch: list = []
        for position, element in enumerate(elements):
            if not element.is_punctuation:
                batch.append(element)
                continue
            if batch:
                self._dispatch_batch(port_index, guards, batch)
                batch = []
            if isinstance(element, CheckpointPunctuation):
                self._on_checkpoint_marker(port_index, element)
                heads = self._ckpt_heads
                if heads and port_index in heads:
                    # The marker blocked this port mid-page: the page's
                    # remainder waits behind it in the stash.
                    self._ckpt_blocked.setdefault(port_index, []).extend(
                        elements[position + 1:]
                    )
                    return
            elif isinstance(element, RebalancePunctuation):
                # Rebalance markers never block a port (lane members
                # are single-input by eligibility), so no remainder
                # stashing is needed here.
                self._on_rebalance_marker(port_index, element)
            else:
                self.metrics.punctuations_in += 1
                released = guards.expire_with(element)
                if released:
                    self.on_guards_expired(port_index, element, released)
                self.on_punctuation(port_index, element)
        if batch:
            self._dispatch_batch(port_index, guards, batch)

    def _dispatch_batch(
        self, port_index: int, guards: GuardSet, batch: list
    ) -> None:
        """Guard-filter one run of data tuples and hand survivors to
        :meth:`on_page`.

        One :meth:`~repro.core.guards.GuardSet.keep` pass per run: each
        guard is its pattern's compiled run filter, the same ``and``-chain
        ``Pattern.matches`` evaluates, so a guard costs what a query
        predicate costs and a dropped tuple costs nothing further.  A
        class that overrides :meth:`on_guarded_drops` takes the
        :meth:`~repro.core.guards.GuardSet.filter_batch` pass instead,
        which also builds the dropped list it is handed.
        """
        metrics = self.metrics
        metrics.tuples_in += len(batch)
        if not len(guards):
            kept = batch
        elif self._sees_guarded_drops:
            kept, dropped = guards.filter_batch(batch)
            if dropped:
                metrics.input_guard_drops += len(dropped)
                self.on_guarded_drops(port_index, dropped)
        else:
            kept, count = guards.keep(batch)
            metrics.input_guard_drops += count
        if kept:
            self.on_page(port_index, kept)

    def on_page(self, port_index: int, batch: list) -> None:
        """The data hook: process a run of guard-surviving tuples.

        ``batch`` is a non-empty list of data tuples that arrived
        consecutively on ``port_index`` -- no punctuation, no markers,
        already filtered by the port's input guards.  It may be the
        page's own element buffer (the zero-copy fast path): treat it as
        read-only.  Where runs are cut is an engine detail (page size,
        punctuation density, metering), so an implementation must give
        the same results however the stream is sliced -- down to one
        tuple per call.

        Operators override this with one pass and bulk emission.  The
        default loops over :meth:`on_tuple`, the convenience hook for
        operators with nothing to gain from seeing the run at once.
        """
        for tup in batch:
            self.on_tuple(port_index, tup)

    def on_tuple(self, port_index: int, tup: StreamTuple) -> None:
        """Process one data tuple (called by the default :meth:`on_page`).

        Implement this *or* override :meth:`on_page`, never both.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither on_page nor on_tuple"
        )

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        """Process one embedded punctuation.  Default: forward it.

        Stateless unary operators keep this default; stateful operators
        override it to close windows / purge state first.
        """
        self.emit_punctuation(punct)

    def on_guarded_drops(self, port_index: int, dropped: list) -> None:
        """Hook invoked with the tuples of one run an input guard suppressed,
        in stream order.  Only a class that overrides it pays for building
        that list."""

    def on_guards_expired(
        self, port_index: int, punct: Punctuation, released: list
    ) -> None:
        """Hook invoked when punctuation released input guards."""

    # ------------------------------------------------- checkpoint alignment

    #: Chandy-Lamport alignment state for multi-input operators, lazily
    #: created on the first marker: ``_ckpt_heads`` maps a blocked input
    #: port to the marker waiting on it; ``_ckpt_blocked`` maps a port to
    #: the post-marker elements stashed behind that head.  ``None`` on
    #: single-input operators and whenever checkpointing is off.
    _ckpt_heads: "dict[int, CheckpointPunctuation] | None" = None
    _ckpt_blocked: "dict[int, list] | None" = None

    def _on_checkpoint_marker(
        self, port_index: int, marker: CheckpointPunctuation
    ) -> None:
        """A checkpoint marker reached this operator on ``port_index``.

        Single-input operators complete the cut immediately.  Multi-input
        operators block the port (its marker becomes the *head*) until
        every other live port's marker arrives -- the aligned cut -- at
        which point :meth:`_ckpt_pump` snapshots and releases.  Elements
        the marker overtakes inside this operator (a partition's lane
        stash, a buffer's pending heap) need no alignment: they are part
        of the snapshot itself.
        """
        if self.n_inputs <= 1:
            self._ckpt_complete(marker)
            return
        if self._ckpt_heads is None:
            self._ckpt_heads = {}
            self._ckpt_blocked = {}
        self._ckpt_heads[port_index] = marker
        self._ckpt_pump()

    def _ckpt_pump(self) -> None:
        """Complete every checkpoint the current heads allow.

        Completing an epoch drains each released port's stash through
        :meth:`_deliver`.  The walk may surface the *next* epoch's marker,
        which re-blocks the port (re-stashing whatever followed it) and
        re-enters this pump; that inner call stalls while any sibling
        port released here is still undrained (it is live and has no
        head), so epochs complete strictly in order.
        """
        heads = self._ckpt_heads
        blocked = self._ckpt_blocked
        while heads:
            live = [
                p for p in self.inputs if p is not None and not p.done
            ]
            if any(p.index not in heads for p in live):
                return
            epoch = min(m.epoch for m in heads.values())
            marker = next(
                m for m in heads.values() if m.epoch == epoch
            )
            released = [
                i for i, m in list(heads.items()) if m.epoch == epoch
            ]
            for index in released:
                del heads[index]
            self._ckpt_complete(marker)
            for index in released:
                stash = blocked.pop(index, None)
                if stash:
                    self._deliver(index, stash)

    def _ckpt_complete(self, marker: CheckpointPunctuation) -> None:
        """The aligned cut passed this operator: snapshot and sweep on.

        The marker goes out raw on every output edge, behind all pre-cut
        tuples (and ahead of anything an operator holds back inside
        itself, which the snapshot carries).  At a terminal sink the
        sweep ends: the epoch is complete plan-wide, so a CHECKPOINT
        acknowledgement travels back upstream to the sources.
        """
        checkpoints = self.runtime.checkpoints
        if checkpoints is not None:
            checkpoints.snapshot(self, marker)
        if self.outputs:
            self._emit([marker])
            return
        self._send_upstream(ControlMessageKind.CHECKPOINT, marker)

    def _ckpt_port_busy(self, port_index: int) -> bool:
        """Is ``port_index`` still mid-alignment (head pending or stash
        non-empty)?  A busy port must not be marked done yet."""
        heads = self._ckpt_heads
        if heads and port_index in heads:
            return True
        blocked = self._ckpt_blocked
        return bool(blocked and blocked.get(port_index))

    def _ckpt_port_done(self, port_index: int) -> None:
        """Runtime hook: ``port_index`` was just marked done.

        Shrinking the live set may satisfy alignment for the remaining
        heads (a finished source never sends its next marker), so pump.
        """
        if self._ckpt_heads is not None:
            self._ckpt_pump()

    # ------------------------------------------------- elastic rebalancing

    def rebalance_migratable(self, key_names: Sequence[str]) -> str | None:
        """Can this operator's state migrate between shard lanes?

        Returns None when it can, else a human-readable decline reason
        (the elastic controller records it and leaves the region alone).
        The default says yes for stateless operators -- nothing to move
        -- and no for any operator that snapshots state but offers no
        keyed extraction seam: migrating a slice of opaque state is not
        possible without one.
        """
        if self.n_inputs > 1:
            return "multi-input operator inside a shard lane"
        if (
            self.carries_state()
            and type(self).extract_keyed_state
            is Operator.extract_keyed_state
        ):
            return "stateful operator without a keyed-state seam"
        return None

    def extract_keyed_state(
        self,
        key_names: Sequence[str],
        route: Callable[[Sequence[Any]], "int | None"],
    ) -> dict[int, Any]:
        """Remove and return state for keys ``route`` sends elsewhere.

        ``route(key_values)`` returns the destination lane for moved
        keys and None for keys staying put.  The result maps destination
        lanes to opaque *blobs*; each blob should be a dict keyed by
        state key (the ledger sizes migrations by ``len(blob)``), and
        must round-trip through :meth:`install_keyed_state`.  Default:
        nothing to extract (stateless operators).
        """
        return {}

    def install_keyed_state(
        self, key_names: Sequence[str], blob: Any
    ) -> None:
        """Merge a blob from :meth:`extract_keyed_state` into this state.

        Must *accumulate* rather than overwrite: on the abort path a
        lane re-installs its own deposit on top of state it has since
        rebuilt from post-cut tuples.
        """

    def on_rebalance_control(self, message: ControlMessage) -> bool:
        """Handle a REBALANCE control message; False forwards it on.

        The partition overrides this (commands arrive downstream from
        the controller, acks upstream from the merge); every other
        operator relays hop-by-hop via :meth:`forward_control`.
        """
        return False

    def _on_rebalance_marker(
        self, port_index: int, marker: RebalancePunctuation
    ) -> None:
        """A rebalance marker reached this lane member in stream order.

        ``cut``: every pre-cut tuple on this lane is already folded into
        local state (the marker rides the data queue behind them), so
        extracting moved keys *now* captures exactly the pre-cut state;
        the partition holds moved-key tuples until the install, so this
        state cannot grow stale while banked.  ``install``: claim and
        merge deposits destined for this seat.  ``restore``: the
        rebalance aborted -- take back what this seat deposited.  The
        marker then sweeps on downstream (the merge terminates it).
        """
        record = marker.record
        if record is not None:
            position = record.positions.get(self.name)
            if position is not None:
                lane, member = position
                if marker.phase == "cut":
                    if not record.aborted:
                        extracted = self.extract_keyed_state(
                            record.key_names, record.dest_of
                        )
                        for dest, blob in sorted(extracted.items()):
                            if not record.deposit(
                                member, lane, dest, blob
                            ):
                                # Aborted between the check and the
                                # deposit (threaded race): keep the
                                # state where it was.
                                self.install_keyed_state(
                                    record.key_names, blob
                                )
                elif marker.phase == "install":
                    for blob in record.claim(member, lane):
                        self.install_keyed_state(record.key_names, blob)
                else:  # restore (abort path)
                    for blob in record.reclaim(member, lane):
                        self.install_keyed_state(record.key_names, blob)
        self._emit([marker])

    # -------------------------------------------------------------- emission

    def _emit(
        self,
        elements: Sequence[Any],
        lane: int | None = None,
        raw: bool = False,
        hold: bool = False,
    ) -> Sequence[Any]:
        """Put one run on the output edges: every data-out rule, once.

        What :meth:`_deliver` is to data coming in.  ``elements`` is a
        run of data tuples, or one punctuation or marker on its own --
        the shape :meth:`~repro.engine.runtime.RuntimeCore.
        dispatch_source_run` hands out; ``lane`` is the one output edge
        to use, None for every edge.

        Tuples pass the output guards in one batched pass and count as
        ``tuples_out`` or ``output_guard_drops``; a punctuation expires
        the output guards it covers (that subset of the output is
        complete, so they can never fire again) and counts as
        ``punctuations_out``; a checkpoint or rebalance marker goes out
        raw.  ``raw`` sends elements that already passed these rules (a
        stash being released) as they are; ``hold`` applies the rules
        and puts nothing, for a caller that keeps what passed
        (PARTITION's paused lanes).  Returns what passed: the surviving
        tuples, or the punctuation or marker.
        """
        punctuated = elements and elements[0].is_punctuation
        if not raw:
            if not punctuated:
                guards = self.output_guards
                if len(guards):
                    elements, count = guards.keep(elements)
                    self.metrics.output_guard_drops += count
                self.metrics.tuples_out += len(elements)
            elif isinstance(elements[0], Punctuation):
                self.output_guards.expire_with(elements[0])
                self.metrics.punctuations_out += 1
        if hold or not elements:
            return elements
        for edge in self.outputs if lane is None else (self.outputs[lane],):
            edge.queue.put_many(elements)
        return elements

    def emit(self, tup: StreamTuple) -> bool:
        """Send a result tuple on every output; False when an output guard
        suppressed it.  :meth:`_emit` of a run of one."""
        return bool(self._emit([tup]))

    def emit_to(self, output_index: int, tup: StreamTuple) -> bool:
        """:meth:`emit` on a single output (multi-output operators)."""
        return bool(self._emit([tup], output_index))

    def emit_many(self, tuples: Sequence[StreamTuple]) -> int:
        """Send a run of result tuples on every output; returns how many
        passed the output guards.  The bulk emission native
        :meth:`on_page` bodies use: :meth:`_emit` itself."""
        return len(self._emit(tuples))

    def emit_many_to(
        self, output_index: int, tuples: Sequence[StreamTuple]
    ) -> int:
        """:meth:`emit_many` on a single output (PARTITION's lanes)."""
        return len(self._emit(tuples, output_index))

    def emit_punctuation(self, punct: Punctuation) -> None:
        """Send an embedded punctuation on every output (it flushes the
        open pages), expiring the output guards it covers."""
        self._emit([punct])

    def flush_outputs(self) -> None:
        """Seal and ship partially-filled output pages immediately.

        Demanded feedback and result requests carry "produce *now*"
        semantics; results emitted in response must not sit in an open
        page waiting for it to fill (the same latency problem NiagaraST
        solves by letting punctuation flush pages).  A pause flushes
        first too, so the consumer can drain to its low-water mark.
        """
        for edge in self.outputs:
            edge.queue.flush()

    # ----------------------------------------------------- feedback: produce

    def produce_feedback(
        self,
        feedback: FeedbackPunctuation,
        *,
        input_indices: Sequence[int] | None = None,
        note: str = "produced",
    ) -> None:
        """Issue feedback upstream on the given inputs (default: all).

        The feedback pattern must be phrased in terms of the target input's
        stream schema -- for unary operators that is this operator's input
        schema; producers of cross-input feedback pass explicit indices.
        The one place feedback originates: ``note`` says who asked for it
        (``"injected"`` by a client event, ``"demanded by client"``).
        """
        self.metrics.feedback_produced += 1
        self.runtime.feedback_log.record(
            self.now(), self.name, feedback, (), note=note
        )
        self._send_upstream(
            ControlMessageKind.FEEDBACK, feedback, input_indices
        )

    def _send_upstream(
        self,
        kind: ControlMessageKind,
        payload: Any,
        input_indices: Sequence[int] | None = None,
    ) -> None:
        """Send one control message to the given inputs (default: every
        connected input), stamped now, and wake their producers."""
        ports = (
            self.inputs if input_indices is None
            else [self.input_port(index) for index in input_indices]
        )
        for port in ports:
            if port is not None:
                port.control.stamp(
                    kind, Direction.UPSTREAM, payload, sender=self.name,
                    at=self.now(), runtime=self.runtime, reader=port.producer,
                )

    def _send_downstream(self, kind: ControlMessageKind, payload: Any) -> None:
        """Send one control message to every consumer and wake them."""
        for edge in self.outputs:
            edge.control.stamp(
                kind, Direction.DOWNSTREAM, payload, sender=self.name,
                at=self.now(), runtime=self.runtime, reader=edge.consumer,
            )

    def inject_feedback(self, feedback: FeedbackPunctuation) -> None:
        """Send client-originated feedback upstream from this operator.

        This is the entry point for *event-driven* feedback (section 3.3):
        an application event -- the user zooming the speed map, a poll --
        happens at this operator's seat in the plan and flows upstream like
        operator-discovered feedback.
        """
        # Injection happens at engine-clock time (a client action), which
        # may be ahead of this operator's last processing step.
        self.set_now(max(self._now, self.runtime.now()))
        self.produce_feedback(feedback, note="injected")

    def request_results(self, pattern: Pattern | None = None) -> None:
        """Send a RESULT_REQUEST upstream on every input (Example 4)."""
        self._send_upstream(ControlMessageKind.RESULT_REQUEST, pattern)

    # ------------------------------------------------------- control: receive

    def _receive(
        self, message: ControlMessage, from_edge: "OutputEdge | None" = None
    ) -> Any:
        """Take one control message: every control-kind rule, once.

        What :meth:`_deliver` is to data.  Whoever holds an *arrived*
        message hands it here -- :meth:`~repro.engine.runtime.
        RuntimeCore.drain_control` on every engine, a composite's pump
        for its stages, the harness -- with the output edge it came up
        on (None for a notice from a producer).  Returns what the kind's
        hook answered (the exploit actions, for feedback).
        """
        self.metrics.control_messages += 1
        kind, payload = message.kind, message.payload
        if kind is ControlMessageKind.FEEDBACK and isinstance(
            payload, FeedbackPunctuation
        ):
            return self.receive_feedback(payload, from_edge=from_edge)
        if kind is ControlMessageKind.FLOW_CONTROL:
            # A runtime protocol, not a semantic hint: who is stalled is
            # the scheduler's to keep, whatever ``feedback_aware`` says.
            self.runtime.apply_flow_control(self, payload, from_edge)
        elif kind is ControlMessageKind.RESULT_REQUEST:
            self.on_result_request(payload)
        elif kind is ControlMessageKind.CHECKPOINT and isinstance(
            self, SourceOperator
        ):
            # A sink's epoch-completion acknowledgement, relayed hop by
            # hop, ends at a source: nothing further up to tell.
            if self.runtime.checkpoints is not None:
                self.runtime.checkpoints.acknowledge(self, payload)
        elif (
            kind is not ControlMessageKind.REBALANCE
            or not self.on_rebalance_control(message)
        ):
            # Nobody here consumes it, so it keeps travelling: a
            # checkpoint acknowledgement on its way up, a rebalance
            # command or acknowledgement the partition has not claimed
            # (every other operator walks it along the lane), explicit
            # END_OF_STREAM / SHUTDOWN (normally carried by queue
            # closure), a feedback payload or a whole kind this operator
            # predates.  Dropping it on the floor would strand it at the
            # first operator that does not understand it.
            self.forward_control(message)
        return None

    # ----------------------------------------------------- feedback: receive

    #: The output edge the feedback currently being handled arrived on
    #: (None when unknown).  Multi-output operators such as DUPLICATE need
    #: this to reconcile feedback across consumers before acting.
    feedback_source_edge: "OutputEdge | None" = None

    def receive_feedback(
        self,
        feedback: FeedbackPunctuation,
        from_edge: "OutputEdge | None" = None,
    ) -> list[ExploitAction]:
        """Engine entry point for feedback arriving from downstream.

        The pattern is phrased over this operator's *output* schema.
        Feedback-unaware operators ignore it (and cannot relay it).
        """
        self.feedback_source_edge = from_edge
        self.metrics.feedback_received += 1
        if self.output_schema is not None and (
            feedback.pattern.arity != len(self.output_schema)
        ):
            raise FeedbackError(
                f"{self.name}: feedback {feedback!r} has arity "
                f"{feedback.pattern.arity}, output schema has "
                f"{len(self.output_schema)}"
            )
        if not self.feedback_aware:
            self.metrics.feedback_ignored += 1
            self.runtime.feedback_log.record(
                self.now(), self.name, feedback, (ExploitAction.IGNORE,),
                note="feedback-unaware",
            )
            return [ExploitAction.IGNORE]
        if feedback.intent is FeedbackIntent.ASSUMED:
            actions = list(self.on_assumed(feedback))
        elif feedback.intent is FeedbackIntent.DESIRED:
            actions = list(self.on_desired(feedback))
        else:
            actions = list(self.on_demanded(feedback))
        if self.relay_enabled:
            relayed = self.relay_feedback(feedback)
            for index, sub in relayed.items():
                self.metrics.feedback_relayed += 1
                self._send_upstream(
                    ControlMessageKind.FEEDBACK, sub, (index,)
                )
            if relayed:
                actions.append(ExploitAction.PROPAGATE)
        self.runtime.feedback_log.record(
            self.now(), self.name, feedback, actions
        )
        return actions

    # Per-intent exploitation hooks -------------------------------------------

    def on_assumed(self, feedback: FeedbackPunctuation) -> list[ExploitAction]:
        """Default assumed-response: guard the output.

        Correct for every operator: the guarded output is exactly
        ``SR - subset(SR, f)``, the maximum exploitation Definition 1
        permits.  Stateful subclasses override to purge state and guard
        input where their semantics allow.
        """
        self.output_guards.install(
            feedback.pattern, origin=feedback, at=self.now()
        )
        return [ExploitAction.GUARD_OUTPUT]

    def on_desired(self, feedback: FeedbackPunctuation) -> list[ExploitAction]:
        """Default desired-response: none (prioritisation is op-specific)."""
        return []

    def on_demanded(self, feedback: FeedbackPunctuation) -> list[ExploitAction]:
        """Default demanded-response: none (partial results are op-specific)."""
        return []

    def on_result_request(self, pattern: Pattern | None) -> None:
        """Handle an on-demand result request; default: forward upstream."""
        self._send_upstream(ControlMessageKind.RESULT_REQUEST, pattern)

    # ---------------------------------------------- flow control (backpressure)

    #: Operators that steer each output edge independently (PARTITION's
    #: per-lane routing) opt in: a *pause* on one output edge then stalls
    #: only that lane's emission -- the runtime keeps scheduling the
    #: operator while :meth:`holding_pressure` stays False, instead of
    #: freezing every lane because one replica's queue filled up.
    lane_flow_control: bool = False

    def holding_pressure(self) -> bool:
        """For ``lane_flow_control`` operators: is a full stall required?

        Consulted by :meth:`~repro.engine.runtime.RuntimeCore.is_paused`
        while any output edge is paused.  Return True once the operator
        can no longer absorb traffic for its paused lanes (its stash is
        full), making the pause transitive toward the source.
        """
        return False

    def on_pause(self, punct: Any, from_edge: "OutputEdge | None") -> None:
        """Observer hook: the runtime paused this operator on one edge.

        The engine already stops scheduling this operator's data work, so
        most operators need nothing here.  Operators that buffer
        internally (e.g. :class:`~repro.operators.buffer.PriorityBuffer`)
        override it to absorb in-flight pages instead of emitting.
        """

    def on_resume(self, punct: Any, from_edge: "OutputEdge | None") -> None:
        """Observer hook: the runtime lifted a pause on one edge."""

    def forward_control(self, message: ControlMessage) -> None:
        """Relay a control message this operator does not handle itself.

        Unknown or unhandled control kinds must keep travelling in their
        direction -- upstream messages to every input, downstream messages
        to every output -- rather than being silently dropped at the first
        operator that predates them.  The forwarded copy is re-stamped
        (``sender``/``sent_at``), so per-hop ``control_latency`` applies
        exactly as it does to relayed feedback.
        """
        self.metrics.control_forwarded += 1
        if message.direction is Direction.UPSTREAM:
            self._send_upstream(message.kind, message.payload)
        else:
            self._send_downstream(message.kind, message.payload)

    # -------------------------------------------------------- feedback: relay

    def relay_feedback(
        self, feedback: FeedbackPunctuation
    ) -> dict[int, FeedbackPunctuation]:
        """Map feedback onto input schemas where safe (Definition 2).

        The default uses the schema-level planner; operators with
        state-dependent propagation override this.  Operators without a
        schema mapping relay nothing.
        """
        if self._planner is None:
            return {}
        return self._planner.propagate(
            feedback, relayer=self.name, at=self.now()
        )

    # ---------------------------------------------------------------- repr

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"{kind}({self.name!r})"


class SourceCursor:
    """Where an engine stands in a source's elements, handed out in runs.

    :meth:`take` cuts the next run, :meth:`skip` drops a recovery prefix,
    and ``arrival`` is the arrival time of the last element handed out.
    This cursor pulls ``events`` one element at a time -- the one
    element-by-element source loop, for sources that only have an
    iterator (lists, generators, the async bridge, user subclasses);
    :class:`~repro.operators.source.PunctuatedSource` slices its
    timeline instead.
    """

    __slots__ = ("_events", "_ahead", "arrival")

    def __init__(self, events: Iterable[tuple[float, Any]]) -> None:
        self._events = iter(events)
        #: The ``(arrival, element)`` pulled but not handed out: it did
        #: not fit the run it was pulled for.
        self._ahead: tuple[float, Any] | None = None
        self.arrival = 0.0

    def take(self, limit: int, before: float = math.inf) -> list:
        """The next run: at most ``limit`` consecutive tuples arriving
        before ``before``, or one such punctuation on its own.

        Empty when the next element arrives at ``before`` or later, when
        ``limit`` is below one, or at the end of the stream.
        """
        run: list = []
        ahead = self._ahead
        while len(run) < limit:
            if ahead is None:
                ahead = next(self._events, None)
                if ahead is None:
                    break
            arrival, element = ahead
            if arrival >= before or (run and element.is_punctuation):
                break
            self.arrival = arrival
            run.append(element)
            ahead = None
            if element.is_punctuation:
                break
        self._ahead = ahead
        return run

    def skip(self, count: int) -> None:
        """Drop the next ``count`` elements, punctuation included."""
        while count > 0:
            run = self.take(count)
            if not run:
                return
            count -= len(run)


class SourceOperator(Operator):
    """Base class for stream sources (no inputs).

    Subclasses implement :meth:`events`, yielding ``(arrival_time,
    element)`` pairs in non-decreasing arrival order; the engine replays
    them onto the output queue at those virtual times, taking consecutive
    tuples off the source's :meth:`cursor` as one run for
    :meth:`emit_many`.  Assumed feedback reaching a source installs an
    output guard, which suppresses matching tuples *before they enter the
    plan* -- the cheapest possible exploitation point.
    """

    n_inputs = 0
    feedback_aware = True

    def __init__(
        self,
        name: str,
        output_schema: Schema,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, output_schema, **kwargs)

    @abc.abstractmethod
    def events(self) -> Iterator[tuple[float, Any]]:
        """Yield ``(arrival_time, element)`` pairs in arrival order.

        This iterator is the whole source contract: the default
        :meth:`cursor`, which every engine cuts runs from, pulls it.
        Arrivals must not decrease.  A source built over a finished
        timeline checks that up front
        (:class:`~repro.operators.source.ListSource`,
        :class:`~repro.operators.source.PunctuatedSource`); a lazy one
        (:class:`~repro.operators.source.GeneratorSource`,
        :class:`~repro.operators.source.AsyncIterableSource`) cannot be
        checked before it runs, so the virtual-time engine clamps a late
        arrival to its clock -- the element enters when it shows up, time
        never rewinds.
        """

    def cursor(self) -> SourceCursor:
        """A fresh cursor over :meth:`events`, cut into runs by the engine."""
        return SourceCursor(self.events())

    def on_tuple(self, port_index: int, tup: StreamTuple) -> None:
        raise PlanError(f"source {self.name} cannot receive tuples")

    def relay_feedback(
        self, feedback: FeedbackPunctuation
    ) -> dict[int, FeedbackPunctuation]:
        return {}  # nothing upstream of a source
