"""PACE: a bounded-disorder union that *produces* assumed feedback.

Example 3 / Experiment 1 of the paper: PACE unions the clean and the
imputed branch of a stream but bounds the maximum delay between them.
Tuples arriving more than ``tolerance`` behind the high watermark of the
timestamps seen are dropped as useless ("the speed map must be produced in
real time").  When that happens, PACE knows the lagging branch is doing
work that will be thrown away, so it issues assumed feedback::

    ¬[timestamp <= high_watermark - tolerance, *, ...]

to the lagging inputs.  An exploiting antecedent (IMPUTE) purges its
backlog of already-late tuples and skips new ones, spending its budget on
tuples that can still arrive in time.

PACE also *assumes* the punctuation it enforces: once the bound advances,
it emits embedded punctuation for the abandoned region downstream ("its
processing will continue as if it had received the embedded punctuation",
section 3.4), so downstream state can be purged even though the lagging
input never punctuated.

This corresponds to the ``WITH PACE ON <attr> <tolerance>`` clause of the
paper's SQL sketch (section 3.3, "Explicit" feedback).
"""

from __future__ import annotations

from typing import Any

from repro.core.feedback import FeedbackPunctuation
from repro.operators.union import Union
from repro.punctuation.atoms import AtMost
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema

__all__ = ["Pace"]


class Pace(Union):
    """Union with a disorder bound and explicit-policy feedback.

    Parameters
    ----------
    timestamp_attribute:
        The attribute carrying application time.
    tolerance:
        Maximum permitted delay behind the high watermark (same unit as
        the timestamp attribute).
    feedback_enabled:
        When False, PACE still drops late tuples (the policy must hold)
        but never informs antecedents -- the paper's no-feedback baseline
        for Experiment 1.
    feedback_interval:
        Minimum advance of the bound between successive feedback
        punctuations, preventing a feedback storm (one message per
        dropped tuple would be pure overhead).
    feedback_bound:
        Which region the feedback declares useless.  ``"watermark"`` (the
        paper's policy: "tuples with timestamps less than the current
        high watermark are no longer needed") abandons everything behind
        the watermark, letting a lagging antecedent leap to fresh tuples;
        ``"tolerance"`` only abandons what the disorder bound has already
        condemned (``<= watermark - tolerance``) -- a conservative variant
        kept for the ablation study, which recovers much less because the
        antecedent keeps working at the lateness boundary.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        *,
        timestamp_attribute: str,
        tolerance: float,
        arity: int = 2,
        feedback_enabled: bool = True,
        feedback_interval: float = 0.0,
        feedback_bound: str = "watermark",
        **kwargs: Any,
    ) -> None:
        if feedback_bound not in ("watermark", "tolerance"):
            raise ValueError(
                f"feedback_bound must be 'watermark' or 'tolerance': "
                f"{feedback_bound!r}"
            )
        super().__init__(name, schema, arity=arity, **kwargs)
        self.feedback_bound = feedback_bound
        self._assumed_bound: float | None = None
        self._ts_index = schema.index_of(timestamp_attribute)
        self.timestamp_attribute = schema[self._ts_index].name
        self.tolerance = float(tolerance)
        self.feedback_enabled = feedback_enabled
        self.feedback_interval = float(feedback_interval)
        self.high_watermark: float | None = None
        self._input_watermarks: list[float | None] = [None] * arity
        self._last_feedback_bound: float | None = None
        self._last_punct_bound: float | None = None
        self.late_drops = 0
        self.late_drops_by_port = [0] * arity
        self.timely_tuples = 0
        self.timely_by_port = [0] * arity

    state_fields = Union.state_fields + (
        "_assumed_bound", "high_watermark", "_input_watermarks",
        "_last_feedback_bound", "_last_punct_bound", "late_drops",
        "late_drops_by_port", "timely_tuples", "timely_by_port",
    )

    # -- data --------------------------------------------------------------------

    @property
    def bound(self) -> float | None:
        """Current cut-off: tuples at or before this timestamp are dropped.

        The larger of the disorder bound (watermark - tolerance) and any
        region PACE has already *assumed* complete via feedback: once PACE
        declares a region useless it must stand by that declaration, or
        the progress punctuation it emitted downstream would be violated.
        """
        if self.high_watermark is None:
            return None
        cut = self.high_watermark - self.tolerance
        if self._assumed_bound is not None:
            cut = max(cut, self._assumed_bound)
        return cut

    def on_page(self, port_index: int, batch: list) -> None:
        """Judge each tuple of the run against the bound as it stands.

        Every tuple can move the watermark (and a late one the assumed
        bound) for the tuples behind it, so verdicts and emissions stay
        one at a time, in arrival order.
        """
        for tup in batch:
            timestamp = float(tup.values[self._ts_index])
            previous_input = self._input_watermarks[port_index]
            if previous_input is None or timestamp > previous_input:
                self._input_watermarks[port_index] = timestamp
            if self.high_watermark is None or timestamp > self.high_watermark:
                self.high_watermark = timestamp
            tolerance_bound = self.high_watermark - self.tolerance
            if timestamp <= tolerance_bound:
                # Genuine divergence: the disorder policy condemns this
                # tuple, and lateness this deep is the signal to issue
                # feedback.
                self.late_drops += 1
                self.late_drops_by_port[port_index] += 1
                self._on_late_tuple(port_index, tolerance_bound)
                continue
            if (
                self._assumed_bound is not None
                and timestamp <= self._assumed_bound
            ):
                # Straggler from a region PACE already declared complete:
                # it must be dropped for consistency with the punctuation
                # emitted downstream, but it is NOT fresh divergence --
                # triggering feedback here would escalate the assumed
                # bound on every in-flight tuple and needlessly discard
                # recoverable work.
                self.late_drops += 1
                self.late_drops_by_port[port_index] += 1
                continue
            self.timely_tuples += 1
            self.timely_by_port[port_index] += 1
            self.emit(tup)

    def _on_late_tuple(self, port_index: int, bound: float) -> None:
        """A tuple exceeded the disorder bound: consider issuing feedback."""
        if not self.feedback_enabled:
            return
        if self.feedback_bound == "watermark":
            declared = self.high_watermark or bound
        else:
            declared = bound
        if self._last_feedback_bound is not None and (
            declared <= self._last_feedback_bound  # no new information
            or declared < self._last_feedback_bound + self.feedback_interval
        ):
            return
        self._last_feedback_bound = declared
        pattern = Pattern.single(
            self.output_schema, self.timestamp_attribute, AtMost(declared)
        )
        feedback = FeedbackPunctuation.assumed(
            pattern, issuer=self.name, issued_at=self.now()
        )
        lagging = [
            i
            for i, watermark in enumerate(self._input_watermarks)
            if watermark is None or watermark < declared
        ] or list(range(self.n_inputs))
        self.produce_feedback(feedback, input_indices=lagging)
        # PACE now proceeds as if it had received this punctuation
        # (section 3.4): the declared region is final.
        self._assumed_bound = max(self._assumed_bound or declared, declared)
        self._emit_assumed_progress(declared)

    def _emit_assumed_progress(self, bound: float) -> None:
        """Emit the punctuation PACE now assumes (late region abandoned)."""
        if (
            self._last_punct_bound is not None
            and bound <= self._last_punct_bound
        ):
            return
        self._last_punct_bound = bound
        self.emit_punctuation(
            Punctuation.up_to(
                self.output_schema,
                self.timestamp_attribute,
                bound,
                inclusive=True,
                source=self.name,
            )
        )

    # -- punctuation --------------------------------------------------------------

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        """Forward like UNION, but the abandoned region counts as covered."""
        bound = self.bound
        if bound is not None:
            assumed = Pattern.single(
                self.output_schema,
                self.timestamp_attribute,
                AtMost(bound),
            )
            if assumed.subsumes(punct.pattern):
                self._advance_frontier(port_index, punct.pattern)
                self.emit_punctuation(punct)
                return
        super().on_punctuation(port_index, punct)
