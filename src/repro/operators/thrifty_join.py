"""THRIFTY JOIN: adaptive feedback production from empty windows.

The paper's "Adaptive" feedback source (section 3.3): vehicle and sensor
streams joined on location over tumbling windows; when punctuation shows
that a window of the probe (vehicle) stream is **empty**, no sensor tuple
in that window can ever join, so THRIFTY JOIN sends assumed feedback to the
sensor input -- "antecedent operators in the sensor stream can choose to
stop producing tuples that would be part of the useless window."

The mechanism generalises the example: whenever an input designated as a
*probe* punctuates a join-key region for which its hash table holds **no**
tuples, feedback carrying that key region is issued to the opposite input.
Only valid for inner joins (an outer join must still emit the preserved
side of an empty window).
"""

from __future__ import annotations

from typing import Any

from repro.core.feedback import FeedbackPunctuation
from repro.errors import PlanError
from repro.operators.join import SymmetricHashJoin
from repro.punctuation.atoms import WILDCARD
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern

__all__ = ["ThriftyJoin"]


class ThriftyJoin(SymmetricHashJoin):
    """Inner join that reports empty probe windows upstream.

    ``probe_inputs`` names the inputs whose empty punctuated regions
    trigger feedback to the opposite input (default: the left input, the
    paper's vehicle stream).
    """

    def __init__(
        self,
        *args: Any,
        probe_inputs: tuple[int, ...] = (0,),
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if self.how != "inner":
            raise PlanError(
                "ThriftyJoin requires an inner join: an outer join must "
                "still produce the preserved side of an empty window"
            )
        self.probe_inputs = probe_inputs
        self.empty_windows_detected = 0

    state_fields = SymmetricHashJoin.state_fields + (
        "empty_windows_detected",
    )

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        if port_index in self.probe_inputs:
            key_pattern = self._key_pattern_of(port_index, punct.pattern)
            if key_pattern is not None and self._region_is_empty(
                port_index, key_pattern
            ):
                self._report_empty_region(port_index, key_pattern)
        super().on_punctuation(port_index, punct)

    def _region_is_empty(self, side: int, key_pattern: Pattern) -> bool:
        """True when the probe table holds no tuple in the key region."""
        return not any(
            key_pattern.matches(key) for key in self._tables[side]
        )

    def _report_empty_region(self, side: int, key_pattern: Pattern) -> None:
        """Issue assumed feedback for the region to the opposite input."""
        other = 1 - side
        other_schema = (
            self.right_schema if other == self.RIGHT else self.left_schema
        )
        atoms = [WILDCARD] * len(other_schema)
        for atom, position in zip(
            key_pattern.atoms, self._key_indices[other]
        ):
            atoms[position] = atom
        pattern = Pattern(atoms, schema=other_schema)
        if pattern.is_all_wildcard:
            return
        self.empty_windows_detected += 1
        feedback = FeedbackPunctuation.assumed(
            pattern, issuer=self.name, issued_at=self.now()
        )
        self.produce_feedback(feedback, input_indices=(other,))
        # The join itself can also skip work for the region immediately.
        self.input_port(other).guards.install(
            pattern, origin=feedback, at=self.now()
        )
