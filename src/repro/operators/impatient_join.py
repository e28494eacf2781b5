"""IMPATIENT JOIN: desired-feedback production for eager results.

Section 3.4's illustration of desired punctuation: joining sparse vehicle
data with dense sensor data, the join is "eager to produce results" -- as
soon as it holds vehicle data for (period 7, segment 3) it tells the
sensor input ``?[7, 3, *]``: *prioritise* producing tuples for that key,
because the join can turn them into output immediately.

Desired feedback never changes the result, only its production time and
order; receiving operators that honour it (see
:class:`~repro.operators.buffer.PriorityBuffer`) release matching tuples
ahead of others.
"""

from __future__ import annotations

from typing import Any

from repro.core.feedback import FeedbackPunctuation
from repro.operators.join import SymmetricHashJoin
from repro.punctuation.atoms import Equals, WILDCARD
from repro.punctuation.patterns import Pattern

__all__ = ["ImpatientJoin"]


class ImpatientJoin(SymmetricHashJoin):
    """Join that requests prioritised delivery of joinable subsets.

    ``eager_input`` is the sparse side (the paper's vehicle stream): the
    first arrival of each distinct join key there triggers desired
    feedback to the opposite input, at most once per key.
    """

    def __init__(
        self, *args: Any, eager_input: int = 0, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        self.eager_input = eager_input
        self._requested_keys: set[tuple] = set()
        self.desired_sent = 0

    state_fields = SymmetricHashJoin.state_fields + (
        "_requested_keys", "desired_sent",
    )

    def on_page(self, port_index: int, batch: list) -> None:
        """Request new keys for the run, then join it in bulk.

        Desired feedback for every fresh key in the run is issued before
        the run is joined (rather than interleaved per tuple); desired
        feedback never changes the result -- only production timing -- so
        the content does not depend on where the run was cut.
        """
        if port_index == self.eager_input:
            for tup in batch:
                key = self._key_of(port_index, tup)
                if key not in self._requested_keys:
                    self._requested_keys.add(key)
                    self._request_priority(key)
        super().on_page(port_index, batch)

    def _request_priority(self, key: tuple) -> None:
        """Send ``?[key...]`` to the opposite (dense) input."""
        other = 1 - self.eager_input
        other_schema = (
            self.right_schema if other == self.RIGHT else self.left_schema
        )
        atoms = [WILDCARD] * len(other_schema)
        for value, position in zip(key, self._key_indices[other]):
            atoms[position] = WILDCARD if value is None else Equals(value)
        pattern = Pattern(atoms, schema=other_schema)
        if pattern.is_all_wildcard:
            return
        self.desired_sent += 1
        self.produce_feedback(
            FeedbackPunctuation.desired(
                pattern, issuer=self.name, issued_at=self.now()
            ),
            input_indices=(other,),
        )
