"""Safe propagation of feedback through operator schemas (Definition 2).

Relaying feedback upstream requires translating a pattern on an operator's
*output* schema into patterns on its *input* schemas.  The translation is
only safe when exploitation by an antecedent cannot suppress tuples outside
the subset the original feedback describes (paper Definition 2).

The planner works from :class:`~repro.stream.schema.SchemaMapping` lineage:

* A pattern may be pushed to input *i* iff **every** constrained output
  attribute has an *exact* origin in input *i*.  If some constrained
  attribute is exclusive to another input (or is computed, like an
  average), a tuple of input *i* matching the partial pattern might still
  produce output tuples that do *not* match the full feedback -- the
  paper's ``¬[50,*,*,50]`` example, which has no safe propagation.
* Join attributes have exact origins in both inputs, so ``¬[*,j,*]``
  propagates to both sides (Table 2, row 1).

This module handles schema-level (state-independent) propagation: the
default intent hooks of :class:`~repro.operators.base.Operator` return its
plan as their relays.  A *state-dependent* relay -- e.g. COUNT translating
``¬[*,>=a]`` into the concrete set of groups currently matching (Table 1,
row 3) -- is what the operator's own hook returns, having found the groups
in its state; :mod:`repro.core.characterization` catalogues both.  Either
way the relay is sent by ``Operator.receive_feedback``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.punctuation.atoms import Atom, WILDCARD
from repro.punctuation.patterns import Pattern
from repro.stream.schema import SchemaMapping

__all__ = ["PropagationPlan", "PropagationPlanner"]


@dataclass(frozen=True)
class PropagationPlan:
    """The result of planning: per-input patterns that are safe to send.

    ``per_input`` maps input index -> pattern on that input's schema.  An
    empty mapping means no safe propagation exists.  ``blocked_inputs``
    explains, per skipped input, which constrained output attribute broke
    safety (diagnostics for tests and logging).
    """

    per_input: dict[int, Pattern] = field(default_factory=dict)
    blocked_inputs: dict[int, str] = field(default_factory=dict)

    @property
    def propagatable(self) -> bool:
        return bool(self.per_input)

    def __repr__(self) -> str:
        parts = [f"input {i}: {p!r}" for i, p in sorted(self.per_input.items())]
        if not parts:
            return "PropagationPlan(none safe)"
        return f"PropagationPlan({'; '.join(parts)})"


class PropagationPlanner:
    """Computes safe propagation plans for one operator's schema mapping."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: SchemaMapping) -> None:
        self.mapping = mapping

    def plan(self, pattern: Pattern) -> PropagationPlan:
        """Translate an output-schema pattern into safe per-input patterns.

        The pattern must have the mapping's output arity.  Patterns with no
        constrained attribute are not propagated (an all-wildcard feedback
        carries no actionable subset).
        """
        out_schema = self.mapping.output_schema
        constrained = pattern.constrained_indices()
        per_input: dict[int, Pattern] = {}
        blocked: dict[int, str] = {}
        if not constrained:
            return PropagationPlan({}, {})
        for input_index, input_schema in enumerate(self.mapping.input_schemas):
            atoms: list[Atom] = [WILDCARD] * len(input_schema)
            safe = True
            for out_pos in constrained:
                out_name = out_schema[out_pos].name
                origin = self.mapping.exact_origin_in(out_name, input_index)
                if origin is None:
                    blocked[input_index] = out_name
                    safe = False
                    break
                in_pos = input_schema.index_of(origin.input_attribute)
                existing = atoms[in_pos]
                atom = pattern.atoms[out_pos]
                if not existing.is_wildcard:
                    joint = existing.intersect(atom)
                    if joint is None:
                        # Two output constraints map to one input attribute
                        # with an empty intersection: the feedback matches no
                        # tuple producible from this input, so there is
                        # nothing to suppress here.
                        safe = False
                        blocked[input_index] = out_name
                        break
                    atom = joint
                atoms[in_pos] = atom
            if safe:
                per_input[input_index] = Pattern(atoms, schema=input_schema)
        return PropagationPlan(per_input, blocked)
