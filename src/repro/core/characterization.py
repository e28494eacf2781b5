"""Operator characterizations: Tables 1 and 2 as data the operators read.

Section 4.3 of the paper characterises operators by partitioning their
output schema into named groups (``g``/``a`` for the aggregates;
``L``/``J``/``R`` for JOIN) and tabulating, per class of assumed feedback,
the correct local exploitation and the safe propagation.  This module
encodes those tables as data:

* :class:`~repro.operators.aggregate.WindowAggregate` builds its
  :func:`aggregate_characterization` once and enacts the row each assumed
  pattern classifies into, so the table is the one place its feedback
  response is decided;
* the table benchmarks (``benchmarks/test_table1_count.py`` and
  ``test_table2_join.py``) render them as the paper prints them; and
* the conformance matrix (``tests/test_conformance_matrix.py``) checks,
  row by row, that the live aggregates of every kind and the join take
  the row's local actions, relay to the row's inputs, and stay correct
  under Definition 1.

The exploit column lists every local action, the output guard included;
propagation is the third column.

The classification is shape-based: a feedback pattern is assigned to the
first rule whose per-group constraint shapes it matches, where a shape is
EXACT (``=v`` / ``in{…}``), LOWER (``>=v`` / ``>v``), UPPER (``<=v`` /
``<v``) or RANGE (a bounded interval).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.roles import ExploitAction
from repro.errors import FeedbackError
from repro.punctuation.atoms import (
    AtLeast,
    AtMost,
    Atom,
    Equals,
    GreaterThan,
    InSet,
    Interval,
    LessThan,
)
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema

__all__ = [
    "ConstraintShape",
    "PropagationBehavior",
    "SchemaPartition",
    "CharacterizationRule",
    "Characterization",
    "aggregate_characterization",
    "join_characterization",
]


class ConstraintShape(enum.Enum):
    """The shape of the constraint a pattern places on one group."""

    NONE = "none"      # all atoms in the group are wildcards
    EXACT = "exact"    # equality / set membership / point interval
    LOWER = "lower"    # >= or >   (lower-bounded, unbounded above)
    UPPER = "upper"    # <= or <   (upper-bounded, unbounded below)
    RANGE = "range"    # bounded on both sides
    ANY = "any"        # rule wildcard: matches every non-NONE shape

    @classmethod
    def of_atom(cls, atom: Atom) -> "ConstraintShape":
        if atom.is_wildcard:
            return cls.NONE
        if isinstance(atom, (Equals, InSet)) or atom.is_point:
            return cls.EXACT
        if isinstance(atom, (AtLeast, GreaterThan)):
            return cls.LOWER
        if isinstance(atom, (AtMost, LessThan)):
            return cls.UPPER
        if isinstance(atom, Interval):
            return cls.RANGE
        return cls.EXACT if atom.is_point else cls.RANGE

    def accepts(self, observed: "ConstraintShape") -> bool:
        """True when a rule requiring self matches an ``observed`` shape."""
        if self is ConstraintShape.ANY:
            return observed is not ConstraintShape.NONE
        return self is observed


class PropagationBehavior(enum.Enum):
    """How a rule propagates feedback upstream."""

    NONE = "none"                        # exploitation is output-local
    MAPPED = "mapped"                    # schema-level mapping (planner)
    STATE_DEPENDENT = "state_dependent"  # translate via current state (G)


@dataclass(frozen=True)
class SchemaPartition:
    """Named groups over an output schema (``g``/``a``, ``L``/``J``/``R``).

    Groups must cover the schema and be disjoint, mirroring the paper's
    "meaningful partition of the output schema".
    """

    schema: Schema
    groups: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for group, names in self.groups.items():
            for name in names:
                if name not in self.schema:
                    raise FeedbackError(
                        f"partition group {group!r} mentions unknown "
                        f"attribute {name!r}"
                    )
                if name in seen:
                    raise FeedbackError(
                        f"attribute {name!r} appears in two partition groups"
                    )
                seen.add(name)
        missing = set(self.schema.names) - seen
        if missing:
            raise FeedbackError(
                f"partition does not cover attributes {sorted(missing)}"
            )

    def group_indices(self, group: str) -> tuple[int, ...]:
        return tuple(
            self.schema.index_of(n) for n in self.groups[group]
        )

    def shape_of(self, pattern: Pattern, group: str) -> ConstraintShape:
        """Aggregate constraint shape a pattern places on one group.

        Groups with several attributes report EXACT only if every
        constrained atom is exact; mixed shapes degrade to RANGE.
        """
        shapes = {
            ConstraintShape.of_atom(pattern.atoms[i])
            for i in self.group_indices(group)
        }
        shapes.discard(ConstraintShape.NONE)
        if not shapes:
            return ConstraintShape.NONE
        if len(shapes) == 1:
            return next(iter(shapes))
        return ConstraintShape.RANGE

    def shapes_of(self, pattern: Pattern) -> dict[str, ConstraintShape]:
        return {g: self.shape_of(pattern, g) for g in self.groups}


@dataclass(frozen=True)
class CharacterizationRule:
    """One row of a characterization table.

    ``label`` is the paper's notation (``¬[g,*]``), ``condition`` the
    required shape per group (groups omitted default to NONE), ``exploit``
    the local actions, ``propagation`` the behaviour plus target inputs and
    a short rendering of what is sent (``¬[*, j]  -> left``).
    """

    label: str
    condition: dict[str, ConstraintShape]
    exploit: tuple[ExploitAction, ...]
    propagation: PropagationBehavior
    propagation_targets: tuple[int, ...] = ()
    propagation_note: str = ""
    exploit_note: str = ""

    def matches(
        self, shapes: dict[str, ConstraintShape]
    ) -> bool:
        for group, observed in shapes.items():
            required = self.condition.get(group, ConstraintShape.NONE)
            if not required.accepts(observed):
                return False
        return True


@dataclass
class Characterization:
    """A full characterization table for one operator."""

    operator: str
    partition: SchemaPartition
    rules: list[CharacterizationRule] = field(default_factory=list)

    def classify(self, pattern: Pattern) -> CharacterizationRule:
        """The first rule whose condition matches the pattern's shapes.

        Raises :class:`~repro.errors.FeedbackError` when no rule applies --
        callers treat that as "exhibit the null response", which Definition
        1 always permits.
        """
        shapes = self.partition.shapes_of(pattern)
        for rule in self.rules:
            if rule.matches(shapes):
                return rule
        raise FeedbackError(
            f"{self.operator}: no characterization rule for pattern "
            f"{pattern!r} (shapes {shapes})"
        )

    def classify_or_none(self, pattern: Pattern) -> CharacterizationRule | None:
        try:
            return self.classify(pattern)
        except FeedbackError:
            return None

    def render_table(self) -> str:
        """Plain-text rendering in the paper's three-column layout."""
        headers = ("Punctuation", "Local exploit", "Propagation")
        rows: list[tuple[str, str, str]] = []
        for rule in self.rules:
            exploit_lines = [a.value.replace("_", " ") for a in rule.exploit]
            if rule.exploit_note:
                exploit_lines.append(f"({rule.exploit_note})")
            if rule.propagation is PropagationBehavior.NONE:
                prop = "-"
            else:
                prop = rule.propagation_note or rule.propagation.value
            rows.append((rule.label, "; ".join(exploit_lines) or "-", prop))
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(3)
        ]
        def fmt(row: Sequence[str]) -> str:
            return " | ".join(c.ljust(widths[i]) for i, c in enumerate(row))
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"Characterization for {self.operator}", fmt(headers), sep]
        lines.extend(fmt(r) for r in rows)
        return "\n".join(lines)


#: Per aggregate kind, the value shape that a partial aggregate already
#: satisfying makes certain for the final value: COUNT and MAX only grow,
#: MIN only shrinks, SUM and AVG move either way (section 3.5's AVERAGE
#: with partial 51).  Every row of :func:`aggregate_characterization`
#: follows from this one fact.
_CERTAIN_SHAPE: dict[str, ConstraintShape | None] = {
    "count": ConstraintShape.LOWER,
    "sum": None,
    "avg": None,
    "max": ConstraintShape.LOWER,
    "min": ConstraintShape.UPPER,
}

#: The local actions of every row that purges: the input guard keeps the
#: purged state from re-forming, the output guard catches what is in
#: flight.
_PURGE_AND_GUARD = (
    ExploitAction.PURGE_STATE,
    ExploitAction.GUARD_INPUT,
    ExploitAction.GUARD_OUTPUT,
)


def aggregate_characterization(
    kind: str,
    schema: Schema,
    group_attributes: Sequence[str],
    value_attribute: str,
) -> Characterization:
    """Table 1, for each windowed aggregate (COUNT, SUM, AVG, MAX, MIN).

    Output schema partition ``(g, a)``: ``g`` the window and grouping
    attributes, ``a`` the aggregate.  Feedback on ``g`` alone purges the
    matching state and propagates in terms of the input schema.  On ``a``
    alone, the bound of the kind's certain shape identifies the groups G
    whose partial already matches and can only move further in: those
    are purged and G is propagated.  Every other value constraint can
    only guard the output.
    """
    if kind not in _CERTAIN_SHAPE:
        raise FeedbackError(f"no characterization for aggregate {kind!r}")
    partition = SchemaPartition(
        schema, {"g": tuple(group_attributes), "a": (value_attribute,)}
    )
    rules = [
        CharacterizationRule(
            label="¬[g, *]",
            condition={"g": ConstraintShape.ANY},
            exploit=_PURGE_AND_GUARD,
            exploit_note="remove group g from local state; guard input (g)",
            propagation=PropagationBehavior.MAPPED,
            propagation_targets=(0,),
            propagation_note="propagate g in terms of input schema",
        ),
        _output_guard_rule("¬[*, a]", ConstraintShape.EXACT, "a"),
    ]
    for shape, label, bound in (
        (ConstraintShape.LOWER, "¬[*, >=a] / ¬[*, >a]", ">=a or >a"),
        (ConstraintShape.UPPER, "¬[*, <=a] / ¬[*, <a]", "<=a or <a"),
    ):
        if shape is not _CERTAIN_SHAPE[kind]:
            rules.append(_output_guard_rule(label, shape, bound))
            continue
        rules.append(CharacterizationRule(
            label=label,
            condition={"a": shape},
            exploit=_PURGE_AND_GUARD,
            exploit_note=(
                "G <- group ids in local state matching the predicate; "
                "purge state (G); guard input (G)"
            ),
            propagation=PropagationBehavior.STATE_DEPENDENT,
            propagation_targets=(0,),
            propagation_note="propagate G in terms of input schema",
        ))
    return Characterization(kind.upper(), partition, rules)


def _output_guard_rule(
    label: str, shape: ConstraintShape, constraint: str
) -> CharacterizationRule:
    return CharacterizationRule(
        label=label,
        condition={"a": shape},
        exploit=(ExploitAction.GUARD_OUTPUT,),
        exploit_note=f"guard output ({constraint})",
        propagation=PropagationBehavior.NONE,
    )


def join_characterization(
    schema: Schema,
    left_attributes: Sequence[str],
    join_attributes: Sequence[str],
    right_attributes: Sequence[str],
) -> Characterization:
    """Table 2: the characterization of symmetric hash JOIN.

    Output partition ``(L, J, R)``.  Feedback on join attributes reaches
    both inputs; feedback exclusive to one side reaches that side; feedback
    constraining both exclusive sides at once has **no** safe propagation
    and exploitation degrades to an output guard (the ``¬[l,*,r]`` row).
    """
    partition = SchemaPartition(
        schema,
        {
            "L": tuple(left_attributes),
            "J": tuple(join_attributes),
            "R": tuple(right_attributes),
        },
    )
    rules = [
        CharacterizationRule(
            label="¬[*, j∈J, *]",
            condition={"J": ConstraintShape.EXACT},
            exploit=_PURGE_AND_GUARD,
            exploit_note="purge matching tuples from both hash tables; guard input",
            propagation=PropagationBehavior.MAPPED,
            propagation_targets=(0, 1),
            propagation_note="propagate ¬[*, j] to left and ¬[j, *] to right",
        ),
        CharacterizationRule(
            label="¬[l∈L, *, *]",
            condition={"L": ConstraintShape.EXACT},
            exploit=_PURGE_AND_GUARD,
            exploit_note="purge matching tuples from left hash table; guard input",
            propagation=PropagationBehavior.MAPPED,
            propagation_targets=(0,),
            propagation_note="propagate ¬[l, *] to left input",
        ),
        CharacterizationRule(
            label="¬[*, *, r∈R]",
            condition={"R": ConstraintShape.EXACT},
            exploit=_PURGE_AND_GUARD,
            exploit_note="purge matching tuples from right hash table; guard input",
            propagation=PropagationBehavior.MAPPED,
            propagation_targets=(1,),
            propagation_note="propagate ¬[*, r] to right input",
        ),
        CharacterizationRule(
            label="¬[l∈L, *, r∈R]",
            condition={"L": ConstraintShape.EXACT, "R": ConstraintShape.EXACT},
            exploit=(ExploitAction.GUARD_OUTPUT,),
            exploit_note="guard output (no safe propagation exists)",
            propagation=PropagationBehavior.NONE,
        ),
    ]
    return Characterization("JOIN", partition, rules)
