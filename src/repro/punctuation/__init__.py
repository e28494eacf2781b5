"""Pattern and punctuation algebra (system S2 in ``docs/architecture.md``).

Exports the atom vocabulary, :class:`Pattern`, embedded
:class:`Punctuation`, punctuation schemes and the progress punctuator.
Feedback punctuation -- which *carries* a pattern but travels out-of-band
with an intent -- lives in :mod:`repro.core.feedback`.
"""

from repro.punctuation.atoms import (
    AtLeast,
    AtMost,
    Atom,
    Equals,
    GreaterThan,
    InSet,
    Interval,
    LessThan,
    WILDCARD,
    Wildcard,
    atom_from_literal,
)
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.punctuation.schemes import ProgressPunctuator, PunctuationScheme

__all__ = [
    "AtLeast",
    "AtMost",
    "Atom",
    "Equals",
    "GreaterThan",
    "InSet",
    "Interval",
    "LessThan",
    "Pattern",
    "ProgressPunctuator",
    "Punctuation",
    "PunctuationScheme",
    "WILDCARD",
    "Wildcard",
    "atom_from_literal",
]
