"""The paper's contribution (system S3): feedback punctuation.

Layered on the substrate packages, :mod:`repro.core` defines:

* :class:`FeedbackPunctuation` and its three intents (section 3.4);
* :class:`GuardSet` -- the predicate state of exploitation, with
  punctuation-driven expiration (sections 4.3-4.4);
* :class:`PropagationPlanner` -- safe propagation per Definition 2;
* Definition 1 correctness checkers (:mod:`repro.core.correctness`);
* machine-checkable operator characterizations (Tables 1-2);
* the :class:`ExploitAction` vocabulary and the feedback log.
"""

from repro.core.characterization import (
    Characterization,
    CharacterizationRule,
    ConstraintShape,
    PropagationBehavior,
    SchemaPartition,
    aggregate_characterization,
    join_characterization,
)
from repro.core.correctness import (
    CorrectnessReport,
    check_correct_exploitation,
    max_exploitation,
    subset,
)
from repro.core.extended_correctness import (
    DemandedReport,
    DesiredReport,
    check_demanded_exploitation,
    check_desired_content,
    check_desired_prioritization,
)
from repro.core.feedback import (
    FeedbackIntent,
    FeedbackPunctuation,
    FlowControlKind,
    FlowControlPunctuation,
)
from repro.core.guards import Guard, GuardSet
from repro.core.propagation import PropagationPlan, PropagationPlanner
from repro.core.roles import (
    ExploitAction,
    FeedbackEvent,
    FeedbackLog,
)

__all__ = [
    "Characterization",
    "CharacterizationRule",
    "ConstraintShape",
    "CorrectnessReport",
    "DemandedReport",
    "DesiredReport",
    "ExploitAction",
    "FeedbackEvent",
    "FeedbackIntent",
    "FeedbackLog",
    "FeedbackPunctuation",
    "FlowControlKind",
    "FlowControlPunctuation",
    "Guard",
    "GuardSet",
    "PropagationBehavior",
    "PropagationPlan",
    "PropagationPlanner",
    "SchemaPartition",
    "aggregate_characterization",
    "check_correct_exploitation",
    "check_demanded_exploitation",
    "check_desired_content",
    "check_desired_prioritization",
    "join_characterization",
    "max_exploitation",
    "subset",
]
