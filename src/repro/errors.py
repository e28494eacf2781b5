"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError`, so a
caller embedding the stream system can catch one base class.  Sub-classes are
grouped by subsystem (schema/pattern/plan/engine/feedback) and carry plain
human-readable messages; no error stores live references to engine state.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """Schema construction or attribute resolution failed.

    Raised for duplicate attribute names, unknown attribute lookups and
    arity mismatches between a schema and a value sequence.
    """


class PatternError(ReproError):
    """A pattern or punctuation is malformed or used against a wrong schema.

    Raised for arity mismatches between a pattern and a schema, illegal atom
    combinations, and unparsable punctuation literals.
    """


class PlanError(ReproError):
    """A query plan is structurally invalid.

    Raised for cycles, unconnected ports, duplicate operator names, and
    schema mismatches between connected operators.
    """


class FlowError(PlanError):
    """The fluent dataflow API (``repro.api.Flow``) was misused.

    Raised for re-consuming a stream handle without ``split()``, mixing
    handles across flows, punctuating a non-source stage, and re-building
    a flow that contains single-use operator instances.  Subclasses
    :class:`PlanError`: a flow misuse is a plan-construction error.
    """


class EngineError(ReproError):
    """An execution engine reached an inconsistent state.

    Raised for double-started engines, events scheduled in the past, and
    operators that emit after declaring end-of-stream.
    """


class FeedbackError(ReproError):
    """Feedback punctuation was produced or handled incorrectly.

    Raised for feedback whose pattern does not match the receiving schema
    and for attempts to retract enacted feedback (retraction is not part of
    the paper's model; see "Limitations" in ``docs/architecture.md``).
    """


class WorkloadError(ReproError):
    """A workload generator was configured with invalid parameters."""


class ServingError(ReproError):
    """The network serving layer was misconfigured or misused.

    Raised for ingest into closed channels, admission-control violations
    (tenant over its concurrent-flow cap) and malformed client payloads.
    """


class DurabilityError(ReproError):
    """Checkpointing or recovery was configured or used incorrectly.

    Raised for non-positive checkpoint intervals and for stores that
    cannot serve the requesting engine (an in-memory store under the
    multiprocess engine, whose forked workers would write into throwaway
    copies).
    """
