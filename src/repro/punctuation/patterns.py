"""Patterns: conjunctions of atoms describing a subset of a stream.

A :class:`Pattern` has one :class:`~repro.punctuation.atoms.Atom` per schema
attribute.  The paper writes patterns as bracketed lists --
``[*, *, <='2008-12-08 9:00']`` -- and this module preserves that notation in
``repr`` and in the mini-language (:mod:`repro.lang`).

Patterns are *boxes* (per-attribute conjunctions), so subsumption and
intersection decompose pointwise: box ``A`` subsumes box ``B`` iff every atom
of ``A`` subsumes the corresponding atom of ``B`` (atoms are never empty, so
the pointwise rule is exact, not just sufficient).

Evaluation is compiled: a pattern is one generated function over a tuple's
value sequence (:attr:`Pattern.matcher`) and two generated run filters over
runs of tuples (:attr:`Pattern.select`, :attr:`Pattern.reject`), their
source built once per pattern *shape* and this pattern's constants bound
into all three at once.  Incomparable and unhashable values answer False;
a value sequence of the wrong arity raises
:class:`~repro.errors.PatternError`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import PatternError
from repro.punctuation.atoms import (
    Atom,
    WILDCARD,
    atom_from_literal,
    compiled_test,
)
from repro.stream.schema import Schema
from repro.stream.tuples import StreamTuple

__all__ = ["Pattern"]


class Pattern:
    """An immutable conjunction of per-attribute atoms.

    A pattern may optionally be *bound* to a schema; binding enables
    name-based access and validates arity.  Unbound patterns are positional
    and are used inside the algebra and the propagation planner.
    """

    __slots__ = ("atoms", "schema", "_hash", "_matcher", "_select",
                 "_reject")

    def __init__(
        self, atoms: Iterable[Atom], schema: Schema | None = None
    ) -> None:
        atom_tuple = tuple(atoms)
        if not atom_tuple:
            raise PatternError("pattern requires at least one atom")
        if not all(isinstance(a, Atom) for a in atom_tuple):
            raise PatternError("pattern atoms must be Atom instances")
        if schema is not None and len(schema) != len(atom_tuple):
            raise PatternError(
                f"pattern arity {len(atom_tuple)} does not match schema "
                f"{schema.names} (arity {len(schema)})"
            )
        object.__setattr__(self, "atoms", atom_tuple)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "_hash", hash(atom_tuple))
        self._forget_compiled()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Pattern is immutable")

    # Immutability blocks the default slot-state unpickling (it goes
    # through ``setattr``), so patterns restore their slots explicitly --
    # they must cross process boundaries inside serialized feedback and
    # punctuation (see repro.engine.multiprocess).  The compiled forms
    # are derived state: they stay behind and are rebuilt on first use.
    def __getstate__(self) -> tuple:
        return (self.atoms, self.schema)

    def __setstate__(self, state: tuple) -> None:
        atoms, schema = state
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "_hash", hash(atoms))
        self._forget_compiled()

    def _forget_compiled(self) -> None:
        for name in ("_matcher", "_select", "_reject"):
            object.__setattr__(self, name, None)

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, *literals: Any, schema: Schema | None = None) -> "Pattern":
        """Build from convenience literals (see ``atom_from_literal``).

        ``Pattern.build("*", 3, {1, 2})`` is ``[*, =3, in{1,2}]``.
        """
        return cls((atom_from_literal(v) for v in literals), schema=schema)

    @classmethod
    def all_wildcards(cls, arity: int, schema: Schema | None = None) -> "Pattern":
        """The pattern matching every tuple of the given arity."""
        return cls((WILDCARD,) * arity, schema=schema)

    @classmethod
    def single(
        cls, schema: Schema, attribute: str, atom: Atom | Any
    ) -> "Pattern":
        """A pattern constraining exactly one named attribute of ``schema``."""
        index = schema.index_of(attribute)
        atoms = [WILDCARD] * len(schema)
        atoms[index] = atom if isinstance(atom, Atom) else atom_from_literal(atom)
        return cls(atoms, schema=schema)

    @classmethod
    def from_mapping(
        cls, schema: Schema, constraints: dict[str, Atom | Any]
    ) -> "Pattern":
        """A pattern constraining the named attributes of ``schema``."""
        atoms: list[Atom] = [WILDCARD] * len(schema)
        for name, spec in constraints.items():
            atoms[schema.index_of(name)] = (
                spec if isinstance(spec, Atom) else atom_from_literal(spec)
            )
        return cls(atoms, schema=schema)

    # -- matching ---------------------------------------------------------------

    @property
    def matcher(self) -> Callable[[Sequence[Any]], bool]:
        """The pattern compiled to one test over a tuple's value sequence.

        One generated function whose body is a single ``and``-chain over
        the constrained columns (wildcards cost nothing), built on first
        use and kept for the pattern's lifetime: every per-element
        evaluation of a pattern -- :meth:`matches`, :meth:`filter`, a
        guard's ``blocks`` -- is a call to it.  The source is compiled
        once per *shape* (arity, constrained positions, atom kinds, bound
        inclusivity -- :func:`~repro.punctuation.atoms.compiled_test`);
        this pattern's constants are bound into it as closure cells, so
        two patterns of one shape share code and nothing else.  The run
        filters :attr:`select` and :attr:`reject` are bound in the same
        call and inline the same chain.

        A value that cannot be hashed or compared (``None`` against an
        order atom, a string against a number, a list against a set)
        answers False -- for a guard, *not dropping*, the safe direction;
        a value sequence of the wrong arity raises
        :class:`~repro.errors.PatternError`.
        """
        if self._matcher is None:
            self._compile()
        return self._matcher

    @property
    def select(self) -> Callable[[Sequence[Any]], list]:
        """The run filter: ``select(run)`` is the tuples of ``run`` this
        pattern matches, in stream order.

        One list comprehension with :attr:`matcher`'s chain inlined, so a
        tuple costs one comparison chain and no call -- what a ``Select``
        over a pattern runs per page.  Same answers, same errors as
        :attr:`matcher` applied tuple by tuple.
        """
        if self._select is None:
            self._compile()
        return self._select

    @property
    def reject(self) -> Callable[[Sequence[Any]], list]:
        """The complement of :attr:`select`: the tuples of ``run`` this
        pattern does *not* match, in stream order -- what a guard keeps."""
        if self._reject is None:
            self._compile()
        return self._reject

    def _compile(self) -> None:
        shape = []
        constants: list = []
        for position, atom in self.constrained():
            kind, bound = atom._term()
            shape.append((position, kind))
            constants += bound
        test, select, reject = compiled_test(
            len(self.atoms), tuple(shape)
        )(*constants)
        object.__setattr__(self, "_matcher", test)
        object.__setattr__(self, "_select", select)
        object.__setattr__(self, "_reject", reject)

    def matches(self, element: StreamTuple | Sequence[Any]) -> bool:
        """True when every atom matches the corresponding value."""
        matcher = self._matcher or self.matcher
        return matcher(
            element.values if isinstance(element, StreamTuple) else element
        )

    def filter(self, elements: Iterable[StreamTuple]) -> list[StreamTuple]:
        """The paper's ``subset(stream, punctuation)`` over a finite stream."""
        return [t for t in elements if self.matches(t)]

    # -- structure ----------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.atoms)

    @property
    def is_all_wildcard(self) -> bool:
        """True when the pattern matches every tuple."""
        return all(a.is_wildcard for a in self.atoms)

    def constrained_indices(self) -> tuple[int, ...]:
        """Positions whose atom is not the wildcard."""
        return tuple(i for i, a in enumerate(self.atoms) if not a.is_wildcard)

    def constrained(self) -> tuple[tuple[int, Atom], ...]:
        """The non-wildcard atoms with their positions.

        This is the column view of a pattern: each entry names one value
        column and the atom constraining it -- what the matcher tests,
        and what the optimizer's guard pushdown rephrases column by
        column.
        """
        return tuple(
            (i, a) for i, a in enumerate(self.atoms) if not a.is_wildcard
        )

    def constrained_names(self) -> tuple[str, ...]:
        """Names of constrained attributes (requires a bound schema)."""
        if self.schema is None:
            raise PatternError("pattern is not bound to a schema")
        return tuple(self.schema[i].name for i in self.constrained_indices())

    def atom_at(self, key: int | str) -> Atom:
        """Atom by position, or by name when bound to a schema."""
        if isinstance(key, str):
            if self.schema is None:
                raise PatternError("pattern is not bound to a schema")
            return self.atoms[self.schema.index_of(key)]
        return self.atoms[key]

    # -- algebra ---------------------------------------------------------------------

    def subsumes(self, other: "Pattern") -> bool:
        """True when every tuple matched by ``other`` is matched by self."""
        self._check_arity(other)
        return all(
            mine.subsumes(theirs)
            for mine, theirs in zip(self.atoms, other.atoms)
        )

    def intersect(self, other: "Pattern") -> "Pattern | None":
        """Pattern matching exactly the common tuples; None when empty."""
        self._check_arity(other)
        atoms: list[Atom] = []
        for mine, theirs in zip(self.atoms, other.atoms):
            joint = mine.intersect(theirs)
            if joint is None:
                return None
            atoms.append(joint)
        return Pattern(atoms, schema=self.schema or other.schema)

    def is_disjoint(self, other: "Pattern") -> bool:
        """True when no tuple matches both patterns."""
        return self.intersect(other) is None

    def _check_arity(self, other: "Pattern") -> None:
        if len(self.atoms) != len(other.atoms):
            raise PatternError(
                f"pattern arity mismatch: {len(self.atoms)} vs "
                f"{len(other.atoms)}"
            )

    # -- derivation -----------------------------------------------------------------

    def project(
        self, indices: Sequence[int], schema: Schema | None = None
    ) -> "Pattern":
        """Pattern over the attributes at ``indices`` (used by propagation)."""
        return Pattern((self.atoms[i] for i in indices), schema=schema)

    def widen_except(self, keep_indices: Sequence[int]) -> "Pattern":
        """Copy with every atom outside ``keep_indices`` replaced by ``*``."""
        keep = set(keep_indices)
        return Pattern(
            (a if i in keep else WILDCARD for i, a in enumerate(self.atoms)),
            schema=self.schema,
        )

    def with_schema(self, schema: Schema) -> "Pattern":
        """The same atoms bound to ``schema``."""
        return Pattern(self.atoms, schema=schema)

    def with_atom(self, key: int | str, atom: Atom | Any) -> "Pattern":
        """Copy with the atom at ``key`` replaced."""
        index = (
            self.schema.index_of(key)  # type: ignore[union-attr]
            if isinstance(key, str)
            else key
        )
        if isinstance(key, str) and self.schema is None:
            raise PatternError("pattern is not bound to a schema")
        atoms = list(self.atoms)
        atoms[index] = atom if isinstance(atom, Atom) else atom_from_literal(atom)
        return Pattern(atoms, schema=self.schema)

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.atoms)
        return f"[{inner}]"
