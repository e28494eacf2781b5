"""Pattern atoms: per-attribute predicates inside a punctuation pattern.

A punctuation like ``[*, *, <='2008-12-08 9:00']`` (paper section 3.1) is a
conjunction of one *atom* per schema attribute.  Atoms come in three shapes:

* :class:`Wildcard` -- matches any value (``*``);
* finite-set atoms -- :class:`Equals` and :class:`InSet`;
* order atoms -- :class:`LessThan`, :class:`AtMost`, :class:`GreaterThan`,
  :class:`AtLeast` and :class:`Interval`.

All atoms support ``matches``, ``subsumes``, ``intersect`` and
``is_disjoint``; patterns lift these pointwise.  Subsumption may be
*conservative* on countable domains: ``InSet({1,2})`` is not recognised as
subsuming ``Interval(1, 2)`` even over integers, because the algebra treats
ordered domains as dense.  Conservative answers are always safe for the
feedback framework -- a guard that is released late or a propagation that is
skipped never violates Definition 1 or 2.

``None`` values (the paper's Example 3 has sensors reporting nulls) are
matched only by :class:`Wildcard`, by ``Equals(None)`` and by an ``InSet``
containing ``None``; order atoms never match ``None``.  Values of mutually
incomparable types likewise never match order atoms.  Both rules err on the
side of *not* matching, which for guards means *not* dropping a tuple --
again the safe direction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Iterable

from repro.errors import PatternError

__all__ = [
    "Atom",
    "Wildcard",
    "Equals",
    "InSet",
    "LessThan",
    "AtMost",
    "GreaterThan",
    "AtLeast",
    "Interval",
    "WILDCARD",
    "atom_from_literal",
]


class _NegInf:
    """Sentinel below every value (used for open lower bounds)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "-inf"

    def __reduce__(self) -> str:
        # Pickle by reference: atoms compare bounds with ``is NEG_INF``,
        # so unpickling (pages crossing a process boundary) must resolve
        # to this module's singleton, never construct a fresh instance.
        return "NEG_INF"


class _PosInf:
    """Sentinel above every value (used for open upper bounds)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "+inf"

    def __reduce__(self) -> str:
        return "POS_INF"


NEG_INF = _NegInf()
POS_INF = _PosInf()


def _compare(a: Any, b: Any) -> int | None:
    """Three-way compare with infinity sentinels; None when incomparable."""
    if a is NEG_INF:
        return 0 if b is NEG_INF else -1
    if b is NEG_INF:
        return 1
    if a is POS_INF:
        return 0 if b is POS_INF else 1
    if b is POS_INF:
        return -1
    try:
        if a == b:
            return 0
        if a < b:
            return -1
        if a > b:
            return 1
    except TypeError:
        return None
    return None


def _term_source(subject: str, kind: Any, first: int) -> tuple[str, int]:
    """One atom shape as a boolean expression over ``subject``.

    ``kind`` is what :meth:`Atom._term` returns: ``"in"`` for a finite
    set, else ``(lo_op, hi_op)`` with each op ``"<"``, ``"<="`` or None
    for an infinite end.  Constants are the names ``c<first>``,
    ``c<first+1>``, ... in the order :meth:`Atom._term` lists them;
    returns the expression and the next free constant number.
    """
    if kind == "in":
        return f"{subject} in c{first}", first + 1
    lo_op, hi_op = kind
    if lo_op is None and hi_op is None:
        return "True", first
    chain = subject
    if lo_op is not None:
        chain = f"c{first} {lo_op} {chain}"
        first += 1
    if hi_op is not None:
        chain = f"{chain} {hi_op} c{first}"
        first += 1
    return f"({subject} is not None and {chain})", first


@lru_cache(maxsize=256)
def compiled_test(arity: int | None, shape: tuple) -> Callable[..., Any]:
    """The factory of tests for one *shape* of conjunction.

    ``shape`` is a tuple of ``(position, kind)`` terms.  With an
    ``arity`` the factory binds a pattern's constants into three forms
    of one conjunction and returns ``(test, select, reject)``:

    * ``test(values)`` -- the element test: checks the sequence's length
      (:class:`~repro.errors.PatternError` on a mismatch) and reads each
      term's subject at its position;
    * ``select(run)`` and ``reject(run)`` -- the run filters: the
      elements of a run of tuples whose ``values`` the test accepts, or
      rejects, in stream order, each one list comprehension with the
      same ``and``-chain inlined.  The length check is inlined too
      (``len(v) == arity or test(v)``, so a mismatch raises from the
      test), and a run the chain cannot evaluate -- a value that cannot
      be hashed or compared raised ``TypeError`` -- is filtered again
      with the element test, which answers False for that value.

    With ``arity`` None there is one term and the factory returns the
    test alone, over the bare value (:meth:`Atom.predicate`).  The
    test's body is one ``and``-chain inside one ``try``: a value that
    cannot be hashed or compared answers False.

    Only the shape goes into the source -- integers and operators,
    never a constant -- so ``compile()`` (~80 us) is paid once per shape
    and cached here (an LRU: a plan uses a handful of shapes, a code
    object is a few hundred bytes); the returned factory binds a
    pattern's constants as closure cells in well under a microsecond.
    """
    terms = []
    free = 0
    for position, kind in shape:
        subject = "v" if arity is None else f"v[{position}]"
        term, free = _term_source(subject, kind, free)
        terms.append(term)
    chain = " and ".join(terms) or "True"
    lines = [
        f"def bind({', '.join(f'c{k}' for k in range(free))}):",
        "    def test(v):",
    ]
    if arity is not None:
        lines += [
            f"        if len(v) != {arity}:",
            "            raise PatternError(",
            f"                'pattern arity {arity} does not match value '",
            "                'arity %d' % len(v)",
            "            )",
        ]
    lines += [
        "        try:",
        f"            return {chain}",
        "        except TypeError:",
        "            return False",
    ]
    if arity is None:
        lines.append("    return test")
    else:
        match = f"(len(v := e.values) == {arity} or test(v)) and {chain}"
        for name, verdict in (("select", ""), ("reject", "not ")):
            lines += [
                f"    def {name}(run):",
                "        try:",
                f"            return [e for e in run if {verdict}({match})]",
                "        except TypeError:",
                f"            return [e for e in run if {verdict}test(e.values)]",
            ]
        lines.append("    return test, select, reject")
    namespace: dict[str, Any] = {"PatternError": PatternError}
    exec(compile("\n".join(lines), f"<pattern shape {shape}>", "exec"),
         namespace)
    return namespace["bind"]


class Atom:
    """Base class for pattern atoms.

    Every concrete atom normalises itself to one of two internal forms so
    the binary operations need only three cases:

    * ``_members`` -- a frozenset, for finite-set atoms;
    * ``_bounds`` -- ``(lo, lo_inclusive, hi, hi_inclusive)``, for order
      atoms and the wildcard (whose bounds are infinite).
    """

    __slots__ = ()

    _members: frozenset | None = None
    _bounds: tuple[Any, bool, Any, bool] | None = None

    # -- matching ---------------------------------------------------------------

    def matches(self, value: Any) -> bool:
        """True when ``value`` satisfies this atom."""
        return self.predicate()(value)

    def predicate(self) -> Callable[[Any], bool]:
        """This atom's test, resolved once into a one-argument callable.

        What :meth:`matches` evaluates: the one-term instance of the
        generated test a pattern's matcher is (:func:`compiled_test`).
        A finite-set atom is a set-membership test and an order atom a
        chained comparison; ``None``, NaN and values the bounds cannot
        be compared with (or that cannot be hashed) answer False, never
        raise.
        """
        kind, constants = self._term()
        return compiled_test(None, ((None, kind),))(*constants)

    def _term(self) -> tuple[Any, tuple]:
        """``(kind, constants)``: this atom as one term of a compiled test.

        ``kind`` is the part that shapes the source (see
        :func:`_term_source`); ``constants`` are the values it binds.
        """
        members = self._members
        if members is not None:
            return "in", (members,)
        lo, lo_inc, hi, hi_inc = self._bounds  # type: ignore[misc]
        lo_op = None if lo is NEG_INF else "<=" if lo_inc else "<"
        hi_op = None if hi is POS_INF else "<=" if hi_inc else "<"
        return (lo_op, hi_op), tuple(
            bound for bound, op in ((lo, lo_op), (hi, hi_op)) if op
        )

    # -- structure --------------------------------------------------------------

    @property
    def is_wildcard(self) -> bool:
        """True for atoms that match every value."""
        if self._bounds is None:
            return False
        lo, _, hi, _ = self._bounds
        return lo is NEG_INF and hi is POS_INF

    @property
    def bounds(self) -> tuple[Any, bool, Any, bool] | None:
        """``(lo, lo_inclusive, hi, hi_inclusive)``; None for a finite set."""
        return self._bounds

    @property
    def is_point(self) -> bool:
        """True when the atom admits exactly one value."""
        if self._members is not None:
            return len(self._members) == 1
        lo, lo_inc, hi, hi_inc = self._bounds  # type: ignore[misc]
        return lo_inc and hi_inc and _compare(lo, hi) == 0

    def point_value(self) -> Any:
        """The single admitted value (only valid when ``is_point``)."""
        if not self.is_point:
            raise PatternError(f"{self!r} is not a point atom")
        if self._members is not None:
            return next(iter(self._members))
        return self._bounds[0]  # type: ignore[index]

    # -- algebra -----------------------------------------------------------------

    def subsumes(self, other: "Atom") -> bool:
        """True when every value matched by ``other`` is matched by self.

        May answer False conservatively across finite/interval shapes on
        countable domains (see module docstring).
        """
        if self.is_wildcard:
            return True
        if other.is_wildcard:
            return False
        if other._members is not None:
            return all(map(self.predicate(), other._members))
        if self._members is not None:
            # A finite set subsumes an interval only if that interval is a
            # single point contained in the set.
            return other.is_point and self.matches(other.point_value())
        s_lo, s_lo_inc, s_hi, s_hi_inc = self._bounds  # type: ignore[misc]
        o_lo, o_lo_inc, o_hi, o_hi_inc = other._bounds  # type: ignore[misc]
        cmp_lo = _compare(s_lo, o_lo)
        if cmp_lo is None:
            return False
        if cmp_lo > 0 or (cmp_lo == 0 and not s_lo_inc and o_lo_inc):
            return False
        cmp_hi = _compare(s_hi, o_hi)
        if cmp_hi is None:
            return False
        if cmp_hi < 0 or (cmp_hi == 0 and not s_hi_inc and o_hi_inc):
            return False
        return True

    def intersect(self, other: "Atom") -> "Atom | None":
        """The atom matching exactly the common values; None when empty."""
        if self.is_wildcard:
            return other
        if other.is_wildcard:
            return self
        if self._members is not None and other._members is not None:
            common = self._members & other._members
            return InSet(common) if common else None
        if self._members is not None:
            kept = frozenset(filter(other.predicate(), self._members))
            return InSet(kept) if kept else None
        if other._members is not None:
            kept = frozenset(filter(self.predicate(), other._members))
            return InSet(kept) if kept else None
        s_lo, s_lo_inc, s_hi, s_hi_inc = self._bounds  # type: ignore[misc]
        o_lo, o_lo_inc, o_hi, o_hi_inc = other._bounds  # type: ignore[misc]
        cmp_lo = _compare(s_lo, o_lo)
        cmp_hi = _compare(s_hi, o_hi)
        if cmp_lo is None or cmp_hi is None:
            raise PatternError(
                f"cannot intersect atoms over incomparable domains: "
                f"{self!r} and {other!r}"
            )
        if cmp_lo > 0:
            lo, lo_inc = s_lo, s_lo_inc
        elif cmp_lo < 0:
            lo, lo_inc = o_lo, o_lo_inc
        else:
            lo, lo_inc = s_lo, s_lo_inc and o_lo_inc
        if cmp_hi < 0:
            hi, hi_inc = s_hi, s_hi_inc
        elif cmp_hi > 0:
            hi, hi_inc = o_hi, o_hi_inc
        else:
            hi, hi_inc = s_hi, s_hi_inc and o_hi_inc
        cmp_bounds = _compare(lo, hi)
        if cmp_bounds is None or cmp_bounds > 0:
            return None
        if cmp_bounds == 0 and not (lo_inc and hi_inc):
            return None
        return Interval(lo, hi, lo_inclusive=lo_inc, hi_inclusive=hi_inc)

    def is_disjoint(self, other: "Atom") -> bool:
        """True when no value matches both atoms."""
        return self.intersect(other) is None

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return (
            self._members == other._members and self._bounds == other._bounds
        )

    def __hash__(self) -> int:
        if self._members is not None:
            return hash(("members", self._members))
        lo, lo_inc, hi, hi_inc = self._bounds  # type: ignore[misc]
        key = (
            "bounds",
            "neg" if lo is NEG_INF else lo,
            lo_inc,
            "pos" if hi is POS_INF else hi,
            hi_inc,
        )
        return hash(key)


class Wildcard(Atom):
    """``*`` -- matches every value, including None."""

    __slots__ = ()
    _bounds = (NEG_INF, False, POS_INF, False)

    def __repr__(self) -> str:
        return "*"


WILDCARD = Wildcard()


class Equals(Atom):
    """``=v`` -- matches exactly one value (None allowed)."""

    __slots__ = ("_members", "value")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._members = frozenset([value])

    def __repr__(self) -> str:
        return f"{self.value!r}"


class InSet(Atom):
    """``in {v1, v2, ...}`` -- matches a finite, non-empty set of values."""

    __slots__ = ("_members",)

    def __init__(self, values: Iterable[Any]) -> None:
        members = frozenset(values)
        if not members:
            raise PatternError("InSet atom requires at least one value")
        self._members = members

    @property
    def values(self) -> frozenset:
        return self._members

    def __repr__(self) -> str:
        inner = ",".join(repr(v) for v in sorted(self._members, key=repr))
        return f"in{{{inner}}}"


class LessThan(Atom):
    """``<v`` -- strictly below ``v``."""

    __slots__ = ("_bounds", "value")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._bounds = (NEG_INF, False, value, False)

    def __repr__(self) -> str:
        return f"<{self.value!r}"


class AtMost(Atom):
    """``<=v`` -- at or below ``v``."""

    __slots__ = ("_bounds", "value")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._bounds = (NEG_INF, False, value, True)

    def __repr__(self) -> str:
        return f"<={self.value!r}"


class GreaterThan(Atom):
    """``>v`` -- strictly above ``v``."""

    __slots__ = ("_bounds", "value")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._bounds = (value, False, POS_INF, False)

    def __repr__(self) -> str:
        return f">{self.value!r}"


class AtLeast(Atom):
    """``>=v`` -- at or above ``v``."""

    __slots__ = ("_bounds", "value")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._bounds = (value, True, POS_INF, False)

    def __repr__(self) -> str:
        return f">={self.value!r}"


class Interval(Atom):
    """A bounded range ``lo..hi`` with per-end inclusivity.

    ``lo``/``hi`` accept the module sentinels ``NEG_INF``/``POS_INF`` for
    half-open ranges; an interval that admits no value raises
    :class:`~repro.errors.PatternError` at construction.
    """

    __slots__ = ("_bounds",)

    def __init__(
        self,
        lo: Any,
        hi: Any,
        *,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> None:
        cmp = _compare(lo, hi)
        if cmp is None:
            raise PatternError(f"interval bounds {lo!r}..{hi!r} not comparable")
        if cmp > 0 or (cmp == 0 and not (lo_inclusive and hi_inclusive)):
            raise PatternError(f"empty interval {lo!r}..{hi!r}")
        self._bounds = (lo, lo_inclusive, hi, hi_inclusive)

    @property
    def lo(self) -> Any:
        return self._bounds[0]

    @property
    def hi(self) -> Any:
        return self._bounds[2]

    def __repr__(self) -> str:
        lo, lo_inc, hi, hi_inc = self._bounds
        left = "[" if lo_inc else "("
        right = "]" if hi_inc else ")"
        lo_text = "-inf" if lo is NEG_INF else repr(lo)
        hi_text = "+inf" if hi is POS_INF else repr(hi)
        return f"{left}{lo_text}..{hi_text}{right}"


def atom_from_literal(value: Any) -> Atom:
    """Coerce a convenience literal into an atom.

    ``"*"`` and ``None`` become the wildcard; an existing :class:`Atom`
    passes through; a (frozen)set becomes :class:`InSet`; anything else
    becomes :class:`Equals`.  Used by pattern constructors so call sites can
    write ``Pattern.build("*", 3, {1, 2})``.
    """
    if isinstance(value, Atom):
        return value
    if value is None or (isinstance(value, str) and value == "*"):
        return WILDCARD
    if isinstance(value, (set, frozenset)):
        return InSet(value)
    return Equals(value)
