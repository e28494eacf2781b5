"""Property-based tests of the pattern algebra (hypothesis).

The feedback framework's correctness rests on three algebraic relations:

* ``matches`` is the ground truth;
* ``subsumes`` is sound w.r.t. matches (if A subsumes B, everything B
  matches, A matches) -- guard expiration and UNION's punctuation
  alignment rely on it;
* ``intersect`` computes exactly the conjunction of match sets --
  DUPLICATE's agreement logic and the propagation planner rely on it.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.punctuation import (
    AtLeast,
    AtMost,
    Equals,
    GreaterThan,
    InSet,
    Interval,
    LessThan,
    Pattern,
    WILDCARD,
)

values = st.integers(min_value=-20, max_value=20)


@st.composite
def atoms(draw):
    kind = draw(st.sampled_from(
        ["wild", "eq", "lt", "le", "gt", "ge", "in", "interval"]
    ))
    if kind == "wild":
        return WILDCARD
    if kind == "eq":
        return Equals(draw(values))
    if kind == "lt":
        return LessThan(draw(values))
    if kind == "le":
        return AtMost(draw(values))
    if kind == "gt":
        return GreaterThan(draw(values))
    if kind == "ge":
        return AtLeast(draw(values))
    if kind == "in":
        members = draw(st.sets(values, min_size=1, max_size=4))
        return InSet(members)
    lo = draw(values)
    hi = draw(st.integers(min_value=lo, max_value=21))
    return Interval(lo, hi)


@st.composite
def patterns(draw, arity=3):
    return Pattern([draw(atoms()) for _ in range(arity)])


def sample_points(arity=3):
    return st.tuples(*([values] * arity))


class TestAtomLaws:
    @given(atoms(), values)
    def test_wildcard_matches_everything_atom_matches_decides(self, atom, v):
        assert WILDCARD.matches(v)
        # matches never raises on comparable ints
        atom.matches(v)

    @given(atoms(), atoms(), values)
    def test_subsumption_soundness(self, a, b, v):
        """a ⊇ b and b matches v ⇒ a matches v."""
        if a.subsumes(b) and b.matches(v):
            assert a.matches(v)

    @given(atoms(), atoms(), values)
    def test_intersection_exactness(self, a, b, v):
        """v ∈ a∩b  ⇔  v ∈ a and v ∈ b."""
        joint = a.intersect(b)
        both = a.matches(v) and b.matches(v)
        if joint is None:
            assert not both
        else:
            assert joint.matches(v) == both

    @given(atoms(), atoms())
    def test_intersection_commutes_on_match_sets(self, a, b):
        ab = a.intersect(b)
        ba = b.intersect(a)
        for v in range(-21, 22):
            ab_matches = ab.matches(v) if ab is not None else False
            ba_matches = ba.matches(v) if ba is not None else False
            assert ab_matches == ba_matches

    @given(atoms())
    def test_subsumes_is_reflexive(self, a):
        assert a.subsumes(a)

    @given(atoms(), atoms(), atoms())
    def test_subsumes_is_transitive(self, a, b, c):
        if a.subsumes(b) and b.subsumes(c):
            assert a.subsumes(c)

    @given(atoms(), atoms())
    def test_disjoint_means_no_common_value(self, a, b):
        if a.is_disjoint(b):
            for v in range(-21, 22):
                assert not (a.matches(v) and b.matches(v))


class TestPatternLaws:
    @given(patterns(), patterns(), sample_points())
    def test_pattern_subsumption_soundness(self, p, q, point):
        if p.subsumes(q) and q.matches(point):
            assert p.matches(point)

    @given(patterns(), patterns(), sample_points())
    def test_pattern_intersection_exactness(self, p, q, point):
        joint = p.intersect(q)
        both = p.matches(point) and q.matches(point)
        if joint is None:
            assert not both
        else:
            assert joint.matches(point) == both

    @given(patterns())
    def test_pattern_subsumes_reflexive(self, p):
        assert p.subsumes(p)

    @given(patterns(), sample_points())
    def test_widen_except_only_loosens(self, p, point):
        widened = p.widen_except([0])
        if p.matches(point):
            assert widened.matches(point)

    @given(patterns())
    def test_projection_preserves_atom_identity(self, p):
        projected = p.project([2, 0])
        assert projected.atoms == (p.atoms[2], p.atoms[0])

    @given(patterns(), sample_points())
    def test_constrained_indices_explain_matching(self, p, point):
        """Changing an unconstrained position never changes the verdict."""
        constrained = set(p.constrained_indices())
        base = p.matches(point)
        for i in range(len(point)):
            if i in constrained:
                continue
            mutated = list(point)
            mutated[i] = 999
            assert p.matches(mutated) == base


class TestGuardExpirationProperty:
    @given(patterns(), patterns())
    def test_expired_guard_could_never_fire_again(self, guard_pattern, punct_pattern):
        """If punctuation subsumes a guard, no punct-future tuple matches it.

        Punctuation semantics: no future tuple matches punct_pattern.  The
        guard is released only when punct ⊇ guard, so any tuple matching
        the guard would match the punctuation -- and thus cannot appear.
        """
        from repro.core import GuardSet
        from repro.punctuation import Punctuation

        guards = GuardSet()
        guards.install(guard_pattern)
        released = guards.expire_with(Punctuation(punct_pattern))
        if released:
            for v0 in range(-21, 22, 7):
                for v1 in range(-21, 22, 7):
                    for v2 in range(-21, 22, 7):
                        point = (v0, v1, v2)
                        if guard_pattern.matches(point):
                            assert punct_pattern.matches(point)


# -- the compiled matcher -------------------------------------------------------
#
# A pattern is evaluated through one compiled matcher built from per-atom
# predicates.  The reference below is the interpretive ``Atom.matches`` the
# matcher replaced, kept here so that the fast path is pinned to it.

import math
import pickle

import pytest

from repro.errors import PatternError
from repro.punctuation.atoms import NEG_INF, POS_INF, compiled_test


def _reference_compare(a, b):
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


def reference_matches(atom, value):
    """``Atom.matches`` as it was before atoms supplied predicates."""
    if atom._members is not None:
        try:
            return value in atom._members
        except TypeError:
            return False
    lo, lo_inc, hi, hi_inc = atom._bounds
    if value is None and not atom.is_wildcard:
        return False
    if lo is NEG_INF and hi is POS_INF:
        return True
    if value is None:
        return False
    cmp_lo = _reference_compare(value, lo)
    if cmp_lo is None or cmp_lo < 0 or (cmp_lo == 0 and not lo_inc):
        return False
    cmp_hi = _reference_compare(value, hi)
    if cmp_hi is None or cmp_hi > 0 or (cmp_hi == 0 and not hi_inc):
        return False
    return True


bounds = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.sampled_from([-math.inf, math.inf]),
)

#: What a stream may carry in one attribute: the comparable, the
#: incomparable, the missing, NaN and the unhashable.
any_value = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.floats(min_value=-6, max_value=6),
    st.sampled_from([math.nan, -math.inf, math.inf, -0.0]),
    st.none(),
    st.text(alphabet="ab", max_size=2),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2),
)


@st.composite
def any_atoms(draw):
    """Every atom shape: wildcard, point, finite set, one-sided order
    atoms, and intervals in all four inclusivity combinations (with and
    without an infinite end)."""
    kind = draw(st.sampled_from(
        ["wild", "eq", "in", "lt", "le", "gt", "ge", "interval", "half"]
    ))
    if kind == "wild":
        return WILDCARD
    if kind == "eq":
        return Equals(draw(st.one_of(bounds, st.none(), st.text("ab", max_size=1))))
    if kind == "in":
        return InSet(draw(st.sets(
            st.one_of(bounds, st.none(), st.text("ab", max_size=1)),
            min_size=1, max_size=4,
        )))
    if kind in ("lt", "le", "gt", "ge"):
        cls = {"lt": LessThan, "le": AtMost, "gt": GreaterThan,
               "ge": AtLeast}[kind]
        return cls(draw(st.one_of(bounds, st.text("ab", max_size=1))))
    lo_inc, hi_inc = draw(st.booleans()), draw(st.booleans())
    if kind == "half":
        bound = draw(bounds)
        lo, hi = draw(st.sampled_from([(NEG_INF, bound), (bound, POS_INF)]))
        return Interval(lo, hi, lo_inclusive=lo_inc, hi_inclusive=hi_inc)
    lo = draw(bounds)
    hi = draw(bounds)
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        lo_inc = hi_inc = True  # the only non-empty interval at a point
    return Interval(lo, hi, lo_inclusive=lo_inc, hi_inclusive=hi_inc)


class TestCompiledMatcher:
    @given(any_atoms(), any_value)
    def test_atom_predicate_agrees_with_reference(self, atom, value):
        expected = reference_matches(atom, value)
        assert atom.predicate()(value) is expected
        assert atom.matches(value) is expected

    @given(st.lists(any_atoms(), min_size=1, max_size=4), st.data())
    def test_matcher_agrees_with_reference(self, atom_list, data):
        pattern = Pattern(atom_list)
        point = [data.draw(any_value) for _ in atom_list]
        expected = all(
            reference_matches(a, v) for a, v in zip(atom_list, point)
        )
        assert pattern.matcher(point) is expected
        assert pattern.matches(point) is expected
        assert pattern.matches(tuple(point)) is expected
        assert pattern.filter([point]) == ([point] if expected else [])

    @given(st.lists(any_atoms(), min_size=1, max_size=3), st.data())
    def test_arity_mismatch_raises(self, atom_list, data):
        pattern = Pattern(atom_list)
        short = [data.draw(any_value) for _ in atom_list[1:]]
        with pytest.raises(PatternError):
            pattern.matcher(short)
        with pytest.raises(PatternError):
            pattern.matches(short + [0, 0])

    @given(st.lists(any_atoms(), min_size=1, max_size=3), st.data())
    def test_matcher_is_not_part_of_the_patterns_identity(self, atom_list, data):
        """Compiling changes nothing a pattern pickles to, equals or
        hashes to, and an unpickled pattern compiles its own."""
        fresh = Pattern(atom_list)
        used = Pattern(atom_list)
        point = [data.draw(any_value) for _ in atom_list]
        verdict = used.matcher(point)
        assert used == fresh and hash(used) == hash(fresh)
        for protocol in (2, 4, 5):
            blob = pickle.dumps(used, protocol=protocol)
            assert blob == pickle.dumps(fresh, protocol=protocol)
            clone = pickle.loads(blob)
            assert clone == used and hash(clone) == hash(used)
            assert clone in {used}
            assert clone.matcher(point) is verdict

    def test_pickled_bytes_are_what_they_were_before_the_matcher(self):
        """The wire form is pinned: ``(atoms, schema)`` and nothing else,
        byte for byte what the class wrote before it had a matcher."""
        pattern = Pattern([
            WILDCARD, Equals(3), Interval(0, 5, hi_inclusive=False),
            AtMost(2.5),
        ])
        pattern.matcher  # compile, then look at the state
        assert pattern.__getstate__() == (pattern.atoms, None)
        assert pickle.loads(pickle.dumps(pattern))._matcher is None
        assert pickle.dumps(pattern, protocol=2).hex() == (
            "800263726570726f2e70756e6374756174696f6e2e7061747465726e730a5061"
            "747465726e0a7100298171012863726570726f2e70756e6374756174696f6e2e"
            "61746f6d730a57696c64636172640a71022981710363726570726f2e70756e63"
            "74756174696f6e2e61746f6d730a457175616c730a7104298171054e7d710628"
            "58080000005f6d656d626572737107635f5f6275696c74696e5f5f0a66726f7a"
            "656e7365740a71085d71094b036185710a52710b580500000076616c7565710c"
            "4b037586710d6263726570726f2e70756e6374756174696f6e2e61746f6d730a"
            "496e74657276616c0a710e2981710f4e7d711058070000005f626f756e647371"
            "11284b00884b0589747112738671136263726570726f2e70756e637475617469"
            "6f6e2e61746f6d730a41744d6f73740a7114298171154e7d7116286811286372"
            "6570726f2e70756e6374756174696f6e2e61746f6d730a4e45475f494e460a71"
            "178947400400000000000088747118680c474004000000000000758671196274"
            "711a4e86711b622e"
        )
        assert pickle.dumps(pattern, protocol=4).hex() == (
            "800495fd000000000000008c1a726570726f2e70756e6374756174696f6e2e70"
            "61747465726e73948c075061747465726e949394298194288c17726570726f2e"
            "70756e6374756174696f6e2e61746f6d73948c0857696c646361726494939429"
            "819468048c06457175616c739493942981944e7d94288c085f6d656d62657273"
            "94284b0391948c0576616c7565944b037586946268048c08496e74657276616c"
            "9493942981944e7d948c075f626f756e647394284b00884b0589749473869462"
            "68048c0641744d6f73749493942981944e7d942868142868048c074e45475f49"
            "4e4694939489474004000000000000887494680e474004000000000000758694"
            "6274944e8694622e"
        )


# -- one generated function per shape -----------------------------------------
#
# The matcher's source is compiled once per *shape* -- arity, constrained
# positions, atom kinds, bound inclusivity -- and a pattern binds its own
# constants into it.  Sharing code must never mean sharing a constant.

def shape_of(pattern):
    return tuple((i, a._term()[0]) for i, a in pattern.constrained())


def same_shape_other_constants(atom, data):
    """An atom that compiles to ``atom``'s source over freshly drawn
    constants."""
    kind, _constants = atom._term()
    if kind == "in":
        return InSet(data.draw(st.sets(
            st.one_of(bounds, st.none(), st.text("ab", max_size=1)),
            min_size=1, max_size=4,
        )))
    lo_op, hi_op = kind
    if lo_op is None and hi_op is None:
        return WILDCARD
    lo = data.draw(bounds) if lo_op else NEG_INF
    hi = data.draw(bounds) if hi_op else POS_INF
    if lo_op and hi_op:  # keep it non-empty whatever the inclusivity
        lo = data.draw(st.integers(min_value=-5, max_value=5))
        hi = lo + data.draw(st.integers(min_value=1, max_value=5))
    return Interval(
        lo, hi, lo_inclusive=lo_op == "<=", hi_inclusive=hi_op == "<="
    )


class TestOneFunctionPerShape:
    @given(st.lists(any_atoms(), min_size=1, max_size=4), st.data())
    def test_patterns_of_one_shape_share_code_never_constants(
        self, atom_list, data
    ):
        first = Pattern(atom_list)
        second = Pattern(
            [same_shape_other_constants(a, data) for a in atom_list]
        )
        assert shape_of(first) == shape_of(second)
        assert first.matcher.__code__ is second.matcher.__code__
        assert first.matcher is not second.matcher
        point = [data.draw(any_value) for _ in atom_list]
        for pattern in (first, second):
            expected = all(
                reference_matches(a, v) for a, v in zip(pattern.atoms, point)
            )
            assert pattern.matcher(point) is expected

    def test_same_shape_different_constants_by_hand(self):
        low = Pattern([WILDCARD, InSet({1, 2}), Interval(0, 5, hi_inclusive=False)])
        high = Pattern([WILDCARD, InSet({7}), Interval(10, 15, hi_inclusive=False)])
        assert low.matcher.__code__ is high.matcher.__code__
        assert low.matches((0, 1, 3)) and not high.matches((0, 1, 3))
        assert high.matches((0, 7, 12)) and not low.matches((0, 7, 12))
        # Inclusivity is shape, not constant: a closed interval is other code.
        closed = Pattern([WILDCARD, InSet({7}), Interval(10, 15)])
        assert closed.matcher.__code__ is not high.matcher.__code__
        assert closed.matches((0, 7, 15)) and not high.matches((0, 7, 15))

    def test_constants_are_bound_not_written_into_source(self):
        """A constant whose ``repr`` is not an expression (or is a hostile
        one) still compiles, because it never reaches the source."""

        class Odd:
            def __repr__(self):
                return "__import__('os').abort()"

            def __hash__(self):
                return 7

            def __eq__(self, other):
                return isinstance(other, Odd)

        pattern = Pattern([Equals(Odd()), AtMost("it's")])
        assert pattern.matches((Odd(), "is"))
        assert not pattern.matches((Odd(), "jar"))
        assert pattern.matcher.__code__.co_consts == Pattern(
            [Equals(0), AtMost(1)]).matcher.__code__.co_consts

    def test_atom_predicate_is_the_one_term_instance(self):
        assert (
            AtMost(3).predicate().__code__
            is AtMost("z").predicate().__code__
            is compiled_test(None, ((None, (None, "<=")),))(0).__code__
        )
        assert WILDCARD.predicate()(object()) is True

    def test_shape_cache_stays_bounded(self):
        limit = compiled_test.cache_info().maxsize
        assert limit is not None and limit <= 1024
        members = frozenset([5])
        for arity in range(1, 10_001):
            test = compiled_test(arity, ((0, "in"),))(members)
            assert test((5,) * arity) and not test((4,) * arity)
            assert compiled_test.cache_info().currsize <= limit
        # An evicted shape compiles again and answers the same.
        again = Pattern([Equals(5)])
        assert again.matches([5]) and not again.matches([4])

    def test_the_per_atom_loop_is_gone(self):
        import inspect

        from repro.punctuation import atoms as atoms_module
        from repro.punctuation import patterns as patterns_module

        assert "def in_range" not in inspect.getsource(atoms_module)
        compile_source = inspect.getsource(patterns_module.Pattern._compile)
        assert ".predicate()" not in compile_source
        assert "for index, test in" not in inspect.getsource(patterns_module)
