"""Unit tests for repro.stream.tuples."""

import pytest

from repro.errors import SchemaError
from repro.stream import Schema, StreamTuple


@pytest.fixture
def schema():
    return Schema.of("ts", "seg", "speed")


@pytest.fixture
def tup(schema):
    return StreamTuple(schema, (10.0, 3, 55.0))


class TestConstruction:
    def test_arity_checked(self, schema):
        with pytest.raises(SchemaError):
            StreamTuple(schema, (1, 2))

    def test_from_mapping(self, schema):
        t = StreamTuple.from_mapping(schema, {"ts": 1.0, "seg": 2, "speed": 3.0})
        assert t.values == (1.0, 2, 3.0)

    def test_from_mapping_missing_key(self, schema):
        with pytest.raises(SchemaError, match="missing value"):
            StreamTuple.from_mapping(schema, {"ts": 1.0})

    def test_is_not_punctuation(self, tup):
        assert tup.is_punctuation is False


class TestAccess:
    def test_positional(self, tup):
        assert tup[0] == 10.0
        assert tup[2] == 55.0

    def test_by_name(self, tup):
        assert tup["seg"] == 3

    def test_unknown_name_is_a_schema_error(self, tup):
        with pytest.raises(SchemaError, match="no attribute 'lane'"):
            tup["lane"]

    def test_base_name_of_a_qualified_attribute(self):
        qualified = StreamTuple(Schema.of("probe.ts", "probe.speed"), (1.0, 2.0))
        assert qualified["speed"] == qualified["probe.speed"] == 2.0

    def test_every_key_kind_reads_as_the_values_do(self, tup):
        values = tup.values
        for key in (0, 2, -1, -3, slice(1, None), slice(None, None, -1)):
            assert tup[key] == values[key]
        for name, index in (("ts", 0), ("seg", 1), ("speed", 2)):
            assert tup[name] == values[index]
        with pytest.raises(IndexError):
            tup[3]
        with pytest.raises(TypeError):
            tup[1.0]

    def test_get_with_default(self, tup):
        assert tup.get("speed") == 55.0
        assert tup.get("nope", -1) == -1

    def test_iteration_and_len(self, tup):
        assert list(tup) == [10.0, 3, 55.0]
        assert len(tup) == 3

    def test_as_dict(self, tup):
        assert tup.as_dict() == {"ts": 10.0, "seg": 3, "speed": 55.0}


class TestImmutability:
    def test_setattr_blocked(self, tup):
        with pytest.raises(AttributeError):
            tup.values = (1, 2, 3)

    def test_replace_returns_new(self, tup):
        t2 = tup.replace(speed=60.0)
        assert t2["speed"] == 60.0
        assert tup["speed"] == 55.0


class TestDerivation:
    def test_project(self, tup):
        p = tup.project(["speed", "ts"])
        assert p.values == (55.0, 10.0)
        assert p.schema.names == ("speed", "ts")

    def test_rebind(self, tup):
        other = Schema.of("x", "y", "z")
        assert tup.rebind(other)["x"] == 10.0

    def test_concat(self, schema):
        left = StreamTuple(Schema.of("a"), (1,))
        right = StreamTuple(Schema.of("b"), (2,))
        joined = left.concat(right, Schema.of("a", "b"))
        assert joined.values == (1, 2)


class TestIdentity:
    def test_equal_same_values_and_names(self, schema):
        assert StreamTuple(schema, (1, 2, 3)) == StreamTuple(schema, (1, 2, 3))

    def test_unequal_different_values(self, schema):
        assert StreamTuple(schema, (1, 2, 3)) != StreamTuple(schema, (1, 2, 4))

    def test_hashable_for_multiset_semantics(self, schema):
        s = {StreamTuple(schema, (1, 2, 3)), StreamTuple(schema, (1, 2, 3))}
        assert len(s) == 1

    def test_repr_shows_names(self, tup):
        assert "seg=3" in repr(tup)
