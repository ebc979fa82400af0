"""Unit tests for the core value types."""

import pytest

from repro.errors import (
    DuplicateEdgeError,
    EstimatorError,
    GraphError,
    MissingEdgeError,
    PartitionError,
    ReproError,
    SamplingError,
    StreamError,
)
from repro.types import (
    Op,
    Side,
    StreamElement,
    TimedEdge,
    deletion,
    insertion,
    timed_deletion,
    timed_insertion,
)


class TestOp:
    def test_signs(self):
        assert Op.INSERT.sign == 1
        assert Op.DELETE.sign == -1

    def test_from_symbol(self):
        assert Op.from_symbol("+") is Op.INSERT
        assert Op.from_symbol("-") is Op.DELETE

    def test_from_symbol_invalid(self):
        with pytest.raises(ValueError):
            Op.from_symbol("x")

    def test_values_match_stream_format(self):
        assert Op.INSERT.value == "+"
        assert Op.DELETE.value == "-"


class TestSide:
    def test_other(self):
        assert Side.LEFT.other() is Side.RIGHT
        assert Side.RIGHT.other() is Side.LEFT


class TestStreamElement:
    def test_defaults_to_insertion(self):
        assert StreamElement(1, 2).op is Op.INSERT

    def test_edge_property(self):
        assert StreamElement(1, 2).edge == (1, 2)

    def test_predicates(self):
        assert insertion(1, 2).is_insertion
        assert not insertion(1, 2).is_deletion
        assert deletion(1, 2).is_deletion

    def test_inverted(self):
        assert insertion(1, 2).inverted() == deletion(1, 2)
        assert deletion(1, 2).inverted() == insertion(1, 2)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            insertion(1, 2).u = 5

    def test_hashable_and_equal(self):
        assert insertion(1, 2) == insertion(1, 2)
        assert insertion(1, 2) != deletion(1, 2)
        assert len({insertion(1, 2), insertion(1, 2)}) == 1


class TestTimedEdge:
    def test_is_a_stream_element(self):
        element = timed_insertion("u", "v", 3.5)
        assert isinstance(element, StreamElement)
        assert element.edge == ("u", "v")
        assert element.is_insertion
        assert element.time == 3.5

    def test_constructors(self):
        assert timed_insertion(1, 2, 0.5).op is Op.INSERT
        assert timed_deletion(1, 2, 0.5).op is Op.DELETE

    def test_frozen_and_hashable(self):
        element = TimedEdge("u", "v", Op.INSERT, 1.0)
        with pytest.raises(AttributeError):
            element.time = 2.0
        assert element == TimedEdge("u", "v", Op.INSERT, 1.0)
        assert element != TimedEdge("u", "v", Op.INSERT, 2.0)

    def test_equality_distinguishes_from_untimed(self):
        # A timestamp is part of identity; a plain element has none.
        assert timed_insertion("u", "v", 0.0) != insertion("u", "v")

    def test_inverted_preserves_type_and_timestamp(self):
        element = timed_insertion("u", "v", 4.5)
        undone = element.inverted()
        assert isinstance(undone, TimedEdge)
        assert undone == timed_deletion("u", "v", 4.5)
        assert undone.inverted() == element


class TestRecords:
    """``from_record`` takes [op, u, v] lists first, then every shape."""

    @pytest.mark.parametrize(
        "element",
        [
            insertion(1, 2),
            deletion("u", "v"),
            timed_insertion(1, 2, 0.5),
            timed_deletion("u", "v", 4.0),
        ],
    )
    def test_round_trip(self, element):
        record = element.to_record()
        for shape in (record, tuple(record)):
            rebuilt = StreamElement.from_record(shape)
            assert rebuilt == element
            assert type(rebuilt) is type(element)

    def test_list_and_tuple_records_agree(self):
        for symbol, op in (("+", Op.INSERT), ("-", Op.DELETE)):
            from_list = StreamElement.from_record([symbol, 3, 7])
            from_tuple = StreamElement.from_record((symbol, 3, 7))
            assert from_list == from_tuple == StreamElement(3, 7, op)
            assert type(from_list) is StreamElement

    @pytest.mark.parametrize(
        "record",
        [["x", 1, 2], ["+", 1], ["+", 1, 2, 3, 4], "+ab", ["+", 1, 2, "t"]],
    )
    def test_malformed(self, record):
        with pytest.raises(ValueError):
            StreamElement.from_record(record)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for cls in (
            GraphError,
            PartitionError,
            DuplicateEdgeError,
            MissingEdgeError,
            StreamError,
            SamplingError,
            EstimatorError,
        ):
            assert issubclass(cls, ReproError)

    def test_graph_errors_grouped(self):
        for cls in (PartitionError, DuplicateEdgeError, MissingEdgeError):
            assert issubclass(cls, GraphError)
