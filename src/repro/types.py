"""Core value types shared by the whole library.

The stream model follows Definition 1 of the paper: a fully dynamic
bipartite graph stream is a sequence of elements ``({u, v}, delta)``
where ``delta`` is ``+`` (insertion) or ``-`` (deletion).  Vertices are
plain hashable identifiers; by convention the generators and loaders in
this repository produce integers for speed, but nothing below requires
that.

An (undirected) edge is canonicalised as a tuple ``(left_vertex,
right_vertex)`` so that the same physical edge always hashes equally no
matter which endpoint the caller mentions first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable, List, Tuple

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class Side(enum.Enum):
    """Which bipartition a vertex belongs to."""

    LEFT = "left"
    RIGHT = "right"

    def other(self) -> "Side":
        """Return the opposite side of the bipartition."""
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


class Op(enum.Enum):
    """Stream operation: edge insertion (``+``) or deletion (``-``)."""

    INSERT = "+"
    DELETE = "-"

    @property
    def sign(self) -> int:
        """``sgn(delta)`` from Algorithm 1: +1 for insert, -1 for delete."""
        return 1 if self is Op.INSERT else -1

    @classmethod
    def from_symbol(cls, symbol: str) -> "Op":
        """Parse ``'+'`` / ``'-'`` (as used in stream files) into an Op."""
        if symbol == "+":
            return cls.INSERT
        if symbol == "-":
            return cls.DELETE
        raise ValueError(f"unknown stream operation symbol: {symbol!r}")


@dataclass(frozen=True, slots=True)
class StreamElement:
    """One element ``e(t) = ({u, v}, delta)`` of a fully dynamic stream.

    Attributes:
        u: the left-partition endpoint of the edge.
        v: the right-partition endpoint of the edge.
        op: whether the edge is being inserted or deleted.
    """

    u: Vertex
    v: Vertex
    op: Op = Op.INSERT

    def __init__(self, u: Vertex, v: Vertex, op: Op = Op.INSERT) -> None:
        # Hand-written: the generated frozen __init__ stores each field
        # through object.__setattr__, while the slot descriptors' own
        # __set__ (bound below the class) is cheaper and just as
        # exempt from the frozen __setattr__.  Elements are built once
        # per stream record, on the wire and in recovery.
        _set_u(self, u)
        _set_v(self, v)
        _set_op(self, op)

    @property
    def edge(self) -> Edge:
        """The edge as a canonical ``(left, right)`` tuple."""
        return (self.u, self.v)

    @property
    def is_insertion(self) -> bool:
        return self.op is Op.INSERT

    @property
    def is_deletion(self) -> bool:
        return self.op is Op.DELETE

    def inverted(self) -> "StreamElement":
        """The element that undoes this one (insert <-> delete)."""
        flipped = Op.DELETE if self.op is Op.INSERT else Op.INSERT
        return StreamElement(self.u, self.v, flipped)

    def to_record(self) -> List[Any]:
        """The element as a durable wire/log record.

        The record grammar — shared by the write-ahead log
        (:mod:`repro.store.wal`) and the serving wire protocol
        (:mod:`repro.serve.protocol`) — is a JSON-ready list::

            [op, u, v]          # StreamElement
            [op, u, v, time]    # TimedEdge

        where ``op`` is the stream symbol (``"+"`` / ``"-"``).
        Durability restricts vertices to the JSON-representable
        identifiers (``int``/``str``) that the snapshot protocol
        already requires; :meth:`from_record` rebuilds the exact
        element, :class:`TimedEdge` subclass included.  The packed
        binary codec (:mod:`repro.store.codec`, WAL format 2 and the
        opt-in wire batch payload) is a lossless re-encoding of this
        same grammar — ``tests/store/test_codec_conformance.py``
        proves the two interchangeable for every record shape.

        >>> insertion("alice", "matrix").to_record()
        ['+', 'alice', 'matrix']
        >>> timed_deletion(3, 7, 2.5).to_record()
        ['-', 3, 7, 2.5]
        """
        return [self.op.value, self.u, self.v]

    @staticmethod
    def from_record(record: List[Any]) -> "StreamElement":
        """Rebuild an element from :meth:`to_record` output.

        A 4-field record carries a timestamp and yields a
        :class:`TimedEdge`; a 3-field record yields a plain
        :class:`StreamElement`.  Malformed records raise ValueError
        (the store and serve layers wrap it into their own errors).

        >>> StreamElement.from_record(["+", "alice", "matrix"])
        StreamElement(u='alice', v='matrix', op=<Op.INSERT: '+'>)
        >>> element = StreamElement.from_record(["-", 3, 7, 2.5])
        >>> type(element).__name__, element.time
        ('TimedEdge', 2.5)
        """
        # The common [op, u, v] list from JSON first; every other shape
        # falls through to the checks below.
        if type(record) is list and len(record) == 3:
            symbol = record[0]
            if symbol == "+":
                return StreamElement(record[1], record[2], Op.INSERT)
            if symbol == "-":
                return StreamElement(record[1], record[2], Op.DELETE)
        if not isinstance(record, (list, tuple)) or len(record) not in (
            3,
            4,
        ):
            raise ValueError(
                f"stream-element record must be [op, u, v(, time)], "
                f"got {record!r}"
            )
        op = Op.from_symbol(record[0])
        if len(record) == 4:
            try:
                time = float(record[3])
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"bad timestamp {record[3]!r} in element record"
                ) from exc
            return TimedEdge(record[1], record[2], op, time)
        return StreamElement(record[1], record[2], op)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.u}, {self.v}, {self.op.value})"


_set_u = StreamElement.u.__set__  # type: ignore[attr-defined]
_set_v = StreamElement.v.__set__  # type: ignore[attr-defined]
_set_op = StreamElement.op.__set__  # type: ignore[attr-defined]


def insertion(u: Vertex, v: Vertex) -> StreamElement:
    """Convenience constructor for an insertion element."""
    return StreamElement(u, v, Op.INSERT)


def deletion(u: Vertex, v: Vertex) -> StreamElement:
    """Convenience constructor for a deletion element."""
    return StreamElement(u, v, Op.DELETE)


@dataclass(frozen=True, slots=True)
class TimedEdge(StreamElement):
    """A :class:`StreamElement` carrying an application timestamp.

    Time-based sliding windows (:mod:`repro.window`) need to know *when*
    an edge arrived, not just in what order; ``TimedEdge`` extends the
    stream element with a ``time`` field measured in arbitrary
    application units (seconds, ticks, ...).  Because it subclasses
    :class:`StreamElement`, every existing estimator and stream utility
    accepts it unchanged — the timestamp is simply ignored outside the
    windowing layer.

    Timestamps within one stream must be non-decreasing; the windowing
    engine enforces that at ingest time.

    >>> e = TimedEdge("alice", "matrix", time=12.5)
    >>> e.is_insertion, e.edge, e.time
    (True, ('alice', 'matrix'), 12.5)
    """

    time: float = 0.0

    def __init__(
        self,
        u: Vertex,
        v: Vertex,
        op: Op = Op.INSERT,
        time: float = 0.0,
    ) -> None:
        # See StreamElement.__init__.
        _set_u(self, u)
        _set_v(self, v)
        _set_op(self, op)
        _set_time(self, time)

    def inverted(self) -> "TimedEdge":
        """The element that undoes this one, at the same timestamp."""
        flipped = Op.DELETE if self.op is Op.INSERT else Op.INSERT
        return TimedEdge(self.u, self.v, flipped, self.time)

    def to_record(self) -> List[Any]:
        """The 4-field ``[op, u, v, time]`` record (see base method).

        >>> timed_insertion("alice", "matrix", 12.5).to_record()
        ['+', 'alice', 'matrix', 12.5]
        """
        return [self.op.value, self.u, self.v, self.time]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.u}, {self.v}, {self.op.value}, t={self.time})"


_set_time = TimedEdge.time.__set__  # type: ignore[attr-defined]


def timed_insertion(u: Vertex, v: Vertex, time: float) -> TimedEdge:
    """Convenience constructor for a timestamped insertion element."""
    return TimedEdge(u, v, Op.INSERT, time)


def timed_deletion(u: Vertex, v: Vertex, time: float) -> TimedEdge:
    """Convenience constructor for a timestamped deletion element."""
    return TimedEdge(u, v, Op.DELETE, time)
