"""Fully dynamic bipartite graph stream model.

Provides the stream container, synthesis of fully dynamic streams from
insertion-only edge lists (the paper's deletion-injection protocol),
stream file I/O, replay/validation utilities, and mini-batching for
PARABACUS.
"""

from repro.streams.stream import EdgeStream
from repro.streams.dynamic import (
    make_fully_dynamic,
    validate_stream,
    stream_from_edges,
)
from repro.streams.io import (
    load_konect,
    read_stream,
    write_stream,
)
from repro.streams.minibatch import iter_minibatches
from repro.streams.window import sliding_window_stream, windowed_counts

__all__ = [
    "EdgeStream",
    "make_fully_dynamic",
    "stream_from_edges",
    "validate_stream",
    "load_konect",
    "read_stream",
    "write_stream",
    "iter_minibatches",
    "sliding_window_stream",
    "windowed_counts",
]
