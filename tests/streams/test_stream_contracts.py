"""Stream builders keep Definition 1's contract over their parameter range.

The experiments build their workloads with the deletion injector behind
the alpha sweeps (Fig. 6), its re-insertion variant and the sliding
window, and replay them from the stream file format.  Each is checked
across its parameter grid, where the unit tests beside each module take
one setting: the output is a valid fully dynamic stream (an insertion
only of an absent edge, a deletion only of a live one) of exactly the
promised shape, and the window's three views of expiry agree.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.generators import bipartite_chung_lu
from repro.streams.dynamic import (
    interleave_reinsertions,
    make_fully_dynamic,
    validate_stream,
)
from repro.streams.io import read_stream, write_stream
from repro.streams.stream import EdgeStream
from repro.streams.window import (
    expired_edges,
    sliding_window_stream,
    window_deletion_ratio,
)
from repro.types import Op

EDGES = bipartite_chung_lu(50, 25, 240, rng=random.Random(21))


@pytest.mark.parametrize("alpha", (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0))
def test_injected_deletions_have_the_promised_shape(alpha):
    n = len(EDGES)
    stream = make_fully_dynamic(EDGES, alpha, random.Random(3))
    expected_deletions = round(n * alpha)
    max_edges, final_edges = validate_stream(stream)
    assert len(stream) == n + expected_deletions
    assert stream.num_deletions == expected_deletions
    assert final_edges == stream.final_num_edges == n - expected_deletions
    assert max_edges <= n
    assert stream.deletion_ratio == pytest.approx(
        expected_deletions / (n + expected_deletions)
    )
    inserted = [e.edge for e in stream if e.op is Op.INSERT]
    assert inserted == list(EDGES)


@pytest.mark.parametrize("fraction", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("alpha", (0.1, 0.3, 0.6))
def test_reinsertions_stay_valid_and_live(alpha, fraction):
    n = len(EDGES)
    stream = interleave_reinsertions(EDGES, alpha, fraction, random.Random(4))
    deletions = round(n * alpha)
    reinserted = round(deletions * fraction)
    _, final_edges = validate_stream(stream)
    assert len(stream) == n + deletions + reinserted
    assert stream.num_insertions == n + reinserted
    assert final_edges == n - deletions + reinserted


@pytest.mark.parametrize("window", (1, 7, 60, 240, 1000))
def test_a_sliding_window_holds_the_most_recent_edges(window):
    elements = list(sliding_window_stream(EDGES, window))
    live = []
    for element in elements:
        if element.is_insertion:
            live.append(element.edge)
        else:
            assert element.edge == live.pop(0)
        assert len(live) <= window
    assert live == list(EDGES[-window:])
    validate_stream(elements)
    stream = EdgeStream(elements)
    assert stream.deletion_ratio == pytest.approx(
        window_deletion_ratio(len(EDGES), window)
    )
    expired = [e.edge for e in elements if e.op is Op.DELETE]
    assert expired == list(expired_edges(EDGES, window))


@pytest.mark.parametrize(
    "relabel",
    (
        pytest.param(lambda u, v: (u, v), id="int_ids"),
        pytest.param(lambda u, v: (f"u{u}", f"v{v}"), id="str_ids"),
        pytest.param(lambda u, v: (u, f"item-{v}"), id="mixed_ids"),
    ),
)
@pytest.mark.parametrize("alpha", (0.0, 0.3))
def test_the_stream_file_format_round_trips(tmp_path, relabel, alpha):
    edges = [relabel(u, v) for u, v in EDGES]
    stream = make_fully_dynamic(edges, alpha, random.Random(7))
    path = tmp_path / "stream.txt"
    write_stream(stream, path)
    back = read_stream(path)
    assert [(e.op, e.u, e.v) for e in back] == [
        (e.op, e.u, e.v) for e in stream
    ]
