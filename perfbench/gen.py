"""Benchmark-owned inputs: power-law Chung–Lu streams with α deletions.

The generator lives with the benchmark, not in ``repro.graph`` or
``repro.streams``, so that a change to those modules cannot shift a
workload: the same ``(workload, seed)`` yields the same elements on
every commit.  Elements are built through the public
``repro.types.insertion`` / ``deletion`` constructors.

Deletions follow §VI-A of the paper: insert every edge in its natural
(generation) order, pick ``α`` of the edges, and place each one's
deletion at a uniformly random point after its insertion.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import List, Tuple

from repro.types import StreamElement, deletion, insertion

#: Power-law exponent of the Chung–Lu weights on both sides.
EXPONENT = 2.2

#: Share of edges that are deleted later in the stream (the paper's α).
ALPHA = 0.2


def stream_rng(workload: str, seed: int) -> random.Random:
    """The generator's RNG for one workload and seed.

    String seeds hash with SHA-512, so the stream does not depend on
    ``PYTHONHASHSEED`` or on the process.
    """
    return random.Random(f"perfbench:{workload}:{seed}")


def _weights(n: int) -> List[float]:
    """Power-law weights with tail exponent :data:`EXPONENT`, capped at
    ``n``: the Pareto quantiles at ``(i + 0.5) / n``.

    They do not depend on the seed.  Drawn weights would make the hub
    degrees — and with them the counting work per element — vary by
    several tens of percent from seed to seed, which the benchmark's
    runs over different seeds would report as noise.  The seed picks
    the edges, their order and the deletions.
    """
    inverse = 1.0 / (EXPONENT - 1.0)
    return [
        min(float(n), (1.0 - (i + 0.5) / n) ** -inverse) for i in range(n)
    ]


def chung_lu_edges(
    n_left: int, n_right: int, n_edges: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """``n_edges`` distinct edges, endpoints drawn by power-law weight.

    Left vertices are ``0..n_left-1`` and right vertices follow them,
    so the two sides never collide.  Duplicate draws are rejected.
    """
    left_cum = list(accumulate(_weights(n_left)))
    right_cum = list(accumulate(_weights(n_right)))
    # Lists, not ranges: every draw of a vertex returns the same int
    # object, so the stream holds no per-element vertex copies.
    lefts = list(range(n_left))
    rights = list(range(n_left, n_left + n_right))
    seen = set()
    edges: List[Tuple[int, int]] = []
    drawn = 0
    while len(edges) < n_edges:
        block = max(1024, n_edges - len(edges))
        drawn += block
        if drawn > 50 * n_edges + 10_000:
            raise ValueError(
                f"cannot place {n_edges} distinct edges on "
                f"{n_left}x{n_right} vertices"
            )
        us = rng.choices(lefts, cum_weights=left_cum, k=block)
        vs = rng.choices(rights, cum_weights=right_cum, k=block)
        for edge in zip(us, vs):
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
                if len(edges) == n_edges:
                    break
    return edges


def place_deletions(
    edges: List[Tuple[int, int]], rng: random.Random, alpha: float = ALPHA
) -> List[StreamElement]:
    """Interleave deletions of ``alpha`` of ``edges`` after their insertion.

    Insertion ``i`` sits at position ``i``; a deleted edge's deletion
    gets a uniform position in ``(i, n)``.  Sorting by position (an
    insertion first on a tie) yields a valid fully dynamic stream.
    """
    n = len(edges)
    keyed = [(float(i), 0, i) for i in range(n)]
    for i in rng.sample(range(n), round(n * alpha)):
        keyed.append((i + (n - i) * rng.random(), 1, i))
    keyed.sort()
    return [
        insertion(*edges[i]) if kind == 0 else deletion(*edges[i])
        for _, kind, i in keyed
    ]


def make_stream(
    workload: str, seed: int, n_left: int, n_right: int, n_edges: int
) -> List[StreamElement]:
    """The fully dynamic stream of one workload at one seed."""
    rng = stream_rng(workload, seed)
    return place_deletions(chung_lu_edges(n_left, n_right, n_edges, rng), rng)
