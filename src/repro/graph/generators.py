"""Synthetic bipartite graph generators.

The paper evaluates on four KONECT graphs that are unavailable offline
and far too large for a pure-Python reproduction (up to 327M edges).
These generators produce scaled-down *analogues* whose degree skew and
butterfly density can be tuned to match the orderings in Table II; see
``repro/experiments/datasets.py`` for the concrete configurations and
docs/paper_map.md, substitution #1, for the rationale.

All generators are deterministic given a seeded ``random.Random``.
Vertex identifiers are integers: left vertices ``0..n_left-1`` and right
vertices ``n_left..n_left+n_right-1`` so that the two partitions never
collide.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.types import Edge


def power_law_degree_sequence(
    n: int,
    exponent: float,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> List[int]:
    """Sample ``n`` degrees from a discrete power law ``p(d) ~ d^-exponent``.

    Uses inverse-transform sampling on the continuous Pareto and rounds
    down, the standard recipe for scale-free degree sequences.

    Args:
        n: number of vertices.
        exponent: power-law exponent (> 1); smaller means heavier tail.
        min_degree: smallest degree (>= 1).
        max_degree: optional cap on degrees (defaults to ``n``).
        rng: source of randomness (defaults to a fresh unseeded one).
    """
    if exponent <= 1.0:
        raise GraphError(f"power-law exponent must exceed 1, got {exponent}")
    if min_degree < 1:
        raise GraphError(f"min_degree must be >= 1, got {min_degree}")
    rng = rng or random.Random()
    cap = max_degree if max_degree is not None else n
    degrees = []
    inv = 1.0 / (exponent - 1.0)
    for _ in range(n):
        u = rng.random()
        d = int(min_degree * (1.0 - u) ** (-inv))
        degrees.append(max(min_degree, min(d, cap)))
    return degrees


def bipartite_erdos_renyi(
    n_left: int,
    n_right: int,
    n_edges: int,
    rng: Optional[random.Random] = None,
) -> List[Edge]:
    """Uniform random bipartite graph with exactly ``n_edges`` edges.

    Sampled without replacement from the ``n_left x n_right`` grid.
    """
    rng = rng or random.Random()
    cells = n_left * n_right
    if n_edges > cells:
        raise GraphError(
            f"cannot place {n_edges} edges in a {n_left}x{n_right} grid"
        )
    edges: set[Tuple[int, int]] = set()
    while len(edges) < n_edges:
        u = rng.randrange(n_left)
        v = n_left + rng.randrange(n_right)
        edges.add((u, v))
    result = list(edges)
    rng.shuffle(result)
    return result


def bipartite_chung_lu(
    n_left: int,
    n_right: int,
    n_edges: int,
    left_exponent: float = 2.2,
    right_exponent: float = 2.2,
    rng: Optional[random.Random] = None,
) -> List[Edge]:
    """Chung–Lu style power-law bipartite graph with ``n_edges`` edges.

    Each endpoint of each edge is drawn independently from a weight
    distribution proportional to a power-law degree sequence, and
    duplicate edges are rejected.  Expected degrees follow the weights,
    giving realistic skew: a few hub vertices (heavy users / popular
    items) and a long tail.

    Returns the edge list in generation order, which serves as the
    "natural arrival order" of the stream experiments.
    """
    rng = rng or random.Random()
    left_weights = power_law_degree_sequence(
        n_left, left_exponent, rng=rng
    )
    right_weights = power_law_degree_sequence(
        n_right, right_exponent, rng=rng
    )
    left_picker = _WeightedPicker(left_weights, rng)
    right_picker = _WeightedPicker(right_weights, rng)
    edges: set[Tuple[int, int]] = set()
    ordered: List[Edge] = []
    attempts = 0
    max_attempts = 50 * n_edges + 1000
    while len(ordered) < n_edges:
        attempts += 1
        if attempts > max_attempts:
            raise GraphError(
                "Chung-Lu generator failed to place enough distinct edges; "
                "increase vertex counts or lower n_edges"
            )
        u = left_picker.pick()
        v = n_left + right_picker.pick()
        if (u, v) in edges:
            continue
        edges.add((u, v))
        ordered.append((u, v))
    return ordered


def bipartite_configuration_model(
    left_degrees: Sequence[int],
    right_degrees: Sequence[int],
    rng: Optional[random.Random] = None,
) -> List[Edge]:
    """Configuration-model bipartite graph from two degree sequences.

    Creates stubs for each vertex, shuffles, and pairs them; duplicate
    pairings are dropped (so realised degrees can fall slightly short of
    the prescription, as usual for simple-graph projections of the
    configuration model).  The two stub totals need not match exactly;
    the pairing stops at the shorter side.
    """
    rng = rng or random.Random()
    n_left = len(left_degrees)
    left_stubs: List[int] = []
    for u, d in enumerate(left_degrees):
        left_stubs.extend([u] * d)
    right_stubs: List[int] = []
    for i, d in enumerate(right_degrees):
        right_stubs.extend([n_left + i] * d)
    rng.shuffle(left_stubs)
    rng.shuffle(right_stubs)
    seen: set[Tuple[int, int]] = set()
    edges: List[Edge] = []
    for u, v in zip(left_stubs, right_stubs):
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v))
    return edges


def planted_bicliques(
    n_left: int,
    n_right: int,
    n_background_edges: int,
    n_cliques: int,
    clique_size: Tuple[int, int],
    rng: Optional[random.Random] = None,
) -> List[Edge]:
    """Sparse background plus planted dense bicliques.

    Used by the anomaly-detection example: each planted
    ``a x b`` biclique injects ``C(a,2)*C(b,2)`` butterflies at a known
    position in the stream, producing a burst an estimator should see.

    Args:
        n_left: left vertices available for the background.
        n_right: right vertices available for the background.
        n_background_edges: uniform background edges.
        n_cliques: number of planted bicliques.
        clique_size: ``(a, b)`` dimensions of each planted biclique.
        rng: randomness source.

    Returns:
        Edge list: background edges in random order with each planted
        biclique's edges inserted contiguously at a random offset.
    """
    rng = rng or random.Random()
    background = bipartite_erdos_renyi(
        n_left, n_right, n_background_edges, rng
    )
    a, b = clique_size
    edges = list(background)
    used = set(background)
    for c in range(n_cliques):
        lefts = rng.sample(range(n_left), a)
        rights = [n_left + r for r in rng.sample(range(n_right), b)]
        clique_edges = [
            (u, v) for u in lefts for v in rights if (u, v) not in used
        ]
        used.update(clique_edges)
        offset = rng.randrange(len(edges) + 1)
        edges[offset:offset] = clique_edges
    return edges


class _WeightedPicker:
    """O(1) weighted sampling over a fixed integer weight vector.

    Implements the alias method; rebuilding is unnecessary because
    weights are fixed for the lifetime of a generator call.
    """

    __slots__ = ("_rng", "_n", "_prob", "_alias")

    def __init__(self, weights: Sequence[int], rng: random.Random) -> None:
        self._rng = rng
        n = len(weights)
        self._n = n
        total = float(sum(weights))
        scaled = [w * n / total for w in weights]
        prob = [0.0] * n
        alias = [0] * n
        small = [i for i, p in enumerate(scaled) if p < 1.0]
        large = [i for i, p in enumerate(scaled) if p >= 1.0]
        while small and large:
            s = small.pop()
            lg = large.pop()
            prob[s] = scaled[s]
            alias[s] = lg
            scaled[lg] = scaled[lg] + scaled[s] - 1.0
            if scaled[lg] < 1.0:
                small.append(lg)
            else:
                large.append(lg)
        for i in large:
            prob[i] = 1.0
        for i in small:
            prob[i] = 1.0
        self._prob = prob
        self._alias = alias

    def pick(self) -> int:
        i = self._rng.randrange(self._n)
        if self._rng.random() < self._prob[i]:
            return i
        return self._alias[i]
