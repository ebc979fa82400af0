"""ThinkD-style fully dynamic triangle estimation (Shin et al.).

The direct ancestor of ABACUS (paper, Section VII-A): maintain a uniform
Random Pairing sample of the unipartite edge stream; for every arriving
element — sampled or not — count the triangles it closes with *two*
sampled edges and weight each by the reciprocal of the two-edge
inclusion probability

    Pr2(|E|, cb, cg) = y/T · (y-1)/(T-1),   T = |E|+cb+cg, y = min(k, T)

(the two-edge analogue of the paper's Equation 1).  Unbiasedness follows
by the same argument as Theorem 1.

Implemented on the *same* sampling substrate as ABACUS
(:class:`~repro.sampling.random_pairing.RandomPairing` over a
:class:`~repro.sampling.adjacency_sample.GraphSample`), which is the
point: one Random Pairing implementation serves both motifs, and the
triangle tests cross-validate it.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.base import ButterflyEstimator
from repro.core.probabilities import subset_inclusion_probability
from repro.errors import EstimatorError, GraphError
from repro.sampling.random_pairing import RandomPairing
from repro.triangles.exact import triangles_containing_edge
from repro.triangles.graph import UndirectedGraph, canonical_edge
from repro.types import Op, StreamElement


class ThinkD(ButterflyEstimator):
    """Approximate triangle counting on fully dynamic unipartite streams.

    The :class:`~repro.core.base.ButterflyEstimator` interface is reused
    (it is motif-agnostic: process elements, expose an estimate).

    Args:
        budget: memory budget ``k`` (max sampled edges, >= 2).
        seed / rng: randomness source.
    """

    name = "ThinkD"

    __slots__ = ("_sampler", "_estimate", "total_work", "elements_processed")

    def __init__(
        self,
        budget: int,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rng is None:
            rng = random.Random(seed)
        self._sampler = RandomPairing(budget, rng)
        # Nothing here reads the sample's cheapest-side weights.
        self._sampler.sample.keep_weights(False)
        self._estimate = 0.0
        self.total_work = 0
        self.elements_processed = 0

    @property
    def estimate(self) -> float:
        return self._estimate

    @property
    def memory_edges(self) -> int:
        return self._sampler.sample.num_edges

    @property
    def sampler(self) -> RandomPairing:
        return self._sampler

    def process(self, element: StreamElement) -> float:
        """Count triangles closed by the element, then update the sample."""
        u, v = element.u, element.v
        if u == v:
            raise GraphError(f"self-loop on vertex {u!r} in triangle stream")
        self.elements_processed += 1
        sample = self._sampler.sample
        neighbors_u = sample.neighbors(u)
        neighbors_v = sample.neighbors(v)
        if len(neighbors_u) > len(neighbors_v):
            neighbors_u, neighbors_v = neighbors_v, neighbors_u
        self.total_work += len(neighbors_u)
        found = sum(
            1
            for w in neighbors_u
            if w != u and w != v and w in neighbors_v
        )
        delta = 0.0
        if found:
            probability = self._two_edge_probability()
            if probability <= 0.0:
                raise EstimatorError(
                    "triangle discovered with zero discovery probability"
                )
            delta = element.op.sign * found / probability
            self._estimate += delta
        edge = canonical_edge(u, v)
        if element.op is Op.INSERT:
            self._sampler.insert(*edge)
        else:
            self._sampler.delete(*edge)
        return delta

    def _two_edge_probability(self) -> float:
        s = self._sampler
        t = s.num_live_edges + s.cb + s.cg
        y = min(s.budget, t)
        return subset_inclusion_probability(t, y, 2)


class ExactTriangleCounter(ButterflyEstimator):
    """Exact streaming triangle oracle (stores the whole graph)."""

    name = "ExactTriangles"

    __slots__ = ("_graph", "_count")

    def __init__(self) -> None:
        self._graph = UndirectedGraph()
        self._count = 0

    @property
    def graph(self) -> UndirectedGraph:
        return self._graph

    @property
    def estimate(self) -> float:
        return float(self._count)

    @property
    def exact_count(self) -> int:
        return self._count

    @property
    def memory_edges(self) -> int:
        return self._graph.num_edges

    def process(self, element: StreamElement) -> float:
        u, v = element.u, element.v
        if element.op is Op.INSERT:
            delta = triangles_containing_edge(self._graph, u, v)
            self._graph.add_edge(u, v)
            self._count += delta
            return float(delta)
        self._graph.remove_edge(u, v)
        delta = triangles_containing_edge(self._graph, u, v)
        self._count -= delta
        return float(-delta)
