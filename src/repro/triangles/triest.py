"""TRIEST-FD: lazy fully dynamic triangle estimation (De Stefani et al.).

The second ancestor the paper names in Section VII-A.  Where ThinkD
counts against the sample for *every* arriving element, TRIEST-FD
"plainly discards the edges that are not sampled without using them for
updating its count estimates": counting happens only on *sample
transitions*.

* An **insertion** refines the count only when Random Pairing accepts
  the edge into the sample.  Acceptance is a Bernoulli draw with known
  probability ``q``; the two partner edges of each discovered triangle
  must already be sampled (probability ``p2``, the two-edge analogue of
  Equation 1), so each triangle is weighted by ``1 / (q * p2)``.
* A **deletion** refines the count only when the deleted edge was
  sampled, i.e. all *three* triangle edges were in the sample
  (probability ``p3``); each triangle is weighted by ``-1 / p3``.

Like :class:`~repro.core.lazy.LazyAbacus` (the butterfly port of this
design), the estimator does per-edge counting for only a ``~k/|E|``
fraction of insertions, trading variance for work — and it inherits the
same corner-case blind spot while ``cb = 0 < cg``, where no insertion
can be accepted.  The cross-validation tests measure both effects
against ThinkD on identical streams.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.core.base import ButterflyEstimator
from repro.core.probabilities import subset_inclusion_probability
from repro.errors import EstimatorError, GraphError, SamplingError, StreamError
from repro.sampling.adjacency_sample import GraphSample
from repro.triangles.graph import canonical_edge
from repro.types import Op, StreamElement, Vertex


class TriestFD(ButterflyEstimator):
    """Count triangles only on sample transitions (TRIEST-FD).

    The Random Pairing update is inlined because the counting decision
    must reuse the same acceptance draw that decides the sample update.

    Args:
        budget: memory budget ``k`` (max sampled edges, >= 2).
        seed / rng: randomness source.

    Attributes:
        total_work: neighbour-set element checks performed.
        counted_elements: elements that triggered per-edge counting.
    """

    name = "TriestFD"

    __slots__ = (
        "budget",
        "sample",
        "num_live_edges",
        "cb",
        "cg",
        "_rng",
        "_estimate",
        "total_work",
        "elements_processed",
        "counted_elements",
    )

    def __init__(
        self,
        budget: int,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if budget < 2:
            raise SamplingError(f"memory budget must be >= 2, got {budget}")
        self.budget = budget
        self.sample = GraphSample()
        # Nothing here reads the sample's cheapest-side weights.
        self.sample.keep_weights(False)
        self.num_live_edges = 0
        self.cb = 0
        self.cg = 0
        self._rng = rng if rng is not None else random.Random(seed)
        self._estimate = 0.0
        self.total_work = 0
        self.elements_processed = 0
        self.counted_elements = 0

    @property
    def estimate(self) -> float:
        return self._estimate

    @property
    def memory_edges(self) -> int:
        return self.sample.num_edges

    @property
    def counting_fraction(self) -> float:
        """Fraction of elements that triggered per-edge counting."""
        if self.elements_processed == 0:
            return 0.0
        return self.counted_elements / self.elements_processed

    def process(self, element: StreamElement) -> float:
        if element.u == element.v:
            raise GraphError(
                f"self-loop on vertex {element.u!r} in triangle stream"
            )
        self.elements_processed += 1
        if element.op is Op.INSERT:
            return self._process_insertion(element)
        return self._process_deletion(element)

    # ------------------------------------------------------------------
    # Insertions: count iff the edge is accepted into the sample
    # ------------------------------------------------------------------
    def _process_insertion(self, element: StreamElement) -> float:
        u, v = canonical_edge(element.u, element.v)
        pre = (self.num_live_edges, self.cb, self.cg)
        self.num_live_edges += 1
        uncompensated = self.cb + self.cg
        delta = 0.0
        if uncompensated == 0:
            if self.sample.num_edges < self.budget:
                accept, q = True, 1.0
            else:
                q = self.budget / self.num_live_edges
                accept = self._rng.random() < q
            if accept:
                delta = self._count_and_refine(u, v, q, pre)
                if self.sample.num_edges >= self.budget:
                    self.sample.evict_random_edge(self._rng)
                self.sample.add_edge(u, v)
        else:
            q = self.cb / uncompensated
            if self._rng.random() < q:
                delta = self._count_and_refine(u, v, q, pre)
                self.sample.add_edge(u, v)
                self.cb -= 1
            else:
                self.cg -= 1
        return delta

    # ------------------------------------------------------------------
    # Deletions: count iff the edge was sampled
    # ------------------------------------------------------------------
    def _process_deletion(self, element: StreamElement) -> float:
        u, v = canonical_edge(element.u, element.v)
        if self.num_live_edges <= 0:
            raise StreamError(
                f"deletion of ({u!r}, {v!r}) with no live edges"
            )
        pre_live, pre_cb, pre_cg = self.num_live_edges, self.cb, self.cg
        self.num_live_edges -= 1
        delta = 0.0
        if self.sample.contains(u, v):
            t = pre_live + pre_cb + pre_cg
            y = min(self.budget, t)
            p3 = subset_inclusion_probability(t, y, 3)
            found = self._count_in_sample(u, v)
            self.counted_elements += 1
            if found:
                if p3 <= 0.0:
                    raise EstimatorError(
                        "sampled deletion with zero inclusion probability"
                    )
                delta = -found / p3
                self._estimate += delta
            self.sample.remove_edge(u, v)
            self.cb += 1
        else:
            self.cg += 1
        return delta

    def _count_and_refine(
        self,
        u: Vertex,
        v: Vertex,
        acceptance_probability: float,
        pre_state: Tuple[int, int, int],
    ) -> float:
        pre_live, pre_cb, pre_cg = pre_state
        found = self._count_in_sample(u, v)
        self.counted_elements += 1
        if not found:
            return 0.0
        t = pre_live + pre_cb + pre_cg
        y = min(self.budget, t)
        p2 = subset_inclusion_probability(t, y, 2)
        joint = acceptance_probability * p2
        if joint <= 0.0:
            raise EstimatorError(
                "triangle discovered with zero joint probability"
            )
        delta = found / joint
        self._estimate += delta
        return delta

    def _count_in_sample(self, u: Vertex, v: Vertex) -> int:
        """Triangles the edge ``{u, v}`` closes with two sampled edges."""
        neighbors_u = self.sample.neighbors(u)
        neighbors_v = self.sample.neighbors(v)
        if len(neighbors_u) > len(neighbors_v):
            neighbors_u, neighbors_v = neighbors_v, neighbors_u
        self.total_work += len(neighbors_u)
        return sum(
            1 for w in neighbors_u if w != u and w != v and w in neighbors_v
        )
