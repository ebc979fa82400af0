"""LazyAbacus — a TRIEST-style ablation of ABACUS.

Section VII of the paper contrasts two philosophies from the triangle
literature: TRIEST "plainly discards the edges that are not sampled
without using them for updating its count estimates", while ThinkD (and
ABACUS) "leverages the non-sampled edges to update its estimates before
discarding them".

This module implements the *lazy* (TRIEST-style) variant on top of the
same Random Pairing sampler so the trade-off can be measured:

* An **insertion** refines the count only when Random Pairing *accepts*
  the edge into the sample.  Acceptance is an independent Bernoulli
  draw with a known probability ``q``, so each discovered butterfly is
  weighted by ``1 / (q * p3)`` where ``p3`` is Equation 1.
* A **deletion** refines the count only when the deleted edge *was*
  sampled, which happens with the 4-edge inclusion probability ``p4``;
  discovered butterflies are weighted by ``1 / p4``.

The payoff is doing per-edge counting for only a ``~q`` fraction of
insertions (big work savings when ``k << |E|``); the cost is higher
variance and a known corner-case bias: while ``cb = 0 < cg`` (pending
deletions all missed the sample), Random Pairing accepts *no* new edge,
so butterflies created in that regime are never observed (``q = 0``).
ABACUS's count-every-edge design avoids exactly this — which is the
point of the ablation.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.base import ButterflyEstimator
from repro.core.counting import count_with_sample
from repro.core.probabilities import (
    discovery_probability,
    subset_inclusion_probability,
)
from repro.errors import EstimatorError, SamplingError, StreamError
from repro.sampling.adjacency_sample import GraphSample
from repro.types import Op, StreamElement


class LazyAbacus(ButterflyEstimator):
    """Count butterflies only on sample transitions (TRIEST-style).

    The Random Pairing update is inlined (rather than delegated to
    :class:`~repro.sampling.random_pairing.RandomPairing`) because the
    counting decision must reuse the *same* acceptance draw that decides
    the sample update.

    Args:
        budget: memory budget ``k``.
        seed / rng: randomness source.
    """

    name = "LazyAbacus"

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
        # Counting only on sample transitions, this reads the side test
        # about once per mutation, so summing degrees there is cheaper
        # than keeping the sample's cheapest-side weights.
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
        self.elements_processed += 1
        if element.op is Op.INSERT:
            return self._process_insertion(element)
        return self._process_deletion(element)

    # ------------------------------------------------------------------
    # Insertions: count iff the edge is accepted into the sample
    # ------------------------------------------------------------------
    def _process_insertion(self, element: StreamElement) -> float:
        u, v = element.u, element.v
        # Pre-update state for the Equation 1 probability.
        pre_live, pre_cb, pre_cg = self.num_live_edges, self.cb, self.cg
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
                # Count against S^(t-1) BEFORE the eviction/insertion.
                delta = self._count_and_refine(
                    u, v, sign=1, acceptance_probability=q,
                    pre_state=(pre_live, pre_cb, pre_cg),
                )
                if self.sample.num_edges >= self.budget:
                    self.sample.evict_random_edge(self._rng)
                self.sample.add_edge(u, v)
        else:
            q = self.cb / uncompensated
            if self._rng.random() < q:
                delta = self._count_and_refine(
                    u, v, sign=1, acceptance_probability=q,
                    pre_state=(pre_live, pre_cb, pre_cg),
                )
                self.sample.add_edge(u, v)
                self.cb -= 1
            else:
                self.cg -= 1
        return delta

    # ------------------------------------------------------------------
    # Deletions: count iff the edge was sampled
    # ------------------------------------------------------------------
    def _process_deletion(self, element: StreamElement) -> float:
        u, v = element.u, element.v
        if self.num_live_edges <= 0:
            raise StreamError(
                f"deletion of ({u!r}, {v!r}) with no live edges"
            )
        pre_live, pre_cb, pre_cg = self.num_live_edges, self.cb, self.cg
        self.num_live_edges -= 1
        delta = 0.0
        if self.sample.contains(u, v):
            # The deleted edge and the three butterfly partners must all
            # be sampled: 4-edge inclusion probability on the pre-update
            # state.
            t = pre_live + pre_cb + pre_cg
            y = min(self.budget, t)
            p4 = subset_inclusion_probability(t, y, 4)
            # Count against the sample with the edge still present; the
            # counting core excludes the edge's own endpoints.
            found, work = count_with_sample(self.sample, u, v)
            self.total_work += work
            self.counted_elements += 1
            if found:
                if p4 <= 0.0:
                    raise EstimatorError(
                        "sampled deletion with zero inclusion probability"
                    )
                delta = -found / p4
                self._estimate += delta
            self.sample.remove_edge(u, v)
            self.cb += 1
        else:
            self.cg += 1
        return delta

    def _count_and_refine(
        self,
        u,
        v,
        sign: int,
        acceptance_probability: float,
        pre_state,
    ) -> float:
        pre_live, pre_cb, pre_cg = pre_state
        found, work = count_with_sample(self.sample, u, v)
        self.total_work += work
        self.counted_elements += 1
        if not found:
            return 0.0
        p3 = discovery_probability(pre_live, pre_cb, pre_cg, self.budget)
        joint = acceptance_probability * p3
        if joint <= 0.0:
            raise EstimatorError(
                "butterfly discovered with zero joint probability"
            )
        delta = sign * found / joint
        self._estimate += delta
        return delta
