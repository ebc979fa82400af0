"""CAS-R — co-affiliation sampling with an AMS sketch (insert-only).

A reimplementation in the spirit of Li et al., "Approximately Counting
Butterflies in Large Bipartite Graph Streams" (TKDE 2022), configured as
in the paper under reproduction: the best variant CAS-R with a fraction
``lambda = 0.33`` of the memory budget devoted to the sketch.

Design (see docs/paper_map.md, substitution #3, for the fidelity
argument):

* A classic edge reservoir holds ``(1 - lambda) * k`` edges.
* Every arriving edge ``(u, v)`` *discovers* left-side co-affiliation
  wedges: for each sampled neighbour ``x`` of ``v`` (``x != u``), the
  pair ``{u, x}`` gained a common neighbour.  A butterfly is exactly two
  such wedges on the same pair with different centres, so when a new
  wedge for pair ``{u, x}`` appears, the number of butterflies it
  completes equals the pair's previously recorded wedge count — which
  CAS looks up with a *point query* on its Count-Sketch/AMS structure
  rather than an exact (memory-hungry) hash map.
* Wedges are recorded in the sketch with weight ``1 / p_record`` (the
  reservoir inclusion probability at record time), making point queries
  estimates of *true* per-pair wedge counts; each completion is then
  scaled by ``1 / p_now`` for the current wedge's own discovery
  probability.  Both corrections together make every butterfly
  contribute one in expectation on an insert-only stream.

Like FLEET, CAS is insert-only: deletion elements are skipped.  Per-edge
work includes ``depth`` sketch-row updates per discovered wedge, which
is why CAS throughput trails the purely sample-based methods (the paper
observes "around half of the time in CAS is attributed to the update of
the sketch", Section VI-C).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.base import ButterflyEstimator
from repro.errors import EstimatorError
from repro.sampling.adjacency_sample import GraphSample
from repro.sketch.ams import AmsSketch
from repro.types import Op, StreamElement, Vertex


class CoAffiliationSampling(ButterflyEstimator):
    """CAS-R butterfly estimator: reservoir + AMS sketch (insert-only).

    Args:
        budget: total memory budget ``k``, measured in edges; a
            ``sketch_fraction`` share is converted into sketch counters
            (one sampled edge is charged the same as two integer
            counters, a deliberately simple cost model).
        sketch_fraction: λ — fraction of the budget spent on the sketch
            (paper default 0.33).
        sketch_depth: AMS rows (median-of-rows robustness).
        seed / rng: randomness source.
    """

    name = "CAS"
    #: Insert-only: deletions are skipped, so windowing (which works by
    #: synthesizing deletions) cannot wrap this estimator.
    supports_deletions = False

    __slots__ = (
        "budget",
        "sketch_fraction",
        "_sample",
        "_sketch",
        "_rng",
        "_estimate",
        "_edges_seen",
        "_reservoir_capacity",
        "total_work",
        "elements_processed",
        "sketch_updates",
    )

    def __init__(
        self,
        budget: int,
        sketch_fraction: float = 0.33,
        sketch_depth: int = 5,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if budget < 4:
            raise EstimatorError(f"budget must be >= 4, got {budget}")
        if not 0.0 < sketch_fraction < 1.0:
            raise EstimatorError(
                f"sketch_fraction must be in (0, 1), got {sketch_fraction}"
            )
        self.budget = budget
        self.sketch_fraction = sketch_fraction
        self._rng = rng if rng is not None else random.Random(seed)
        self._reservoir_capacity = max(
            2, round(budget * (1.0 - sketch_fraction))
        )
        # Cost model: one stored edge (two vertex ids + adjacency
        # overhead) is charged like four sketch counters.
        sketch_counters = max(
            sketch_depth, 4 * (budget - self._reservoir_capacity)
        )
        width = max(1, sketch_counters // sketch_depth)
        self._sketch = AmsSketch(
            width=width, depth=sketch_depth, rng=self._rng
        )
        self._sample = GraphSample()
        # Nothing here reads the sample's cheapest-side weights.
        self._sample.keep_weights(False)
        self._estimate = 0.0
        self._edges_seen = 0
        self.total_work = 0
        self.elements_processed = 0
        self.sketch_updates = 0

    @property
    def estimate(self) -> float:
        return self._estimate

    @property
    def memory_edges(self) -> int:
        return self._sample.num_edges

    @property
    def reservoir_capacity(self) -> int:
        return self._reservoir_capacity

    @property
    def inclusion_probability(self) -> float:
        """Probability a past edge is currently in the reservoir."""
        if self._edges_seen == 0:
            return 1.0
        return min(1.0, self._reservoir_capacity / self._edges_seen)

    def process(self, element: StreamElement) -> float:
        self.elements_processed += 1
        if element.op is Op.DELETE:
            return 0.0  # CAS is insert-only: deletions are discarded.
        u, v = element.u, element.v
        p = self.inclusion_probability
        delta = 0.0
        # Discover the new left-pair wedges the edge creates with sampled
        # edges, complete butterflies via sketch point queries, then
        # record the wedges in the sketch with inverse-probability weight.
        for x in self._sample.neighbors(v):
            if x == u:
                continue
            self.total_work += 1
            key = _pair_key(u, x)
            # The point estimate is unbiased with zero-mean noise; it is
            # deliberately *not* clamped at zero — truncation would turn
            # the symmetric noise into a large positive bias.
            recorded = self._sketch.query_update(key, 1.0 / p)
            delta += recorded / p
            self.sketch_updates += 1
        self._estimate += delta
        self._offer_to_reservoir(u, v)
        return delta

    def _offer_to_reservoir(self, u: Vertex, v: Vertex) -> None:
        """Standard reservoir sampling over the edge sequence."""
        self._edges_seen += 1
        if self._sample.num_edges < self._reservoir_capacity:
            self._sample.add_edge(u, v)
            return
        j = self._rng.randrange(self._edges_seen)
        if j < self._reservoir_capacity:
            self._sample.evict_random_edge(self._rng)
            self._sample.add_edge(u, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CoAffiliationSampling(k={self.budget}, "
            f"|R|={self._sample.num_edges}/{self._reservoir_capacity}, "
            f"estimate={self._estimate:.1f})"
        )


def _pair_key(a: Vertex, b: Vertex) -> int:
    """Symmetric integer key for an unordered vertex pair.

    The sketch needs ``key(a, b) == key(b, a)``; an order-insensitive
    combination of the two hashes achieves that for any hashable ids.
    """
    ha, hb = hash(a), hash(b)
    if ha > hb:
        ha, hb = hb, ha
    return (ha * 0x9E3779B97F4A7C15 + hb) & 0x7FFFFFFFFFFFFFFF
