"""Per-vertex (local) butterfly estimation on fully dynamic streams.

Global counts answer "how cohesive is the graph"; many applications
(anomaly scoring of a specific account, per-community monitoring) want
the butterfly count *of a vertex*: the number of butterflies the vertex
participates in.  The TRIEST/ThinkD line of triangle work maintains such
local counts alongside the global one, and the same extension applies to
ABACUS: every butterfly ``{u, v, w, x}`` discovered through the sample
with increment ``1/p`` contributes ``sgn/p`` to each of its four
vertices' local estimates.  By linearity of expectation, each local
estimate is unbiased for the vertex's true participation count.

Memory: the global ABACUS state plus one float per *watched* vertex.
Watch either an explicit set of vertices (bounded, production-style) or
every vertex ever touched (unbounded, convenient for analysis).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Set

from repro.core.base import ButterflyEstimator
from repro.core.counting import u_side_cheaper
from repro.core.probabilities import discovery_probability
from repro.errors import EstimatorError
from repro.sampling.random_pairing import RandomPairing
from repro.types import StreamElement, Vertex


class AbacusLocal(ButterflyEstimator):
    """ABACUS with per-vertex butterfly estimates.

    Args:
        budget: memory budget ``k`` for the edge sample.
        watch: vertices whose local counts to maintain; ``None`` watches
            every vertex that ever appears in a discovered butterfly
            (memory then grows with the touched-vertex count).
        seed / rng: randomness as in :class:`~repro.core.abacus.Abacus`.

    Example:
        >>> from repro.types import insertion
        >>> est = AbacusLocal(budget=100, watch={"alice"}, seed=1)
        >>> est.process(insertion("alice", "item1"))
        0.0
        >>> est.local_estimate("alice")
        0.0
    """

    name = "AbacusLocal"

    def __init__(
        self,
        budget: int,
        watch: Optional[Iterable[Vertex]] = None,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rng is None:
            rng = random.Random(seed)
        self._sampler = RandomPairing(budget, rng)
        self._estimate = 0.0
        self._watch: Optional[Set[Vertex]] = (
            set(watch) if watch is not None else None
        )
        self._local: Dict[Vertex, float] = {}
        self.elements_processed = 0
        self.total_work = 0

    # ------------------------------------------------------------------
    # ButterflyEstimator interface
    # ------------------------------------------------------------------
    @property
    def estimate(self) -> float:
        return self._estimate

    @property
    def memory_edges(self) -> int:
        return self._sampler.sample.num_edges

    @property
    def sampler(self) -> RandomPairing:
        return self._sampler

    def local_estimate(self, vertex: Vertex) -> float:
        """The vertex's estimated butterfly participation count."""
        if self._watch is not None and vertex not in self._watch:
            raise EstimatorError(
                f"vertex {vertex!r} is not in the watch set"
            )
        return self._local.get(vertex, 0.0)

    def local_estimates(self) -> Dict[Vertex, float]:
        """Snapshot of all maintained local estimates."""
        return dict(self._local)

    def top_vertices(self, limit: int = 10):
        """Watched vertices with the largest local estimates."""
        ranked = sorted(
            self._local.items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:limit]

    def process(self, element: StreamElement) -> float:
        """Count butterflies per discovered (w, x) pair, then sample.

        Unlike :func:`repro.core.counting.count_with_sample`, the
        discovery loop here keeps the identities of the third and fourth
        vertices so their local counts can be credited.
        """
        self.elements_processed += 1
        sampler = self._sampler
        sample = sampler.sample
        u, v = element.u, element.v
        neighbors_u = sample.neighbors(u)
        neighbors_v = sample.neighbors(v)
        delta = 0.0
        if neighbors_u and neighbors_v:
            if u_side_cheaper(sample, neighbors_u, neighbors_v):
                anchors, opposite = neighbors_u, neighbors_v
                skip_anchor, skip_common = v, u
            else:
                anchors, opposite = neighbors_v, neighbors_u
                skip_anchor, skip_common = u, v
            probability: Optional[float] = None
            sign = element.op.sign
            for w in anchors:
                if w == skip_anchor:
                    continue
                neighbors_w = sample.neighbors(w)
                if len(neighbors_w) <= len(opposite):
                    small, large = neighbors_w, opposite
                else:
                    small, large = opposite, neighbors_w
                self.total_work += len(small)
                for x in small:
                    if x == skip_common or x not in large:
                        continue
                    if probability is None:
                        probability = discovery_probability(
                            sampler.num_live_edges,
                            sampler.cb,
                            sampler.cg,
                            sampler.budget,
                        )
                        if probability <= 0.0:
                            raise EstimatorError(
                                "butterfly discovered with zero probability"
                            )
                    increment = sign / probability
                    delta += increment
                    self._credit(u, increment)
                    self._credit(v, increment)
                    self._credit(w, increment)
                    self._credit(x, increment)
            self._estimate += delta
        sampler.process(element)
        return delta

    def _credit(self, vertex: Vertex, increment: float) -> None:
        if self._watch is None or vertex in self._watch:
            self._local[vertex] = self._local.get(vertex, 0.0) + increment
