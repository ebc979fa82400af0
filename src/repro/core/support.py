"""Per-edge butterfly support estimation on fully dynamic streams.

The paper motivates butterfly counting through k-bitruss computation
(Section I), which needs the butterfly count *of each edge* (its
*support*).  The exact decomposition in :mod:`repro.graph.bitruss`
requires the whole graph; this module provides the streaming analogue:
an ABACUS variant that additionally maintains unbiased support
estimates for a (bounded) watch set of edges.

The estimator applies the Theorem 1 argument per edge.  When a
butterfly ``{u, v, w, x}`` is discovered by the arrival of element
``({u, v}, delta)`` — i.e. its other three edges are all in the sample
— the discovery probability is ``Pr(|E|, cb, cg)`` of Equation 1, so
crediting ``sgn(delta)/Pr`` to each of the butterfly's four edges makes
every watched edge's estimate unbiased for its true support, by
linearity of expectation over the butterflies that contain it.

Combined with a support threshold this yields
:func:`approximate_k_bitruss_edges` — a streaming pre-image of the
k-bitruss: the watched edges whose estimated support clears ``k``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.base import ButterflyEstimator
from repro.core.counting import u_side_cheaper
from repro.core.probabilities import discovery_probability
from repro.errors import EstimatorError
from repro.sampling.random_pairing import RandomPairing
from repro.types import Edge, StreamElement

PHANTOM_SUPPORT_EPSILON = 1e-9


class AbacusSupport(ButterflyEstimator):
    """ABACUS with per-edge butterfly support estimates.

    Args:
        budget: memory budget ``k`` for the edge sample.
        watch: edges (as ``(left, right)`` tuples) whose support to
            maintain; ``None`` watches every edge that ever appears in
            a discovered butterfly (memory then grows with the touched
            edge count — fine for analysis, not for production).
        seed / rng: randomness as in :class:`~repro.core.abacus.Abacus`.

    Example:
        >>> from repro.types import insertion
        >>> est = AbacusSupport(budget=100, watch={("a", "x")}, seed=1)
        >>> est.process(insertion("a", "x"))
        0.0
        >>> est.support_estimate(("a", "x"))
        0.0
    """

    name = "AbacusSupport"

    def __init__(
        self,
        budget: int,
        watch: Optional[Iterable[Edge]] = None,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rng is None:
            rng = random.Random(seed)
        self._sampler = RandomPairing(budget, rng)
        self._estimate = 0.0
        self._watch: Optional[Set[Edge]] = (
            set(watch) if watch is not None else None
        )
        self._support: Dict[Edge, float] = {}
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

    def support_estimate(self, edge: Edge) -> float:
        """The edge's estimated butterfly support.

        Raises:
            EstimatorError: when a watch set is configured and the edge
                is not in it (its support was never tracked).
        """
        if self._watch is not None and edge not in self._watch:
            raise EstimatorError(f"edge {edge!r} is not in the watch set")
        return self._support.get(edge, 0.0)

    def support_estimates(self) -> Dict[Edge, float]:
        """Snapshot of all maintained per-edge support estimates."""
        return dict(self._support)

    def top_edges(self, limit: int = 10) -> List[Tuple[Edge, float]]:
        """Watched edges with the largest estimated support."""
        ranked = sorted(
            self._support.items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:limit]

    def approximate_k_bitruss_edges(self, k: float) -> List[Edge]:
        """Watched edges whose estimated support is at least ``k``.

        A streaming surrogate for k-bitruss membership.  Note this is
        the *global*-support notion (butterflies in the whole graph),
        an upper bound on the within-subgraph support the exact
        decomposition peels by, so the result over-approximates the
        true k-bitruss edge set.
        """
        return [e for e, s in self._support.items() if s >= k]

    def process(self, element: StreamElement) -> float:
        """Discover butterflies and credit all four member edges."""
        self.elements_processed += 1
        sampler = self._sampler
        sample = sampler.sample
        u, v = element.u, element.v
        neighbors_u = sample.neighbors(u)
        neighbors_v = sample.neighbors(v)
        delta = 0.0
        if neighbors_u and neighbors_v:
            if u_side_cheaper(sample, neighbors_u, neighbors_v):
                # Anchors are sampled neighbours of u: right vertices.
                anchors, opposite = neighbors_u, neighbors_v
                anchors_of_u = True
                skip_anchor, skip_common = v, u
            else:
                anchors, opposite = neighbors_v, neighbors_u
                anchors_of_u = False
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
                    if anchors_of_u:
                        # w right, x left: edges (u,v),(u,w),(x,v),(x,w).
                        members = ((u, v), (u, w), (x, v), (x, w))
                    else:
                        # w left, x right: edges (u,v),(w,v),(w,x),(u,x).
                        members = ((u, v), (w, v), (w, x), (u, x))
                    for edge in members:
                        self._credit(edge, increment)
            self._estimate += delta
        sampler.process(element)
        return delta

    def prune(self, floor: float = PHANTOM_SUPPORT_EPSILON) -> int:
        """Drop tracked edges whose estimate fell to ``<= floor``.

        Deletions drive supports back toward zero; pruning keeps the
        watch-all mode's memory proportional to the *live* butterfly
        structure.  Returns the number of entries removed.
        """
        victims = [e for e, s in self._support.items() if s <= floor]
        for edge in victims:
            del self._support[edge]
        return len(victims)

    def _credit(self, edge: Edge, increment: float) -> None:
        if self._watch is None or edge in self._watch:
            self._support[edge] = self._support.get(edge, 0.0) + increment
