"""FLEET3 — butterfly estimation from an insert-only bipartite stream.

Reimplementation of the best FLEET variant from Sanei-Mehri et al.,
"FLEET: Butterfly Estimation from a Bipartite Graph Stream" (CIKM 2019),
as configured by the paper under reproduction (resizing parameter
``gamma = 0.75``).

FLEET keeps every seen edge in its reservoir independently with a
*global* probability ``p`` (initially 1).  Whenever the reservoir hits
its capacity ``k``, it flips a ``gamma``-coin for every stored edge and
multiplies ``p`` by ``gamma`` — so the reservoir afterwards holds about
``gamma * k`` edges, which is why FLEET "always maintains a non-full
sample" (paper, Section VI-C).  Each arriving edge first refines the
estimate: every butterfly it closes with three reservoir edges
contributes ``1 / p^3`` (each of the three old edges is present
independently with probability ``p``).

FLEET has no notion of deletions; deletion elements are skipped, which
is exactly the behaviour whose accuracy cost Figure 3 quantifies.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.base import ButterflyEstimator
from repro.core.counting import count_with_sample
from repro.errors import EstimatorError
from repro.sampling.adjacency_sample import GraphSample
from repro.types import Op, StreamElement


class Fleet(ButterflyEstimator):
    """FLEET3 adaptive-sampling butterfly estimator (insert-only).

    Args:
        budget: reservoir capacity ``k`` (set equal to ABACUS's sample
            size in all comparisons, per Section VI-C).
        gamma: resizing parameter; each capacity hit keeps each edge
            with probability ``gamma`` (paper default 0.75).
        seed / rng: randomness source.
    """

    name = "FLEET"
    #: Insert-only: deletions are skipped, so windowing (which works by
    #: synthesizing deletions) cannot wrap this estimator.
    supports_deletions = False

    __slots__ = (
        "budget",
        "gamma",
        "_sample",
        "_p",
        "_estimate",
        "_rng",
        "total_work",
        "elements_processed",
        "num_resizes",
    )

    def __init__(
        self,
        budget: int,
        gamma: float = 0.75,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if budget < 2:
            raise EstimatorError(f"budget must be >= 2, got {budget}")
        if not 0.0 < gamma < 1.0:
            raise EstimatorError(f"gamma must be in (0, 1), got {gamma}")
        self.budget = budget
        self.gamma = gamma
        self._sample = GraphSample()
        self._p = 1.0
        self._estimate = 0.0
        self._rng = rng if rng is not None else random.Random(seed)
        self.total_work = 0
        self.elements_processed = 0
        self.num_resizes = 0

    @property
    def estimate(self) -> float:
        return self._estimate

    @property
    def memory_edges(self) -> int:
        return self._sample.num_edges

    @property
    def sampling_probability(self) -> float:
        """The current global inclusion probability ``p``."""
        return self._p

    def process(self, element: StreamElement) -> float:
        self.elements_processed += 1
        if element.op is Op.DELETE:
            return 0.0  # FLEET is insert-only: deletions are discarded.
        found, work = count_with_sample(self._sample, element.u, element.v)
        self.total_work += work
        delta = 0.0
        if found:
            delta = found / (self._p**3)
            self._estimate += delta
        if self._rng.random() < self._p:
            self._sample.add_edge(element.u, element.v)
            if self._sample.num_edges >= self.budget:
                self._resize()
        return delta

    def _resize(self) -> None:
        """Keep each reservoir edge w.p. gamma; scale p accordingly.

        The sample's weight upkeep pauses for the bulk removal and is
        rebuilt once, in O(|S|), instead of costing O(d(u) + d(v)) per
        removed edge.
        """
        sample = self._sample
        sample.keep_weights(False)
        for edge in sample.edges():
            if self._rng.random() >= self.gamma:
                sample.remove_edge(*edge)
        sample.keep_weights(True)
        self._p *= self.gamma
        self.num_resizes += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Fleet(k={self.budget}, p={self._p:.4f}, "
            f"|R|={self._sample.num_edges}, estimate={self._estimate:.1f})"
        )
