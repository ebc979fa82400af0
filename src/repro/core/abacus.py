"""ABACUS — Algorithm 1 of the paper.

For each arriving element ``({u, v}, delta)``:

1. Count the butterflies the edge forms with the current sample via
   set intersections, exploring the cheaper endpoint side.
2. Refine the estimate by ``sgn(delta) * found / Pr(|E|, cb, cg)``
   where the discovery probability (Equation 1) is evaluated on the
   sampler state *before* this element's update.
3. Hand the element to Random Pairing to update the sample.

The estimator is unbiased (Theorem 1) with the bounded variance of
Theorem 2; see ``tests/core/test_unbiasedness.py`` for the empirical
verification.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.base import ButterflyEstimator
from repro.core.counting import (
    VECTOR_CUTOFF,
    count_with_mirror,
    count_with_sample,
)
from repro.core.probabilities import discovery_probability
from repro.errors import EstimatorError
from repro.sampling.ndadjacency import NUMPY_AVAILABLE, NdAdjacency
from repro.sampling.random_pairing import RandomPairing
from repro.types import StreamElement


class Abacus(ButterflyEstimator):
    """Approximate butterfly counting for fully dynamic streams.

    Args:
        budget: memory budget ``k`` — the maximum sampled edges (>= 2;
            butterflies only become discoverable with >= 3).
        seed: convenience seed for a private ``random.Random``.
        rng: alternatively, an explicit randomness source (overrides
            ``seed``); sharing a seeded RNG with a PARABACUS instance
            reproduces Theorem 5's exact-equality experimentally.
        cheapest_side: apply the cumulative-degree side-selection
            heuristic (Algorithm 1, line 7).  Disable for ablation only;
            results are identical, performance differs.
        naive_increment: ablation switch — ignore the compensation
            counters in Equation 1 (pretend ``cb = cg = 0``).  This
            mimics what a deletion-unaware weighting would do and is
            *biased* under deletions.

    Attributes:
        total_work: cumulative set-intersection element checks.
        elements_processed: stream elements ingested so far.
    """

    name = "Abacus"
    supports_batch = True

    __slots__ = (
        "_sampler",
        "_estimate",
        "_cheapest_side",
        "_naive_increment",
        "_mirror",
        "total_work",
        "elements_processed",
    )

    def __init__(
        self,
        budget: int,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        cheapest_side: bool = True,
        naive_increment: bool = False,
    ) -> None:
        if rng is None:
            rng = random.Random(seed)
        self._sampler = RandomPairing(budget, rng)
        # Only the side test reads the sample's stored weights.
        self._sampler.sample.keep_weights(cheapest_side)
        self._estimate = 0.0
        self._cheapest_side = cheapest_side
        self._naive_increment = naive_increment
        self._mirror: Optional[NdAdjacency] = None
        self.total_work = 0
        self.elements_processed = 0

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
        """The underlying Random Pairing sampler (read-mostly)."""
        return self._sampler

    @property
    def budget(self) -> int:
        return self._sampler.budget

    @property
    def cheapest_side(self) -> bool:
        """Whether the side-selection heuristic is enabled."""
        return self._cheapest_side

    @property
    def naive_increment(self) -> bool:
        """Whether the deletion-unaware ablation weighting is enabled."""
        return self._naive_increment

    def process(self, element: StreamElement) -> float:
        """Algorithm 1, lines 4-14, for one element."""
        self.elements_processed += 1
        found, work = count_with_sample(
            self._sampler.sample,
            element.u,
            element.v,
            cheapest_side=self._cheapest_side,
        )
        self.total_work += work
        delta = 0.0
        if found:
            probability = self._discovery_probability()
            if probability <= 0.0:
                raise EstimatorError(
                    "discovered a butterfly with zero discovery probability; "
                    "sampler state is inconsistent"
                )
            delta = element.op.sign * found / probability
            self._estimate += delta
        self._sampler.process(element)
        return delta

    def process_batch(self, batch: Sequence[StreamElement]) -> float:
        """Vectorized batch ingest, bit-identical to per-element.

        Counting for each element must see the sample state *after*
        every earlier element's update, and the acceptance draws are
        state-dependent, so the sampler updates stay interleaved in
        arrival order — exactly the draw sequence the per-element path
        consumes.  The throughput comes from the counting side: each
        element's butterfly delta is computed by the vectorized
        :func:`~repro.core.counting.count_with_mirror` kernel over a
        NumPy adjacency mirror that tracks the (rarely mutating) sample
        incrementally, instead of per-pair Python set loops.

        The mirror only pays for itself when sampled neighbourhoods are
        big enough for array operations to beat set probes, so each
        batch starts with a density check: below the vectorization
        cutoff the batch runs as a tight scalar loop with no mirror
        maintenance at all (the mirror resyncs by version when density
        returns).  While the mirror is engaged the sample stops keeping
        its cheapest-side weights, and rebuilds them once the gate drops
        the mirror (:meth:`~repro.sampling.adjacency_sample.GraphSample
        .keep_weights`).  Either way every observable effect — estimate,
        sampler state, RNG draws, work counters — is identical to the
        per-element path.  Without NumPy this falls back to the
        base-class element loop.
        """
        if not NUMPY_AVAILABLE:
            return super().process_batch(batch)
        sampler = self._sampler
        sample = sampler.sample
        # Mean sampled degree >= the cutoff means a typical query's two
        # endpoint rows together clear it twice over — comfortably in
        # the regime where the array kernel beats set probes.
        num_vertices = sample.num_vertices
        use_mirror = (
            num_vertices > 0
            and 2 * sample.num_edges >= VECTOR_CUTOFF * num_vertices
        )
        cheapest_side = self._cheapest_side
        # The mirror keeps its own degree array, so while it is engaged
        # the sample's cheapest-side weights would be upkeep for nothing.
        sample.keep_weights(cheapest_side and not use_mirror)
        mirror = None
        if use_mirror:
            mirror = self._mirror
            if mirror is None:
                mirror = self._mirror = NdAdjacency()
            mirror.sync(sample)
        naive = self._naive_increment
        budget = sampler.budget
        estimate = self._estimate
        total_work = self.total_work
        processed = self.elements_processed
        total = 0.0
        try:
            for element in batch:
                processed += 1
                if mirror is not None:
                    found, work = count_with_mirror(
                        mirror, sample, element.u, element.v, cheapest_side
                    )
                else:
                    found, work = count_with_sample(
                        sample, element.u, element.v, cheapest_side
                    )
                total_work += work
                if found:
                    if naive:
                        probability = discovery_probability(
                            sampler.num_live_edges, 0, 0, budget
                        )
                    else:
                        probability = discovery_probability(
                            sampler.num_live_edges,
                            sampler.cb,
                            sampler.cg,
                            budget,
                        )
                    if probability <= 0.0:
                        raise EstimatorError(
                            "discovered a butterfly with zero discovery "
                            "probability; sampler state is inconsistent"
                        )
                    delta = element.op.sign * found / probability
                    estimate += delta
                    total += delta
                mutations = sampler.process(element)
                if mirror is not None and mutations:
                    mirror.apply(mutations)
        finally:
            self._estimate = estimate
            self.total_work = total_work
            self.elements_processed = processed
        return total

    @property
    def can_resize(self) -> bool:
        """True when the sampler is at a resize-safe (clean) point."""
        return self._sampler.can_resize

    def shrink_budget(self, new_budget: int) -> int:
        """Adapt to memory pressure: reduce ``k`` mid-stream.

        Uniformly evicts down to ``new_budget`` (see
        :meth:`repro.sampling.random_pairing.RandomPairing
        .shrink_budget`).  Only legal at a clean point
        (:attr:`can_resize`); there the running estimate stays
        unbiased: past refinements used the probabilities valid when
        they were made, and future ones use Equation 1 with the new
        ``k`` over the still-uniform sample.  Accuracy from here on
        matches a ``new_budget`` estimator — variance grows, bias does
        not.

        Returns:
            The number of sampled edges evicted.

        Raises:
            SamplingError: outside the clean state or on an invalid
                target budget.
        """
        return self._sampler.shrink_budget(new_budget)

    # ------------------------------------------------------------------
    # StatefulEstimator protocol
    # ------------------------------------------------------------------
    def state_to_dict(self) -> dict:
        """Capture the complete estimator state (JSON-serialisable).

        ABACUS's entire state is small — the sampler state (sampled
        edges, compensation counters, live-edge count, RNG state) plus
        the running estimate and work counters — so it serialises to a
        compact dict.  Restoring via :meth:`from_state_dict` continues
        bit-identically.
        """
        state = self._sampler.state_to_dict()
        state.update(
            {
                "estimate": self._estimate,
                "total_work": self.total_work,
                "elements_processed": self.elements_processed,
                "cheapest_side": self._cheapest_side,
                "naive_increment": self._naive_increment,
            }
        )
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "Abacus":
        """Rebuild an :class:`Abacus` from :meth:`state_to_dict` output."""
        estimator = cls(
            state["budget"],
            cheapest_side=state["cheapest_side"],
            naive_increment=state["naive_increment"],
        )
        estimator._sampler.restore_state(state)
        estimator._estimate = state["estimate"]
        estimator.total_work = state["total_work"]
        estimator.elements_processed = state["elements_processed"]
        return estimator

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _discovery_probability(self) -> float:
        s = self._sampler
        if self._naive_increment:
            return discovery_probability(s.num_live_edges, 0, 0, s.budget)
        return discovery_probability(s.num_live_edges, s.cb, s.cg, s.budget)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Abacus(k={self._sampler.budget}, "
            f"estimate={self._estimate:.1f}, "
            f"|S|={self._sampler.sample.num_edges})"
        )
