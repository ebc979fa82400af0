"""Random Pairing (Gemulla, Lehner, Haas — VLDB Journal 2008).

Random Pairing (RP) maintains a *uniform* bounded-size sample of the
live edges of a fully dynamic stream.  The trick is a pair of
compensation counters:

* ``cb`` ("bad" deletions) — deletions whose edge *was* in the sample,
* ``cg`` ("good" deletions) — deletions whose edge was not sampled.

While ``cb + cg > 0``, arriving insertions do not grow the stream-level
sampling pressure; instead they "pair up" with an earlier deletion: with
probability ``cb / (cb + cg)`` the new edge enters the sample (replacing,
in expectation, the hole a bad deletion left) and ``cb`` is decremented,
otherwise ``cg`` is decremented.  When both counters are zero RP behaves
exactly like reservoir sampling.  This is Algorithm 2 of the paper,
verbatim.

The class also exposes the quantities ABACUS's estimator needs *before*
each sample update: the live-edge count ``|E|``, the counters, the
sample-size bound ``y = min(k, |E| + cb + cg)``, and the three-edge
discovery probability of Equation 1 (delegated to
:mod:`repro.core.probabilities`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import SamplingError, StreamError
from repro.sampling.adjacency_sample import GraphSample, Mutation
from repro.types import Op, StreamElement, Vertex

_NO_MUTATIONS: Tuple[Mutation, ...] = ()


@dataclass(frozen=True)
class BatchIngestResult:
    """What :meth:`RandomPairing.process_batch` observed, per element.

    Attributes:
        pre_live: ``|E|`` before each element's update.
        pre_cb / pre_cg: the compensation counters before each update.
        mutations: ``(element_index, op, u, v)`` sample changes, in the
            exact order they were applied.
    """

    pre_live: List[int]
    pre_cb: List[int]
    pre_cg: List[int]
    mutations: List[Tuple[int, str, Vertex, Vertex]]


class RandomPairing:
    """Bounded uniform sampling of a fully dynamic edge stream.

    Args:
        budget: the memory budget ``k`` (maximum sampled edges); the
            paper requires ``k >= 2`` and butterfly discovery needs
            three sampled edges, so small budgets are legal but useless.
        rng: randomness source (seed it for reproducible runs).
        sample: optionally, an existing :class:`GraphSample` to manage
            (PARABACUS passes one wired to a delta recorder).

    Attributes:
        num_live_edges: ``|E(t)|`` — stream edges not yet deleted.
        cb: uncompensated deletions of sampled edges.
        cg: uncompensated deletions of unsampled edges.
    """

    __slots__ = ("budget", "sample", "num_live_edges", "cb", "cg", "_rng")

    def __init__(
        self,
        budget: int,
        rng: Optional[random.Random] = None,
        sample: Optional[GraphSample] = None,
    ) -> None:
        if budget < 2:
            raise SamplingError(f"memory budget must be >= 2, got {budget}")
        self.budget = budget
        self.sample = sample if sample is not None else GraphSample()
        self.num_live_edges = 0
        self.cb = 0
        self.cg = 0
        self._rng = rng or random.Random()

    # ------------------------------------------------------------------
    # Stream ingestion (Algorithm 2)
    # ------------------------------------------------------------------
    def process(self, element: StreamElement) -> Tuple[Mutation, ...]:
        """Apply one stream element; return the sample mutations caused."""
        if element.op is Op.INSERT:
            return self.insert(element.u, element.v)
        return self.delete(element.u, element.v)

    def insert(self, u: Vertex, v: Vertex) -> Tuple[Mutation, ...]:
        """``InsertToSample`` — Algorithm 2, lines 1-10."""
        self.num_live_edges += 1
        uncompensated = self.cb + self.cg
        if uncompensated == 0:
            if self.sample.num_edges < self.budget:
                self.sample.add_edge(u, v)
                return (("+", u, v),)
            if self._rng.random() < self.budget / self.num_live_edges:
                evicted_u, evicted_v = self.sample.evict_random_edge(self._rng)
                self.sample.add_edge(u, v)
                return (("-", evicted_u, evicted_v), ("+", u, v))
            return _NO_MUTATIONS
        if self._rng.random() < self.cb / uncompensated:
            self.sample.add_edge(u, v)
            self.cb -= 1
            return (("+", u, v),)
        self.cg -= 1
        return _NO_MUTATIONS

    def delete(self, u: Vertex, v: Vertex) -> Tuple[Mutation, ...]:
        """``DeleteFromSample`` — Algorithm 2, lines 11-16."""
        if self.num_live_edges <= 0:
            raise StreamError(
                f"deletion of ({u!r}, {v!r}) with no live edges in stream"
            )
        self.num_live_edges -= 1
        if self.sample.remove_edge(u, v):
            self.cb += 1
            return (("-", u, v),)
        self.cg += 1
        return _NO_MUTATIONS

    def process_batch(
        self, elements: Iterable[StreamElement]
    ) -> BatchIngestResult:
        """Apply a whole batch; record pre-states and sample mutations.

        Observably identical to calling :meth:`process` per element with
        the same RNG — it *is* that loop: the draw count per element
        depends on the state the element finds (an insertion while the
        sample is filling draws nothing; a pairing insertion draws once;
        a full-reservoir acceptance draws twice), so acceptance
        randomness cannot be pre-drawn in bulk without reordering the
        draw stream and breaking the batched-vs-per-element equivalence
        contract.  The wrapper's value is the bulk bookkeeping of the
        returned :class:`BatchIngestResult`: the Equation 1 pre-state
        triplets and the indexed sample-mutation log, collected without
        the caller re-reading sampler attributes per element.
        """
        pre_live: List[int] = []
        pre_cb: List[int] = []
        pre_cg: List[int] = []
        mutations: List[Tuple[int, str, Vertex, Vertex]] = []
        for index, element in enumerate(elements):
            pre_live.append(self.num_live_edges)
            pre_cb.append(self.cb)
            pre_cg.append(self.cg)
            for op, u, v in self.process(element):
                mutations.append((index, op, u, v))
        return BatchIngestResult(pre_live, pre_cb, pre_cg, mutations)

    # ------------------------------------------------------------------
    # Budget resizing (Gemulla et al., Section 5: shrinking is cheap)
    # ------------------------------------------------------------------
    @property
    def can_resize(self) -> bool:
        """Whether the sampler is in the resize-safe state.

        Resizing is only sound while no deletions await compensation:
        the counters' pairing semantics are tied to the budget they
        accumulated under, and subsampling amid pending deletions
        demonstrably biases downstream estimates.
        """
        return self.cb == 0 and self.cg == 0

    def shrink_budget(self, new_budget: int) -> int:
        """Reduce the memory budget to ``new_budget``, evicting uniformly.

        In the compensation-free state (``cb == cg == 0``) the sampler
        is exactly a reservoir, and a uniform random subsample of a
        uniform sample is uniform — so after the call the sample is a
        uniform size-``min(new_budget, |E|)`` sample and Equation 1
        keeps holding with the new ``k``.  The evicted edges remain
        live in the stream (this is a memory operation, not a
        deletion).

        While deletions are pending (``cb + cg > 0``) shrinking is
        refused: the counters encode pairing obligations against the
        old budget, and subsampling then provably skews the inclusion
        probabilities Equation 1 reports.  Callers should poll
        :attr:`can_resize` and shrink at the next clean point.

        *Growing* the budget is intentionally not offered: naively
        raising ``k`` lets subsequent insertions enter with probability
        one, which breaks uniformity; Gemulla et al.'s dedicated
        resizing phase is out of scope here.

        Returns:
            The number of edges evicted.

        Raises:
            SamplingError: if ``new_budget < 2``, larger than the
                current budget, or deletions are pending compensation.
        """
        if new_budget < 2:
            raise SamplingError(
                f"memory budget must be >= 2, got {new_budget}"
            )
        if new_budget > self.budget:
            raise SamplingError(
                "cannot grow the budget uniformly; shrink only "
                f"(current {self.budget}, requested {new_budget})"
            )
        if not self.can_resize:
            raise SamplingError(
                f"cannot shrink with pending deletions (cb={self.cb}, "
                f"cg={self.cg}); wait for can_resize"
            )
        evicted = 0
        while self.sample.num_edges > new_budget:
            self.sample.evict_random_edge(self._rng)
            evicted += 1
        self.budget = new_budget
        return evicted

    # ------------------------------------------------------------------
    # State capture (public accessors — no reaching into _rng)
    # ------------------------------------------------------------------
    def get_rng_state(self) -> tuple:
        """The RNG state tuple, as ``random.Random.getstate`` returns it."""
        return self._rng.getstate()

    def set_rng_state(self, state: tuple) -> None:
        """Restore an RNG state captured by :meth:`get_rng_state`."""
        self._rng.setstate(state)

    def state_to_dict(self) -> dict:
        """Capture the sampler's complete state as a JSON-ready dict.

        Includes the budget, the live-edge count, both compensation
        counters, the sampled edges, and the RNG state — everything a
        fresh sampler needs to continue bit-identically.
        """
        version, internal, gauss = self.get_rng_state()
        return {
            "budget": self.budget,
            "num_live_edges": self.num_live_edges,
            "cb": self.cb,
            "cg": self.cg,
            "sample_edges": [list(edge) for edge in self.sample.edges()],
            # random.Random.getstate() -> (version, tuple-of-ints, gauss).
            "rng_state": [version, list(internal), gauss],
        }

    def restore_state(self, state: dict) -> None:
        """Load :meth:`state_to_dict` output into this (fresh) sampler.

        The sampler must still hold an empty sample; the captured edges
        are replayed into it with the sample's weight upkeep paused,
        which costs O(|S|) in all rather than O(d(u) + d(v)) per edge.
        The budget is not changed — construct the sampler with
        ``state["budget"]`` first.
        """
        raw_version, raw_internal, raw_gauss = state["rng_state"]
        self.set_rng_state((raw_version, tuple(raw_internal), raw_gauss))
        self.num_live_edges = state["num_live_edges"]
        self.cb = state["cb"]
        self.cg = state["cg"]
        sample = self.sample
        weights_live = sample.weights_live
        sample.keep_weights(False)
        for u, v in state["sample_edges"]:
            sample.add_edge(u, v)
        sample.keep_weights(weights_live)

    # ------------------------------------------------------------------
    # Estimator-facing state
    # ------------------------------------------------------------------
    @property
    def stream_size_with_pending(self) -> int:
        """``T = |E| + cb + cg`` — the denominator base of Equation 1."""
        return self.num_live_edges + self.cb + self.cg

    @property
    def effective_sample_bound(self) -> int:
        """``y = min(k, |E| + cb + cg)`` — Equation 1's numerator base."""
        return min(self.budget, self.stream_size_with_pending)

    def inclusion_probability(self) -> float:
        """Probability that one specific live edge is currently sampled."""
        t = self.stream_size_with_pending
        if t == 0:
            return 0.0
        return self.effective_sample_bound / t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RandomPairing(|S|={self.sample.num_edges}/{self.budget}, "
            f"|E|={self.num_live_edges}, cb={self.cb}, cg={self.cg})"
        )
