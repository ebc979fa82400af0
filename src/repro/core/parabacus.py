"""PARABACUS — mini-batch parallel ABACUS (Section V).

Processing of each mini-batch of ``M`` elements has three phases:

1. **Sequential versioning** — replay the batch through Random Pairing,
   producing the sample version ``S_q`` and the ``(|E|, cb, cg)``
   triplet each element ``q`` observes.  O(1) amortised work per
   element.
2. **Parallel per-edge counting** — partition the batch into
   ``num_threads`` contiguous chunks; each worker counts the butterflies
   its elements form with *their* sample version and multiplies by the
   Equation 1 increment computed from the element's triplet, producing
   a partial (signed) count.
3. **Consolidation** — the partial counts are summed, worker by worker,
   into the running estimate; the live sample sits at the post-batch
   state, which becomes version ``S_0`` of the next batch.

How phases 1 and 2 run depends on the execution mode:

* **Serial** (the default): the workers run one after another, so
  element ``q`` is counted on the live sample just before its own
  Random Pairing update — at that moment the live sample *is* ``S_q``
  and the sampler holds ``q``'s triplet.  Versions are evaluated in
  arrival order and nothing is recorded: no delta log, no copied
  neighbour set.
* **Thread pool** (``use_thread_pool=True``): the workers read
  different versions at the same time, so phase 1 records the batch in
  the delta-coded :class:`~repro.sampling.versioned.VersionedGraphSample`
  first, and each worker re-derives the neighbour sets of its versions
  from the post-batch sample.

Either way phase 1 consumes randomness in exactly the order ABACUS
would and phase 2 computes exactly ABACUS's per-element increments, so
PARABACUS produces *identical* estimates to an ABACUS driven by the
same seeded RNG (Theorem 5).  Both modes sum the increments in the
same order — per worker chunk, then across workers — so their results
are bit-identical to each other, a property the test-suite asserts
with ``==`` against a folded same-seed ABACUS.

CPython's GIL prevents real speedup from threads for this CPU-bound
inner loop, so besides wall-clock the implementation meters each
worker's *workload* (set-intersection element checks, the paper's
Fig. 10 metric) and exposes the deterministic work-model speedup used by
the Figure 8/9 benchmarks; see docs/paper_map.md, substitution #2.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.base import ButterflyEstimator
from repro.core.counting import count_with_sample, count_with_versioned_sample
from repro.core.probabilities import discovery_probability
from repro.errors import EstimatorError
from repro.sampling.random_pairing import RandomPairing
from repro.sampling.versioned import VersionedGraphSample
from repro.streams.minibatch import iter_minibatches, partition_round_robin
from repro.types import Op, StreamElement


class Parabacus(ButterflyEstimator):
    """Parallel mini-batch butterfly estimation (Section V).

    Args:
        budget: memory budget ``k``.
        batch_size: mini-batch size ``M`` (paper default 500).
        num_threads: worker count ``p`` for the counting phase.
        seed / rng: randomness (see :class:`~repro.core.abacus.Abacus`).
        use_thread_pool: execute phase 2 on a real
            ``ThreadPoolExecutor`` over delta-coded sample versions.
            When False the chunks run serially, each element counted on
            the live sample in arrival order (bit-identical results,
            still fully metered, no version log) — the default because
            CPython threads cannot speed up this loop anyway.
        cheapest_side: side-selection heuristic toggle (ablation).

    Attributes:
        total_work: cumulative intersection element checks.
        last_batch_workloads: per-worker work of the most recent batch.
        per_thread_work: cumulative per-worker work across all batches.
        versioning_elements: elements processed by the sequential phase
            (the O(M) cost term in Theorem 6; in serial execution the
            phase is fused with counting).
    """

    name = "Parabacus"
    supports_batch = True

    def __init__(
        self,
        budget: int,
        batch_size: int = 500,
        num_threads: int = 4,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        use_thread_pool: bool = False,
        cheapest_side: bool = True,
    ) -> None:
        if batch_size <= 0:
            raise EstimatorError(
                f"batch_size must be positive, got {batch_size}"
            )
        if num_threads <= 0:
            raise EstimatorError(
                f"num_threads must be positive, got {num_threads}"
            )
        if rng is None:
            rng = random.Random(seed)
        self.batch_size = batch_size
        self.num_threads = num_threads
        self._sampler = RandomPairing(budget, rng)
        # Only the serial path's side test reads the sample's stored
        # weights; the thread pool sums degrees at each version.
        self._sampler.sample.keep_weights(
            cheapest_side and not use_thread_pool
        )
        self._versioned = VersionedGraphSample(self._sampler.sample)
        self._estimate = 0.0
        self._cheapest_side = cheapest_side
        self._use_thread_pool = use_thread_pool
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pending: List[StreamElement] = []
        self.total_work = 0
        self.elements_processed = 0
        self.versioning_elements = 0
        self.num_batches = 0
        self.last_batch_workloads: List[int] = []
        self.per_thread_work: List[int] = [0] * num_threads

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

    @property
    def budget(self) -> int:
        return self._sampler.budget

    def process(self, element: StreamElement) -> float:
        """Buffer one element; flush a full mini-batch when reached.

        Element-wise deltas are not individually meaningful in the
        mini-batch model, so the return value is the estimate change
        caused by a flush (0.0 while buffering).
        """
        self._pending.append(element)
        if len(self._pending) >= self.batch_size:
            return self.flush()
        return 0.0

    def process_stream(
        self, stream, checkpoints=None, on_checkpoint=None
    ) -> float:
        """Batch-oriented stream driver (overrides the per-element one).

        Checkpoints are honoured at mini-batch granularity: the callback
        fires at the first batch boundary at or past each checkpoint.
        """
        pending_marks = sorted(checkpoints) if checkpoints else []
        mark_index = 0
        for batch in iter_minibatches(stream, self.batch_size):
            self.run_minibatch(batch)
            while (
                mark_index < len(pending_marks)
                and self.elements_processed >= pending_marks[mark_index]
            ):
                if on_checkpoint is not None:
                    on_checkpoint(pending_marks[mark_index], self)
                mark_index += 1
        return self._estimate

    def flush(self) -> float:
        """Process whatever is buffered as a (possibly short) batch."""
        if not self._pending:
            return 0.0
        batch = self._pending
        self._pending = []
        return self.run_minibatch(batch)

    def process_batch(self, batch: Sequence[StreamElement]) -> float:
        """Batch ingest under the equivalence contract of the base class.

        Observably identical to calling :meth:`process` per element:
        the arrivals join the pending buffer and every time it reaches
        ``M`` elements a mini-batch runs — so the mini-batch boundaries
        (and therefore ``num_batches``, the per-thread work split, and
        the flush-time estimate deltas) land exactly where per-element
        feeding would put them, regardless of how the caller chunked
        the stream.  The fast path merely replaces ``len(batch)``
        buffered :meth:`process` calls with one ``extend`` and drives
        each full mini-batch through :meth:`run_minibatch` directly.
        """
        pending = self._pending
        pending.extend(batch)
        if len(pending) < self.batch_size:
            return 0.0
        total = 0.0
        while len(pending) >= self.batch_size:
            chunk = pending[: self.batch_size]
            del pending[: self.batch_size]
            total += self.run_minibatch(chunk)
        return total

    # ------------------------------------------------------------------
    # The mini-batch pipeline
    # ------------------------------------------------------------------
    def run_minibatch(self, batch: Sequence[StreamElement]) -> float:
        """Run the three phases on ``batch``; return the estimate delta."""
        if not batch:
            return 0.0
        if self._use_thread_pool:
            results = self._count_versioned(batch)
        else:
            results = [
                self._count_live_chunk(chunk)
                for chunk in partition_round_robin(batch, self.num_threads)
            ]
        self.versioning_elements += len(batch)

        # Phase 3: consolidation.
        batch_delta = 0.0
        self.last_batch_workloads = []
        for worker_id, (partial, work) in enumerate(results):
            batch_delta += partial
            self.total_work += work
            self.per_thread_work[worker_id] += work
            self.last_batch_workloads.append(work)
        self._estimate += batch_delta
        self.elements_processed += len(batch)
        self.num_batches += 1
        return batch_delta

    def _count_live_chunk(
        self, chunk: Iterable[StreamElement]
    ) -> Tuple[float, int]:
        """Count one worker's share in arrival order on the live sample.

        Each element is counted just before its own Random Pairing
        update, so the live sample *is* its version ``S_q`` and the
        sampler's ``(|E|, cb, cg)`` is its triplet.  Returns the same
        ``(partial estimate, work)`` as :meth:`_count_chunk`, summed in
        the same order.
        """
        sampler = self._sampler
        sample = sampler.sample
        budget = sampler.budget
        cheapest_side = self._cheapest_side
        partial = 0.0
        work_done = 0
        for element in chunk:
            found, work = count_with_sample(
                sample, element.u, element.v, cheapest_side
            )
            work_done += work
            if found:
                probability = discovery_probability(
                    sampler.num_live_edges, sampler.cb, sampler.cg, budget
                )
                if probability <= 0.0:
                    raise EstimatorError(
                        "discovered a butterfly with zero discovery "
                        "probability; sampler state is inconsistent"
                    )
                partial += element.op.sign * found / probability
            sampler.process(element)
        return partial, work_done

    def _count_versioned(
        self, batch: Sequence[StreamElement]
    ) -> List[Tuple[float, int]]:
        """Phases 1 and 2 on the thread pool; per-worker results.

        The workers read different sample versions at the same time,
        so the sequential phase records them in the delta-coded
        :class:`VersionedGraphSample` first.
        """
        versioned = self._versioned
        sampler = self._sampler

        # Phase 1: sequential sample-version creation.
        versioned.begin_batch()
        for element in batch:
            versioned.note_element_state(
                sampler.num_live_edges, sampler.cb, sampler.cg
            )
            sampler.process(element)
        versioned.end_batch()

        # Phase 2: parallel per-edge counting.
        chunks = partition_round_robin(
            list(enumerate(batch)), self.num_threads
        )
        if len(batch) > 1:
            return list(self._ensure_executor().map(self._count_chunk, chunks))
        return [self._count_chunk(chunk) for chunk in chunks]

    def _count_chunk(
        self, chunk: Iterable[Tuple[int, StreamElement]]
    ) -> Tuple[float, int]:
        """Count one worker's share at each element's sample version;
        returns (partial estimate, work)."""
        versioned = self._versioned
        budget = self._sampler.budget
        partial = 0.0
        work_done = 0
        for version, element in chunk:
            found, work = count_with_versioned_sample(
                versioned,
                version,
                element.u,
                element.v,
                cheapest_side=self._cheapest_side,
            )
            work_done += work
            if not found:
                continue
            live, cb, cg = versioned.triplet(version)
            probability = discovery_probability(live, cb, cg, budget)
            if probability <= 0.0:
                raise EstimatorError(
                    "discovered a butterfly with zero discovery probability "
                    f"at version {version}"
                )
            partial += element.op.sign * found / probability
        return partial, work_done

    # ------------------------------------------------------------------
    # StatefulEstimator protocol
    # ------------------------------------------------------------------
    def state_to_dict(self) -> dict:
        """Capture the complete estimator state (JSON-serialisable).

        Besides the shared sampler state this includes the mini-batch
        configuration, the work/batch counters, and — crucially — the
        still-buffered elements of a partially filled batch, so a
        snapshot taken mid-buffer continues bit-identically.
        """
        state = self._sampler.state_to_dict()
        state.update(
            {
                "estimate": self._estimate,
                "batch_size": self.batch_size,
                "num_threads": self.num_threads,
                "cheapest_side": self._cheapest_side,
                "use_thread_pool": self._use_thread_pool,
                "total_work": self.total_work,
                "elements_processed": self.elements_processed,
                "versioning_elements": self.versioning_elements,
                "num_batches": self.num_batches,
                "last_batch_workloads": list(self.last_batch_workloads),
                "per_thread_work": list(self.per_thread_work),
                "pending": [
                    [element.u, element.v, element.op.value]
                    for element in self._pending
                ],
            }
        )
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "Parabacus":
        """Rebuild a :class:`Parabacus` from :meth:`state_to_dict` output."""
        estimator = cls(
            state["budget"],
            batch_size=state["batch_size"],
            num_threads=state["num_threads"],
            use_thread_pool=state["use_thread_pool"],
            cheapest_side=state["cheapest_side"],
        )
        estimator._sampler.restore_state(state)
        estimator._estimate = state["estimate"]
        estimator.total_work = state["total_work"]
        estimator.elements_processed = state["elements_processed"]
        estimator.versioning_elements = state["versioning_elements"]
        estimator.num_batches = state["num_batches"]
        estimator.last_batch_workloads = list(state["last_batch_workloads"])
        estimator.per_thread_work = list(state["per_thread_work"])
        estimator._pending = [
            StreamElement(u, v, Op.from_symbol(symbol))
            for u, v, symbol in state["pending"]
        ]
        return estimator

    # ------------------------------------------------------------------
    # Work-model speedup (docs/paper_map.md, substitution #2)
    # ------------------------------------------------------------------
    def modeled_speedup(
        self,
        versioning_cost_per_element: float = 1.0,
        dispatch_cost_per_batch: float = 0.0,
    ) -> float:
        """Deterministic speedup estimate over single-threaded ABACUS.

        ABACUS cost model: all counting work plus one unit per element.
        PARABACUS cost model: sequential versioning (one unit per
        element), an optional fixed dispatch cost per mini-batch (the
        fork/join synchronisation a real thread pool pays — this is the
        term that makes small mini-batches unattractive on hardware, cf.
        the paper's Figure 8), plus the *maximum* per-worker counting
        work (critical path of the parallel phase).

        Args:
            versioning_cost_per_element: relative cost of one sequential
                sample update versus one intersection element check.
            dispatch_cost_per_batch: fixed fork/join cost per mini-batch
                in element-check units; 0 gives the pure work model.
        """
        if not any(self.per_thread_work):
            return 1.0
        sequential_cost = (
            self.total_work
            + versioning_cost_per_element * self.elements_processed
        )
        parallel_cost = (
            versioning_cost_per_element * self.versioning_elements
            + dispatch_cost_per_batch * self.num_batches
            + max(self.per_thread_work)
        )
        if parallel_cost <= 0:
            return 1.0
        return sequential_cost / parallel_cost

    def close(self) -> None:
        """Shut down the thread pool, if one was created."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "Parabacus":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.num_threads)
        return self._executor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Parabacus(k={self._sampler.budget}, M={self.batch_size}, "
            f"p={self.num_threads}, estimate={self._estimate:.1f})"
        )
