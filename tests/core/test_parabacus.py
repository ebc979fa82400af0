"""Unit tests for PARABACUS — above all, Theorem 5's exact equivalence
with ABACUS under a shared RNG seed."""

import math

import pytest

from repro.core.abacus import Abacus
from repro.core.parabacus import Parabacus
from repro.errors import EstimatorError
from repro.experiments.runner import ground_truth_final_count
from repro.types import insertion


class TestConstruction:
    def test_invalid_batch_size(self):
        with pytest.raises(EstimatorError):
            Parabacus(10, batch_size=0)

    def test_invalid_threads(self):
        with pytest.raises(EstimatorError):
            Parabacus(10, num_threads=0)


class TestTheorem5Equivalence:
    @pytest.mark.parametrize("batch_size", [1, 7, 50, 500])
    def test_identical_to_abacus_any_batch_size(
        self, dynamic_stream, batch_size
    ):
        abacus = Abacus(300, seed=42)
        para = Parabacus(300, batch_size=batch_size, num_threads=4, seed=42)
        ea = abacus.process_stream(dynamic_stream)
        para.process_stream(dynamic_stream)
        para.flush()
        assert para.estimate == pytest.approx(ea, rel=1e-12)

    @pytest.mark.parametrize("num_threads", [1, 2, 8, 32])
    def test_identical_for_any_thread_count(
        self, dynamic_stream, num_threads
    ):
        abacus = Abacus(250, seed=7)
        para = Parabacus(
            250, batch_size=100, num_threads=num_threads, seed=7
        )
        ea = abacus.process_stream(dynamic_stream)
        para.process_stream(dynamic_stream)
        para.flush()
        assert para.estimate == pytest.approx(ea, rel=1e-12)

    def test_identical_with_real_thread_pool(self, dynamic_stream):
        abacus = Abacus(250, seed=9)
        with Parabacus(
            250,
            batch_size=128,
            num_threads=4,
            seed=9,
            use_thread_pool=True,
        ) as para:
            ea = abacus.process_stream(dynamic_stream)
            para.process_stream(dynamic_stream)
            para.flush()
            assert para.estimate == pytest.approx(ea, rel=1e-12)

    def test_same_sample_state_after_stream(self, dynamic_stream):
        abacus = Abacus(200, seed=3)
        para = Parabacus(200, batch_size=64, num_threads=4, seed=3)
        abacus.process_stream(dynamic_stream)
        para.process_stream(dynamic_stream)
        para.flush()
        assert set(abacus.sampler.sample.edges()) == set(
            para.sampler.sample.edges()
        )
        assert (abacus.sampler.cb, abacus.sampler.cg) == (
            para.sampler.cb,
            para.sampler.cg,
        )


def _abacus_fold(stream, budget, seed, batch_size, num_threads):
    """What PARABACUS must report, derived from a same-seed ABACUS.

    ABACUS's per-element increments and work are folded the way
    PARABACUS sums them: per mini-batch, per contiguous worker chunk
    (sized as ``partition_round_robin`` cuts it), then across workers.
    """
    abacus = Abacus(budget, seed=seed)
    estimate = 0.0
    per_thread_work = [0] * num_threads
    last_batch_workloads = []
    for offset in range(0, len(stream), batch_size):
        batch = stream[offset : offset + batch_size]
        base, extra = divmod(len(batch), num_threads)
        elements = iter(batch)
        batch_delta = 0.0
        last_batch_workloads = []
        for worker in range(num_threads):
            partial = 0.0
            work = 0
            for _ in range(base + (1 if worker < extra else 0)):
                before = abacus.total_work
                delta = abacus.process(next(elements))
                work += abacus.total_work - before
                if delta:
                    partial += delta
            batch_delta += partial
            per_thread_work[worker] += work
            last_batch_workloads.append(work)
        estimate += batch_delta
    return abacus, estimate, per_thread_work, last_batch_workloads


class TestTheorem5ExactFold:
    """Bit-for-bit Theorem 5: ``==``, not a float tolerance, so a change
    in summation order fails here."""

    #: Not a multiple of 7 or 500, so the last mini-batch is a short
    #: one that only ``flush()`` runs.
    LENGTH = 2003

    @pytest.mark.parametrize("use_thread_pool", [False, True])
    @pytest.mark.parametrize(
        "batch_size, num_threads",
        [(1, 1), (1, 4), (7, 3), (7, 16), (500, 2), (500, 7)],
    )
    def test_equals_folded_abacus(
        self, dynamic_stream, use_thread_pool, batch_size, num_threads
    ):
        assert len(dynamic_stream) > self.LENGTH
        stream = dynamic_stream[: self.LENGTH]
        abacus, estimate, per_thread, last = _abacus_fold(
            stream, 250, 21, batch_size, num_threads
        )
        with Parabacus(
            250,
            batch_size=batch_size,
            num_threads=num_threads,
            seed=21,
            use_thread_pool=use_thread_pool,
        ) as para:
            for element in stream[:300]:
                para.process(element)
            para.process_batch(stream[300:])
            para.flush()
        assert para.num_batches == math.ceil(self.LENGTH / batch_size)
        assert para.estimate == estimate
        assert para.sampler.state_to_dict() == abacus.sampler.state_to_dict()
        assert para.total_work == abacus.total_work
        assert para.per_thread_work == per_thread
        assert para.last_batch_workloads == last


class TestSampleVersions:
    """Serial execution counts on the live sample and keeps no
    per-version delta log; only the thread pool records versions."""

    def test_serial_batches_record_no_deltas(self, dynamic_stream):
        para = Parabacus(250, batch_size=64, num_threads=4, seed=3)
        sample = para.sampler.sample
        for offset in range(0, len(dynamic_stream), 64):
            version = sample.version
            para.process_batch(dynamic_stream[offset : offset + 64])
            para.flush()
            assert sample.version > version  # the sample churned
            assert para._versioned.delta_count() == 0
            assert para._versioned.num_versions == 0
            assert sample.recorder is None
        # The serial side test reads the stored cumulative degrees.
        assert sample.weights_live

    def test_thread_pool_records_deltas(self, dynamic_stream):
        with Parabacus(
            250, batch_size=64, num_threads=4, seed=3, use_thread_pool=True
        ) as para:
            para.process_batch(dynamic_stream[:64])
            assert para._versioned.num_versions == 64
            assert para._versioned.delta_count() > 0
            assert para.sampler.sample.recorder is None
            # Versions sum their own degrees: no weight upkeep.
            assert not para.sampler.sample.weights_live


class TestBatchMechanics:
    def test_process_buffers_until_batch(self):
        para = Parabacus(100, batch_size=3, num_threads=2, seed=0)
        para.process(insertion(1, 10))
        para.process(insertion(1, 11))
        assert para.elements_processed == 0  # still buffered
        para.process(insertion(2, 10))
        assert para.elements_processed == 3

    def test_flush_handles_partial_batch(self):
        para = Parabacus(100, batch_size=10, num_threads=2, seed=0)
        for el in (insertion(1, 10), insertion(2, 10)):
            para.process(el)
        para.flush()
        assert para.elements_processed == 2

    def test_flush_empty_is_noop(self):
        para = Parabacus(100, batch_size=10, num_threads=2, seed=0)
        assert para.flush() == 0.0

    def test_exact_on_unbounded_budget(self, dynamic_stream):
        para = Parabacus(10**6, batch_size=200, num_threads=4, seed=1)
        para.process_stream(dynamic_stream)
        para.flush()
        truth = ground_truth_final_count(dynamic_stream)
        assert para.estimate == pytest.approx(truth)

    def test_checkpoint_callback_at_batch_granularity(self, dynamic_stream):
        para = Parabacus(150, batch_size=100, num_threads=2, seed=2)
        marks = [250, 1000]
        seen = []
        para.process_stream(
            dynamic_stream,
            checkpoints=marks,
            on_checkpoint=lambda n, est: seen.append(n),
        )
        assert seen == marks


class TestWorkAccounting:
    def test_per_thread_work_sums_to_total(self, dynamic_stream):
        para = Parabacus(250, batch_size=128, num_threads=6, seed=4)
        para.process_stream(dynamic_stream)
        para.flush()
        assert sum(para.per_thread_work) == para.total_work
        assert para.total_work > 0

    def test_total_work_matches_abacus(self, dynamic_stream):
        # Same sample states -> identical intersection work.
        abacus = Abacus(250, seed=11)
        para = Parabacus(250, batch_size=64, num_threads=4, seed=11)
        abacus.process_stream(dynamic_stream)
        para.process_stream(dynamic_stream)
        para.flush()
        assert para.total_work == abacus.total_work

    def test_modeled_speedup_bounds(self, dynamic_stream):
        para = Parabacus(250, batch_size=500, num_threads=8, seed=5)
        para.process_stream(dynamic_stream)
        para.flush()
        speedup = para.modeled_speedup()
        assert 1.0 <= speedup <= 8.0 + 1.0

    def test_speedup_grows_with_threads(self, dynamic_stream):
        speedups = []
        for p in (1, 4, 16):
            para = Parabacus(250, batch_size=500, num_threads=p, seed=6)
            para.process_stream(dynamic_stream)
            para.flush()
            speedups.append(para.modeled_speedup())
        assert speedups[0] <= speedups[1] <= speedups[2]

    def test_no_work_returns_speedup_one(self):
        para = Parabacus(100, batch_size=10, num_threads=4, seed=0)
        assert para.modeled_speedup() == 1.0
