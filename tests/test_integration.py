"""End-to-end integration tests spanning multiple subsystems.

Each test drives a realistic multi-module pipeline rather than a single
unit: file I/O -> estimator -> checkpoint -> resume; KONECT ingest ->
dynamic synthesis -> accuracy vs oracle; estimate -> shrink the budget
mid-stream.
"""

import random

import pytest

from repro import Abacus, ExactStreamingCounter, Parabacus
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.graph.generators import bipartite_chung_lu
from repro.streams.dynamic import make_fully_dynamic
from repro.streams.io import load_konect, read_stream, write_stream


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(88)
    edges = bipartite_chung_lu(500, 120, 5000, rng=rng)
    stream = make_fully_dynamic(edges, 0.2, random.Random(89))
    return edges, stream


class TestFileRoundTripPipeline:
    def test_stream_file_to_estimate(self, tmp_path, workload):
        """Persist a stream, reload it, estimate, compare to oracle."""
        _, stream = workload
        path = tmp_path / "workload.stream"
        write_stream(stream, path)
        reloaded = read_stream(path)
        assert list(reloaded) == list(stream)

        truth = ExactStreamingCounter().process_stream(reloaded)
        estimate = Abacus(1200, seed=4).process_stream(reloaded)
        assert truth > 0
        assert abs(truth - estimate) / truth < 0.4

    def test_konect_to_dynamic_to_estimate(self, tmp_path):
        """KONECT file -> deletion synthesis -> ABACUS vs oracle."""
        rng = random.Random(90)
        lines = ["% bip unweighted"]
        seen = set()
        while len(seen) < 800:
            pair = (rng.randrange(120), rng.randrange(100))
            if pair not in seen:
                seen.add(pair)
                lines.append(f"{pair[0]} {pair[1]}")
        path = tmp_path / "out.synthetic"
        path.write_text("\n".join(lines))

        edges = load_konect(path)
        assert len(edges) == 800
        stream = make_fully_dynamic(edges, 0.25, random.Random(91))
        truth = ExactStreamingCounter().process_stream(stream)
        estimate = Abacus(10**6, seed=0).process_stream(stream)
        assert estimate == pytest.approx(truth)


class TestCheckpointedPipeline:
    def test_checkpoint_mid_stream_then_detector(self, tmp_path, workload):
        """Run half, checkpoint to disk, resume, and keep the estimate
        identical to the uninterrupted run."""
        _, stream = workload
        half = len(stream) // 2
        reference = Abacus(800, seed=12)
        reference.process_stream(stream)

        part1 = Abacus(800, seed=12)
        part1.process_stream(stream.prefix(half))
        path = tmp_path / "mid.ckpt"
        save_checkpoint(part1, path)
        resumed = load_checkpoint(path)
        resumed.process_stream(stream[half:])
        assert resumed.estimate == reference.estimate


class TestParabacusPipeline:
    def test_minibatch_estimates_match_across_persistence(self, workload):
        """PARABACUS over the same stream in two different batch sizes
        still agrees with ABACUS exactly (Theorem 5, integration-level)."""
        _, stream = workload
        reference = Abacus(700, seed=21).process_stream(stream)
        for batch_size in (64, 777):
            para = Parabacus(
                700, batch_size=batch_size, num_threads=5, seed=21
            )
            para.process_stream(stream)
            para.flush()
            assert para.estimate == pytest.approx(reference, rel=1e-12)


class TestShrinkPipeline:
    """Estimate -> adapt: shrink the budget halfway through a stream."""

    def test_estimate_then_shrink(self):
        rng = random.Random(77)
        edges = bipartite_chung_lu(300, 120, 3000, rng=rng)
        stream = make_fully_dynamic(edges, 0.2, random.Random(78))

        estimator = Abacus(budget=800, seed=80)
        oracle = ExactStreamingCounter()
        shrunk = False
        for index, element in enumerate(stream):
            estimator.process(element)
            oracle.process(element)
            if (
                not shrunk
                and index > len(stream) // 2
                and estimator.can_resize
            ):
                estimator.shrink_budget(400)
                shrunk = True
        assert shrunk
        assert estimator.memory_edges <= 400
        if oracle.estimate:
            error = abs(oracle.estimate - estimator.estimate) / (
                oracle.estimate
            )
            assert error < 1.5  # sanity: same order of magnitude


class TestSupportEnsemblePipeline:
    """Per-edge support and an ensemble share one stream, and their
    global views agree with the oracle in the exact regime."""

    def test_support_and_ensemble_agree_exactly(self, workload):
        from repro.core.ensemble import EnsembleEstimator
        from repro.core.support import AbacusSupport

        _, stream = workload
        support = AbacusSupport(budget=10_000, seed=81)
        ensemble = EnsembleEstimator(
            replicas=3, budget=10_000, seed=82
        )
        oracle = ExactStreamingCounter()
        for element in stream:
            support.process(element)
            ensemble.process(element)
            oracle.process(element)
        assert support.estimate == pytest.approx(oracle.estimate)
        assert ensemble.estimate == pytest.approx(oracle.estimate)
        assert ensemble.spread() == pytest.approx(0.0)
        # Support identity: every butterfly has exactly four edges.
        total_support = sum(support.support_estimates().values())
        assert total_support == pytest.approx(4.0 * oracle.estimate)
