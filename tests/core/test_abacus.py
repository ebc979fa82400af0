"""Unit tests for ABACUS."""

import random

import pytest

from repro import open_session
from repro.core.abacus import Abacus
from repro.errors import SamplingError
from repro.experiments.runner import ground_truth_final_count
from repro.graph.generators import bipartite_chung_lu
from repro.sampling.ndadjacency import NUMPY_AVAILABLE
from repro.streams.dynamic import make_fully_dynamic, stream_from_edges
from repro.types import deletion, insertion


class TestBasics:
    def test_budget_validation(self):
        with pytest.raises(SamplingError):
            Abacus(1)

    def test_initial_state(self):
        a = Abacus(10, seed=0)
        assert a.estimate == 0.0
        assert a.memory_edges == 0
        assert a.elements_processed == 0

    def test_exact_while_sample_holds_everything(self):
        # With budget >> stream, p = 1 and ABACUS counts exactly.
        a = Abacus(1000, seed=0)
        a.process(insertion(1, 10))
        a.process(insertion(1, 11))
        a.process(insertion(2, 10))
        delta = a.process(insertion(2, 11))
        assert delta == pytest.approx(1.0)
        assert a.estimate == pytest.approx(1.0)

    def test_exact_deletion_while_sample_holds_everything(self):
        a = Abacus(1000, seed=0)
        for el in (
            insertion(1, 10),
            insertion(1, 11),
            insertion(2, 10),
            insertion(2, 11),
        ):
            a.process(el)
        delta = a.process(deletion(2, 11))
        assert delta == pytest.approx(-1.0)
        assert a.estimate == pytest.approx(0.0)

    def test_matches_exact_on_full_budget_stream(self, dynamic_stream):
        a = Abacus(10**6, seed=1)
        estimate = a.process_stream(dynamic_stream)
        truth = ground_truth_final_count(dynamic_stream)
        assert estimate == pytest.approx(truth)

    def test_memory_bounded(self, dynamic_stream):
        a = Abacus(50, seed=2)
        a.process_stream(dynamic_stream)
        assert a.memory_edges <= 50

    def test_work_accumulates(self, dynamic_stream):
        a = Abacus(200, seed=3)
        a.process_stream(dynamic_stream)
        assert a.total_work > 0
        assert a.elements_processed == len(dynamic_stream)


class TestAccuracy:
    def test_reasonable_error_with_deletions(self):
        rng = random.Random(77)
        edges = bipartite_chung_lu(400, 120, 4000, rng=rng)
        stream = make_fully_dynamic(edges, 0.2, random.Random(7))
        truth = ground_truth_final_count(stream)
        errors = []
        for seed in range(5):
            a = Abacus(700, seed=seed)
            estimate = a.process_stream(stream)
            errors.append(abs(truth - estimate) / truth)
        assert sum(errors) / len(errors) < 0.25

    def test_error_shrinks_with_budget(self):
        rng = random.Random(78)
        edges = bipartite_chung_lu(400, 120, 4000, rng=rng)
        stream = make_fully_dynamic(edges, 0.2, random.Random(8))
        truth = ground_truth_final_count(stream)

        def mean_error(budget, trials=6):
            errs = []
            for seed in range(trials):
                a = Abacus(budget, seed=1000 + seed)
                errs.append(
                    abs(truth - a.process_stream(stream)) / truth
                )
            return sum(errs) / len(errs)

        assert mean_error(1200) < mean_error(150)

    def test_insert_only_accuracy(self):
        rng = random.Random(79)
        edges = bipartite_chung_lu(400, 120, 4000, rng=rng)
        stream = stream_from_edges(edges)
        truth = ground_truth_final_count(stream)
        errors = []
        for seed in range(5):
            a = Abacus(800, seed=seed)
            errors.append(abs(truth - a.process_stream(stream)) / truth)
        assert sum(errors) / len(errors) < 0.25


class TestAblations:
    def test_cheapest_side_identical_estimates(self, dynamic_stream):
        a1 = Abacus(300, seed=5, cheapest_side=True)
        a2 = Abacus(300, seed=5, cheapest_side=False)
        e1 = a1.process_stream(dynamic_stream)
        e2 = a2.process_stream(dynamic_stream)
        assert e1 == pytest.approx(e2)

    def test_no_weight_upkeep_without_the_side_test(self, dynamic_stream):
        estimator = Abacus(300, seed=1, cheapest_side=False)
        estimator.process_batch(dynamic_stream[:500])
        for element in dynamic_stream[500:600]:
            estimator.process(element)
        assert not estimator.sampler.sample.weights_live
        restored = Abacus.from_state_dict(estimator.state_to_dict())
        assert not restored.sampler.sample.weights_live
        assert Abacus(300, seed=1).sampler.sample.weights_live

    def test_naive_increment_differs_under_deletions(self):
        rng = random.Random(80)
        edges = bipartite_chung_lu(300, 100, 3000, rng=rng)
        stream = make_fully_dynamic(edges, 0.3, random.Random(9))
        proper = Abacus(400, seed=6)
        naive = Abacus(400, seed=6, naive_increment=True)
        ep = proper.process_stream(stream)
        en = naive.process_stream(stream)
        assert ep != pytest.approx(en)

    def test_naive_increment_same_without_deletions(self, insert_only_stream):
        # With no deletions cb = cg = 0 always, so both agree exactly.
        proper = Abacus(300, seed=7)
        naive = Abacus(300, seed=7, naive_increment=True)
        assert proper.process_stream(
            insert_only_stream
        ) == pytest.approx(naive.process_stream(insert_only_stream))


class TestCheckpoints:
    def test_checkpoint_callback_fires(self, dynamic_stream):
        a = Abacus(200, seed=8)
        marks = dynamic_stream.checkpoints(5)
        seen = []
        a.process_stream(
            dynamic_stream,
            checkpoints=marks,
            on_checkpoint=lambda n, est: seen.append((n, est.estimate)),
        )
        assert [n for n, _ in seen] == marks

    def test_duplicate_checkpoints_fire_once_each(self, dynamic_stream):
        """Regression: duplicate marks used to collapse into one call."""
        a = Abacus(200, seed=8)
        seen = []
        a.process_stream(
            dynamic_stream.prefix(300),
            checkpoints=[100, 100, 200],
            on_checkpoint=lambda n, est: seen.append(n),
        )
        assert seen == [100, 100, 200]

    def test_unsorted_checkpoints_fire_in_order(self, dynamic_stream):
        a = Abacus(200, seed=8)
        seen = []
        a.process_stream(
            dynamic_stream.prefix(300),
            checkpoints=[200, 50, 150],
            on_checkpoint=lambda n, est: seen.append(n),
        )
        assert seen == [50, 150, 200]


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="needs numpy")
class TestWeightUpkeepAcrossTheMirror:
    def test_interleaved_batches_match_per_element(self):
        # A dense block passes the mirror gate, so its batches turn the
        # sample's weight upkeep off and per-element calls in between
        # fall back to degree_sum; a long sparse tail then dilutes the
        # sample until the gate drops the mirror and upkeep resumes.
        rng = random.Random(3)
        dense = [(u, 1000 + v) for u in range(30) for v in range(30)]
        rng.shuffle(dense)
        sparse = [(100 + i, 2000 + i // 2) for i in range(4000)]
        stream = make_fully_dynamic(dense + sparse, 0.1, random.Random(4))

        reference = Abacus(500, seed=7)
        for element in stream:
            reference.process(element)

        estimator = Abacus(500, seed=7)
        sample = estimator.sampler.sample
        states = []
        position = 0
        while position < len(stream):
            estimator.process_batch(stream[position : position + 200])
            position += 200
            states.append(sample.weights_live)
            for element in stream[position : position + 15]:
                estimator.process(element)
            position += 15
        # Upkeep went off with the mirror, then came back on.
        assert False in states
        assert states[-1] is True
        for vertex in {x for edge in sample.edges() for x in edge}:
            neighbors = sample.neighbors(vertex)
            assert neighbors.weight == sample.degree_sum(neighbors)
        assert estimator.total_work == reference.total_work
        assert (
            open_session(estimator).fingerprint()
            == open_session(reference).fingerprint()
        )
